// Package campaign is the declarative what-if layer of §IX: the paper
// closes by noting that validated, environment-specific models "could also
// be scaled to simulate hypothetical platforms", and this package turns
// that remark into an exploration engine. A campaign Spec describes a
// parameter grid — a platform axis (node count, bandwidth/latency scaling,
// two-speed heterogeneity over a base environment), a workload axis (DAG
// suite seeds and matrix-size filters from internal/dag), an algorithm axis
// (CPA/HCPA/MCPA/M-HEFT plus baselines) and a model axis
// (analytic/brute-force profile/empirical). The engine expands the grid
// into cells, executes every cell on the experiments worker pool against
// registry-cached fits (models are fitted once per derived platform and
// reused across the whole grid), and aggregates winner-flip counts à la §V,
// makespan ratios and error percentiles into one deterministic report —
// byte-identical at any worker count.
package campaign

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/dag/shapes"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/sched"
)

// Grid limits: a spec beyond these is rejected at validation time, before
// any fitting campaign runs.
const (
	// MaxAxisValues bounds each individual axis.
	MaxAxisValues = 32
	// MaxGridCells bounds platform × workload × model combinations.
	MaxGridCells = 96
	// MaxRuns bounds grid cells × algorithms.
	MaxRuns = 512
	// MaxNodes bounds a hypothetical platform's node count.
	MaxNodes = 1024
	// MaxTrials bounds the emulated runs averaged per measured makespan.
	MaxTrials = 32
	// MaxTraceTasks bounds an imported workflow trace's task count.
	MaxTraceTasks = 512
	// MaxKeyName bounds a trace or shape name after keySafe escaping, so
	// workload keys stay usable in study names and report rows.
	MaxKeyName = 64
)

// Spec declares one campaign: the axes of the what-if grid plus the shared
// seeds and measurement effort. The zero value of every field means "use
// the default" (base environment, one platform point, the Table I suite,
// HCPA vs MCPA under the analytic model).
type Spec struct {
	// Name labels the campaign in job listings and the report header.
	Name string `json:"name,omitempty"`
	// Platforms is the platform axis.
	Platforms PlatformAxis `json:"platforms"`
	// Workloads is the workload axis.
	Workloads WorkloadAxis `json:"workloads"`
	// Algorithms is the algorithm axis: CPA, HCPA, MCPA, MHEFT (alias
	// M-HEFT), SEQ, DATAPAR. Default {HCPA, MCPA} — the paper's pair.
	Algorithms []string `json:"algorithms,omitempty"`
	// Models is the model axis: analytic, profile (alias brute-force),
	// empirical. Default {analytic}.
	Models []string `json:"models,omitempty"`
	// Seed is the environment noise / measurement-campaign seed
	// (default 42, the paper's evaluation seed).
	Seed int64 `json:"seed,omitempty"`
	// Trials is the emulated runs averaged per measured makespan
	// (default 1, as the paper executed each schedule once).
	Trials int `json:"trials,omitempty"`
}

// PlatformAxis sweeps hypothetical platforms derived from a base
// environment. The platform points are the cross product of the four lists;
// each empty list contributes the single identity point.
type PlatformAxis struct {
	// Base is the ground-truth environment the variants derive from:
	// "bayreuth" (default) or "modern".
	Base string `json:"base,omitempty"`
	// Nodes lists node counts (platform.Cluster.Scaled); 0 keeps the
	// base size.
	Nodes []int `json:"nodes,omitempty"`
	// BandwidthScale lists multiplicative factors on the per-node link
	// bandwidth (1 = unchanged).
	BandwidthScale []float64 `json:"bandwidth_scale,omitempty"`
	// LatencyScale lists multiplicative factors on the link latency
	// (1 = unchanged).
	LatencyScale []float64 `json:"latency_scale,omitempty"`
	// SpeedRatios lists two-speed heterogeneity ratios
	// (platform.NewHeterogeneous): half the nodes run at the base speed,
	// half at ratio times it. 1 = homogeneous.
	SpeedRatios []float64 `json:"speed_ratios,omitempty"`
}

// WorkloadAxis sweeps evaluation workloads: generated Table I suites,
// imported workflow traces, and named canonical shapes. Every non-empty
// list contributes its own workload points; an entirely empty axis defaults
// to the paper's 2011 suite.
type WorkloadAxis struct {
	// SuiteSeeds lists Table I suite seeds, one 54-DAG suite each
	// (default {2011}, the paper's workload).
	SuiteSeeds []int64 `json:"suite_seeds,omitempty"`
	// Sizes optionally restricts the suite to the given matrix sizes
	// (subset of {2000, 3000}; empty keeps all 54 instances). For shape
	// workloads the same list selects the matrix sizes to build (default
	// {2000}).
	Sizes []int `json:"sizes,omitempty"`
	// Traces lists imported workflow graphs, one workload point each.
	Traces []TraceRef `json:"traces,omitempty"`
	// Shapes lists canonical workflow shapes by registry name
	// (internal/dag/shapes), one workload point per shape and size.
	Shapes []string `json:"shapes,omitempty"`
}

// IsEmpty reports whether the axis names no workloads at all, which is what
// triggers the Table I default.
func (a WorkloadAxis) IsEmpty() bool {
	return len(a.SuiteSeeds) == 0 && len(a.Traces) == 0 && len(a.Shapes) == 0
}

// TraceRef references one imported workflow graph: either a file (DOT or
// JSON, sniffed by dag.Import) or inline DOT text. Paths resolve relative
// to the process working directory on whichever replica runs the cell, so
// sharded deployments must see the same files everywhere.
type TraceRef struct {
	// Name labels the trace in keys and reports. Default: the imported
	// graph's own name, else the path basename without extension.
	Name string `json:"name,omitempty"`
	// Path locates the serialized graph on disk.
	Path string `json:"path,omitempty"`
	// DOT carries the graph inline in WriteDOT's dialect.
	DOT string `json:"dot,omitempty"`
}

// isSet reports whether the ref names any source.
func (t TraceRef) isSet() bool { return t.Path != "" || t.DOT != "" }

// Load imports and validates the referenced graph.
func (t TraceRef) Load() (*dag.Graph, error) {
	var g *dag.Graph
	var err error
	switch {
	case t.Path != "" && t.DOT != "":
		return nil, fmt.Errorf("campaign: trace %q sets both path and dot", t.Name)
	case t.Path != "":
		g, err = dag.ImportFile(t.Path)
	case t.DOT != "":
		g, err = dag.Import([]byte(t.DOT))
	default:
		return nil, fmt.Errorf("campaign: trace %q sets neither path nor dot", t.Name)
	}
	if err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("campaign: trace %q is empty", t.Name)
	}
	if g.Len() > MaxTraceTasks {
		return nil, fmt.Errorf("campaign: trace %q has %d tasks, limit %d", t.Name, g.Len(), MaxTraceTasks)
	}
	return g, nil
}

// resolveName returns the trace's display name: the explicit Name, else the
// imported graph's name, else the path basename without extension.
func (t TraceRef) resolveName(g *dag.Graph) string {
	if t.Name != "" {
		return t.Name
	}
	if g != nil && g.Name != "" {
		return g.Name
	}
	base := filepath.Base(t.Path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// PlatformPoint is one expanded value of the platform axis.
type PlatformPoint struct {
	// Env is the derived environment's registry name, deterministically
	// encoding the parameters ("bayreuth-x64-bw0.5-het2").
	Env string
	// Nodes is the node count (0 = the base environment's size).
	Nodes int
	// BandwidthScale, LatencyScale and SpeedRatio are the applied factors.
	BandwidthScale, LatencyScale, SpeedRatio float64
}

// WorkloadPoint is one expanded value of the workload axis: exactly one of
// the three kinds — a generated suite, an imported trace, or a named shape.
// Points travel inside gob-encoded shard cell frames, so they stay small
// and self-describing: a trace point carries the reference, never the
// graph; every replica re-imports it when materialising instances.
type WorkloadPoint struct {
	// SuiteSeed derives a suite point's DAG suite.
	SuiteSeed int64
	// Sizes is the suite point's matrix-size filter (nil = the full suite).
	Sizes []int
	// Trace references an imported workflow for a trace point.
	Trace TraceRef
	// Shape and N select a canonical shape point and its matrix size.
	Shape string
	N     int
}

// Key renders the point for study names, report rows and shard cell plans.
// The three kinds use distinct prefixes and trace/shape names pass through
// the injective keySafe escaping, so two different points can never alias.
func (w WorkloadPoint) Key() string {
	switch {
	case w.Trace.isSet():
		return "trace-" + keySafe(w.Trace.Name)
	case w.Shape != "":
		return fmt.Sprintf("shape-%s-n%d", keySafe(w.Shape), w.N)
	}
	s := fmt.Sprintf("suite-%d", w.SuiteSeed)
	for _, n := range w.Sizes {
		s += fmt.Sprintf("-n%d", n)
	}
	return s
}

// Instances materialises the point's evaluation instances: the (filtered)
// generated suite, the imported trace, or the built shape. Deterministic:
// the same point always yields the same graphs, on every replica.
func (w WorkloadPoint) Instances() ([]dag.SuiteInstance, error) {
	switch {
	case w.Trace.isSet():
		g, err := w.Trace.Load()
		if err != nil {
			return nil, err
		}
		return []dag.SuiteInstance{{Graph: g}}, nil
	case w.Shape != "":
		g, err := shapes.Build(w.Shape, w.N)
		if err != nil {
			return nil, err
		}
		return []dag.SuiteInstance{{Graph: g}}, nil
	}
	suite, err := dag.GenerateSuite(w.SuiteSeed)
	if err != nil {
		return nil, err
	}
	return FilterSizes(suite, w.Sizes), nil
}

// keySafe escapes a name for use inside a workload key: letters, digits,
// dots and dashes pass through, an underscore doubles, and every other byte
// becomes _xx (lowercase hex). The escaping decodes unambiguously left to
// right, so it is injective — distinct names can never collide.
func keySafe(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
			b.WriteByte(c)
		case c == '_':
			b.WriteString("__")
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	return b.String()
}

// Plan is a validated, fully expanded campaign grid.
type Plan struct {
	// Spec is the normalized spec the plan was expanded from.
	Spec Spec
	// Platforms, Workloads, Models and Algorithms are the expanded axes,
	// in deterministic spec order.
	Platforms  []PlatformPoint
	Workloads  []WorkloadPoint
	Models     []string
	Algorithms []string
}

// Cells is the number of (platform, workload, model) grid cells.
func (p *Plan) Cells() int { return len(p.Platforms) * len(p.Workloads) * len(p.Models) }

// Runs is the number of grid cells × algorithms — the units that each
// resolve their model from the registry.
func (p *Plan) Runs() int { return p.Cells() * len(p.Algorithms) }

// The axes accept the canonical names — sched.Names() and perfmodel.Kinds()
// — and these aliases of them.
var (
	canonicalAlgorithms = map[string]string{"M-HEFT": "MHEFT"}
	canonicalModels     = map[string]string{"brute-force": "profile"}
)

// CanonicalAlgorithm resolves an algorithm-axis name or alias to its sched
// name; other spec layers (internal/arrival) share the campaign axis
// vocabulary through it.
func CanonicalAlgorithm(name string) (string, bool) {
	return canonical(name, canonicalAlgorithms, sched.Names())
}

// CanonicalModel resolves a model-axis name or alias to its registry kind.
func CanonicalModel(name string) (string, bool) {
	return canonical(name, canonicalModels, perfmodel.Kinds())
}

func canonical(name string, aliases map[string]string, names []string) (string, bool) {
	if alias, ok := aliases[name]; ok {
		name = alias
	}
	return name, slices.Contains(names, name)
}

// Schedulers resolves the plan's algorithm axis, in plan order.
func (p *Plan) Schedulers() ([]sched.Algorithm, error) {
	algos := make([]sched.Algorithm, len(p.Algorithms))
	for i, name := range p.Algorithms {
		var err error
		if algos[i], err = sched.ByName(name); err != nil {
			return nil, err
		}
	}
	return algos, nil
}

// normalize fills the spec's defaults in place.
func (s *Spec) normalize() {
	if s.Platforms.Base == "" {
		s.Platforms.Base = "bayreuth"
	}
	if len(s.Platforms.Nodes) == 0 {
		s.Platforms.Nodes = []int{0}
	}
	if len(s.Platforms.BandwidthScale) == 0 {
		s.Platforms.BandwidthScale = []float64{1}
	}
	if len(s.Platforms.LatencyScale) == 0 {
		s.Platforms.LatencyScale = []float64{1}
	}
	if len(s.Platforms.SpeedRatios) == 0 {
		s.Platforms.SpeedRatios = []float64{1}
	}
	if s.Workloads.IsEmpty() {
		s.Workloads.SuiteSeeds = []int64{experiments.DefaultConfig().SuiteSeed}
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = []string{"HCPA", "MCPA"}
	}
	if len(s.Models) == 0 {
		s.Models = []string{"analytic"}
	}
	if s.Seed == 0 {
		s.Seed = experiments.DefaultConfig().NoiseSeed
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
}

// Plan normalizes and validates the spec and expands it into the full grid.
// Every error names the offending axis and, for limit violations, the
// limit, so rejected specs are self-explanatory.
func (s Spec) Plan() (*Plan, error) {
	s.normalize()
	p := &Plan{Spec: s}

	if err := checkAxisLen("platforms.nodes", len(s.Platforms.Nodes)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("platforms.bandwidth_scale", len(s.Platforms.BandwidthScale)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("platforms.latency_scale", len(s.Platforms.LatencyScale)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("platforms.speed_ratios", len(s.Platforms.SpeedRatios)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("workloads.suite_seeds", len(s.Workloads.SuiteSeeds)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("workloads.traces", len(s.Workloads.Traces)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("workloads.shapes", len(s.Workloads.Shapes)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("algorithms", len(s.Algorithms)); err != nil {
		return nil, err
	}
	if err := checkAxisLen("models", len(s.Models)); err != nil {
		return nil, err
	}

	seenNodes := map[int]bool{}
	for _, n := range s.Platforms.Nodes {
		if n < 0 || n > MaxNodes {
			return nil, fmt.Errorf("campaign: platforms.nodes value %d outside [0, %d] (0 = base size)", n, MaxNodes)
		}
		if seenNodes[n] {
			return nil, fmt.Errorf("campaign: duplicate platforms.nodes value %d", n)
		}
		seenNodes[n] = true
	}
	if err := checkScales("platforms.bandwidth_scale", s.Platforms.BandwidthScale); err != nil {
		return nil, err
	}
	if err := checkScales("platforms.latency_scale", s.Platforms.LatencyScale); err != nil {
		return nil, err
	}
	if err := checkScales("platforms.speed_ratios", s.Platforms.SpeedRatios); err != nil {
		return nil, err
	}

	seenSeeds := map[int64]bool{}
	for _, seed := range s.Workloads.SuiteSeeds {
		if seenSeeds[seed] {
			return nil, fmt.Errorf("campaign: duplicate workloads.suite_seeds value %d", seed)
		}
		seenSeeds[seed] = true
	}
	sizes, err := normalizeSizes(s.Workloads.Sizes)
	if err != nil {
		return nil, err
	}

	hetero := false
	for _, r := range s.Platforms.SpeedRatios {
		if r != 1 {
			hetero = true
		}
	}
	seenAlgo := map[string]bool{}
	for _, a := range s.Algorithms {
		name, ok := CanonicalAlgorithm(a)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown algorithm %q (want one of %v)", a, sched.Names())
		}
		if seenAlgo[name] {
			return nil, fmt.Errorf("campaign: duplicate algorithm %q", name)
		}
		seenAlgo[name] = true
		if name == "MHEFT" && hetero {
			return nil, fmt.Errorf("campaign: MHEFT is a homogeneous-platform scheduler; remove it or drop speed_ratios != 1")
		}
		p.Algorithms = append(p.Algorithms, name)
	}
	seenModel := map[string]bool{}
	for _, m := range s.Models {
		kind, ok := CanonicalModel(m)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown model %q (want one of %v, or brute-force for profile)", m, perfmodel.Kinds())
		}
		if seenModel[kind] {
			return nil, fmt.Errorf("campaign: duplicate model %q", kind)
		}
		seenModel[kind] = true
		p.Models = append(p.Models, kind)
	}

	if s.Trials < 0 || s.Trials > MaxTrials {
		return nil, fmt.Errorf("campaign: trials %d outside [1, %d]", s.Trials, MaxTrials)
	}

	// Shape points expand one per matrix size; suites use the sizes as a
	// filter instead, and traces carry their own sizes.
	shapeSizes := sizes
	if len(shapeSizes) == 0 {
		shapeSizes = dag.SuiteSizes[:1]
	}

	// Enforce the grid limits arithmetically before expanding anything: the
	// axis-length checks above cap each list at 32 values, so a hostile spec
	// could still describe 32⁴ platform points — reject it from the lengths
	// alone instead of materialising a million-point grid first.
	platforms := len(s.Platforms.Nodes) * len(s.Platforms.BandwidthScale) *
		len(s.Platforms.LatencyScale) * len(s.Platforms.SpeedRatios)
	workloads := len(s.Workloads.SuiteSeeds) + len(s.Workloads.Traces) +
		len(s.Workloads.Shapes)*len(shapeSizes)
	if cells := platforms * workloads * len(p.Models); cells > MaxGridCells {
		return nil, fmt.Errorf("campaign: grid has %d cells (platforms × workloads × models), limit %d", cells, MaxGridCells)
	}
	if runs := platforms * workloads * len(p.Models) * len(p.Algorithms); runs > MaxRuns {
		return nil, fmt.Errorf("campaign: grid has %d runs (cells × algorithms), limit %d", runs, MaxRuns)
	}

	for _, n := range s.Platforms.Nodes {
		for _, bw := range s.Platforms.BandwidthScale {
			for _, lat := range s.Platforms.LatencyScale {
				for _, ratio := range s.Platforms.SpeedRatios {
					pt := PlatformPoint{
						Nodes:          n,
						BandwidthScale: bw,
						LatencyScale:   lat,
						SpeedRatio:     ratio,
					}
					pt.Env = pt.envName(s.Platforms.Base)
					p.Platforms = append(p.Platforms, pt)
				}
			}
		}
	}
	for _, seed := range s.Workloads.SuiteSeeds {
		p.Workloads = append(p.Workloads, WorkloadPoint{SuiteSeed: seed, Sizes: sizes})
	}
	for i, tr := range s.Workloads.Traces {
		// Import at plan time: a bad reference rejects the spec up front
		// (an HTTP 400, not a failed job), and the resolved name pins the
		// point's key before any cell math depends on it.
		g, err := tr.Load()
		if err != nil {
			return nil, fmt.Errorf("campaign: workloads.traces[%d]: %w", i, err)
		}
		tr.Name = tr.resolveName(g)
		if tr.Name == "" {
			return nil, fmt.Errorf("campaign: workloads.traces[%d] has no resolvable name", i)
		}
		if len(keySafe(tr.Name)) > MaxKeyName {
			return nil, fmt.Errorf("campaign: workloads.traces[%d] name %q too long (escaped limit %d)", i, tr.Name, MaxKeyName)
		}
		p.Workloads = append(p.Workloads, WorkloadPoint{Trace: tr})
	}
	for i, name := range s.Workloads.Shapes {
		if _, ok := shapes.Lookup(name); !ok {
			return nil, fmt.Errorf("campaign: workloads.shapes[%d]: unknown shape %q (known: %v)", i, name, shapes.Names())
		}
		for _, n := range shapeSizes {
			p.Workloads = append(p.Workloads, WorkloadPoint{Shape: name, N: n})
		}
	}
	seenKeys := make(map[string]bool, len(p.Workloads))
	for _, wp := range p.Workloads {
		key := wp.Key()
		if seenKeys[key] {
			return nil, fmt.Errorf("campaign: duplicate workload point %q", key)
		}
		seenKeys[key] = true
	}

	return p, nil
}

// envName encodes a platform point into a deterministic derived-environment
// name; the identity point keeps the base name, sharing its fitted models
// with every other user of the registry.
func (pt PlatformPoint) envName(base string) string {
	name := base
	if pt.Nodes > 0 {
		name += "-x" + strconv.Itoa(pt.Nodes)
	}
	if pt.BandwidthScale != 1 {
		name += "-bw" + formatScale(pt.BandwidthScale)
	}
	if pt.LatencyScale != 1 {
		name += "-lat" + formatScale(pt.LatencyScale)
	}
	if pt.SpeedRatio != 1 {
		name += "-het" + formatScale(pt.SpeedRatio)
	}
	return name
}

func formatScale(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func checkAxisLen(axis string, n int) error {
	if n > MaxAxisValues {
		return fmt.Errorf("campaign: %s has %d values, limit %d", axis, n, MaxAxisValues)
	}
	return nil
}

func checkScales(axis string, vs []float64) error {
	seen := map[float64]bool{}
	for _, v := range vs {
		if v < 1.0/1024 || v > 1024 {
			return fmt.Errorf("campaign: %s value %g outside [1/1024, 1024]", axis, v)
		}
		if seen[v] {
			return fmt.Errorf("campaign: duplicate %s value %g", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// normalizeSizes validates the matrix-size filter against the Table I
// sizes and returns it in suite order.
func normalizeSizes(sizes []int) ([]int, error) {
	if len(sizes) == 0 {
		return nil, nil
	}
	valid := map[int]bool{}
	for _, n := range dag.SuiteSizes {
		valid[n] = true
	}
	seen := map[int]bool{}
	for _, n := range sizes {
		if !valid[n] {
			return nil, fmt.Errorf("campaign: workloads.sizes value %d not in the Table I sizes %v", n, dag.SuiteSizes)
		}
		if seen[n] {
			return nil, fmt.Errorf("campaign: duplicate workloads.sizes value %d", n)
		}
		seen[n] = true
	}
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	return out, nil
}
