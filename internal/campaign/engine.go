package campaign

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Campaign telemetry: grid cells completed (one cell = one platform ×
// workload × model point scored over its whole suite). The counter never
// feeds back into reports — campaign output is byte-identical with or
// without anyone scraping it.
var cellsCompleted = obs.Default.Counter("repro_campaign_cells_completed_total",
	"Campaign grid cells fully scored.")

// ModelSource is the fit-once model registry the engine executes against
// (service.ModelRegistry implements it). Derived platforms are registered
// under deterministic names, so every campaign — and every schedule request
// outside campaigns — shares one fitted model per (platform, kind, seed).
type ModelSource interface {
	// Environment resolves an environment name to a fresh ground truth.
	Environment(name string) (*cluster.Hidden, error)
	// RegisterEnv adds a derived environment; first registration of a
	// name wins.
	RegisterEnv(name string, mk func() *cluster.Hidden) error
	// GetModel returns the fitted model for (env, kind, seed), building it
	// on first use; the bool reports a cache hit.
	GetModel(env, kind string, seed int64) (perfmodel.Model, bool, error)
}

// Engine executes campaign plans: it derives the platform points from the
// base environment, pulls each run's model from the fit-once registry, and
// scores every grid cell's suite on the experiments worker pool with
// deterministic per-cell noise sessions.
type Engine struct {
	// Source supplies ground truths and registry-cached fitted models.
	Source ModelSource
	// Workers bounds the cell-engine worker pool (<= 0: one per CPU).
	// Reports are byte-identical for every value.
	Workers int
	// Keep retains every cell's per-instance makespans and schedules on
	// CellScore.Raw. The rendered report ignores them; the robustness engine
	// (internal/robust) builds its winner-stability baselines from the
	// makespans without re-measuring anything, and its replay path
	// re-simulates the schedules under perturbed models without
	// rescheduling.
	Keep bool
	// Progress, when non-nil, receives live cell counts (total at plan
	// time, done as each cell finishes) for job-status and CLI progress
	// reporting. It is write-only: nothing the engine reports through it
	// feeds back into the campaign's results.
	Progress *obs.Progress
}

// AlgoScore summarises one algorithm over one grid cell's suite.
type AlgoScore struct {
	Algorithm string
	// MedianExp is the median measured makespan in seconds.
	MedianExp float64
	// MedianErrPct, P90ErrPct and P99ErrPct summarise the simulation
	// error |exp−sim|/sim (stats.SimErrPct, Figure 8's metric — normalised
	// by the simulated makespan) over the cell's instances.
	MedianErrPct, P90ErrPct, P99ErrPct float64
}

// PairScore summarises one algorithm pair over one grid cell — the §V
// question of whether simulation picks the experimentally better algorithm.
type PairScore struct {
	A, B string
	// Flips counts instances where the simulated winner differs from the
	// measured winner; Total is the instance count.
	Flips, Total int
	// KendallTau is the rank correlation between simulated and measured
	// relative makespan differences.
	KendallTau float64
	// MedianSimRatio and MedianExpRatio are the median makespan ratios
	// B/A under simulation and experiment.
	MedianSimRatio, MedianExpRatio float64
}

// CellScore is the outcome of one (platform, workload, model) grid cell.
type CellScore struct {
	Platform  PlatformPoint
	Workload  WorkloadPoint
	Model     string
	Instances int
	Algos     []AlgoScore
	Pairs     []PairScore
	// Raw is the cell's per-instance data, retained only under
	// Engine.Keep; nil otherwise.
	Raw *CellRaw
}

// CellRaw retains a cell's per-instance data: Sim[i][a] and Exp[i][a] are
// the simulated and measured makespans of suite instance i under algorithm a
// (both in plan order), and Schedules[i][a] is the schedule they measured,
// detached from the engine's scratch buffers.
type CellRaw struct {
	Sim, Exp  [][]float64
	Schedules [][]*sched.Schedule
}

// Result is a completed campaign: the expanded plan plus every cell's
// scores. Write renders the deterministic report.
type Result struct {
	Plan  *Plan
	Cells []CellScore
}

// resolvePlan canonicalises a freshly expanded plan against the base
// environment and registers every derived platform with the model source.
// Every replica resolves a spec to the identical canonical plan through it —
// the precondition for byte-identical sharded reports.
func (e *Engine) resolvePlan(plan *Plan) error {
	if e.Source == nil {
		return fmt.Errorf("campaign: engine has no model source")
	}
	base, err := e.Source.Environment(plan.Spec.Platforms.Base)
	if err != nil {
		return err
	}
	// Canonicalise explicit base-size points (nodes == the base platform's
	// size) to the identity point, so they share the base environment's
	// cached fits instead of refitting a byte-identical derived platform.
	seenEnv := map[string]bool{}
	for i, pt := range plan.Platforms {
		if pt.Nodes == base.Cluster.Nodes {
			pt.Nodes = 0
			pt.Env = pt.envName(plan.Spec.Platforms.Base)
			plan.Platforms[i] = pt
		}
		if seenEnv[pt.Env] {
			return fmt.Errorf("campaign: platforms.nodes lists both 0 and the base size %d — the same platform twice", base.Cluster.Nodes)
		}
		seenEnv[pt.Env] = true
	}
	for _, pt := range plan.Platforms {
		if pt.Env == plan.Spec.Platforms.Base {
			continue
		}
		derived := deriveHidden(base, pt)
		if err := e.Source.RegisterEnv(pt.Env, func() *cluster.Hidden {
			h := *derived
			return &h
		}); err != nil {
			return err
		}
	}
	return nil
}

// Run expands, validates and executes a campaign: Prepare, every cell in
// plan order, Merge — the same three steps a sharded execution spreads over
// replicas, so the two cannot disagree.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	p, err := e.Prepare(spec)
	if err != nil {
		return nil, err
	}
	cells, err := experiments.CellsInOrder(ctx, e.Progress, p.NumCells(), func(i int) (CellScore, error) {
		return e.RunCellIndex(ctx, p, i)
	})
	if err != nil {
		return nil, err
	}
	return Merge(p, cells)
}

// runCell scores one grid cell: every suite instance is one engine cell, the
// scoring cell of the cell's pass run with all axis algorithms on the
// instance's private deterministic noise session.
func (e *Engine) runCell(ctx context.Context, plan *Plan, pt PlatformPoint, wp WorkloadPoint,
	kind string, suite []dag.SuiteInstance, pass experiments.Pass) (CellScore, error) {

	algos, err := plan.Schedulers()
	if err != nil {
		return CellScore{}, err
	}
	study := "campaign/" + pt.Env + "/" + wp.Key() + "/" + kind
	raw := &CellRaw{Sim: make([][]float64, len(suite)), Exp: make([][]float64, len(suite))}
	if e.Keep {
		raw.Schedules = make([][]*sched.Schedule, len(suite))
	}
	err = experiments.ForEachCellCtx(ctx, e.Workers, len(suite), func(i int) error {
		raw.Sim[i], raw.Exp[i] = make([]float64, len(algos)), make([]float64, len(algos))
		var keep []*sched.Schedule
		if e.Keep {
			keep = make([]*sched.Schedule, len(algos))
			raw.Schedules[i] = keep
		}
		if err := pass.Score(suite[i].Graph, algos, pass.Session(study, i), raw.Sim[i], raw.Exp[i], keep); err != nil {
			return fmt.Errorf("campaign: %s: %w", study, err)
		}
		return nil
	})
	if err != nil {
		return CellScore{}, err
	}

	cell := CellScore{Platform: pt, Workload: wp, Model: kind, Instances: len(suite)}
	if e.Keep {
		cell.Raw = raw
	}
	for ai, name := range plan.Algorithms {
		exps := make([]float64, len(suite))
		errs := make([]float64, len(suite))
		for i := range suite {
			exps[i] = raw.Exp[i][ai]
			errs[i] = stats.SimErrPct(raw.Sim[i][ai], raw.Exp[i][ai])
		}
		cell.Algos = append(cell.Algos, AlgoScore{
			Algorithm:    name,
			MedianExp:    stats.Median(exps),
			MedianErrPct: stats.Median(errs),
			P90ErrPct:    stats.Quantile(errs, 0.90),
			P99ErrPct:    stats.Quantile(errs, 0.99),
		})
	}
	for ai := 0; ai < len(algos); ai++ {
		for bi := ai + 1; bi < len(algos); bi++ {
			simRels := make([]float64, len(suite))
			expRels := make([]float64, len(suite))
			simRatios := make([]float64, len(suite))
			expRatios := make([]float64, len(suite))
			for i := range suite {
				sim, exp := raw.Sim[i], raw.Exp[i]
				simRels[i] = stats.RelDiff(sim[ai], sim[bi])
				expRels[i] = stats.RelDiff(exp[ai], exp[bi])
				simRatios[i] = sim[bi] / sim[ai]
				expRatios[i] = exp[bi] / exp[ai]
			}
			cell.Pairs = append(cell.Pairs, PairScore{
				A:              plan.Algorithms[ai],
				B:              plan.Algorithms[bi],
				Flips:          stats.CountDisagreements(simRels, expRels, 0),
				Total:          len(suite),
				KendallTau:     stats.KendallTau(simRels, expRels),
				MedianSimRatio: stats.Median(simRatios),
				MedianExpRatio: stats.Median(expRatios),
			})
		}
	}
	return cell, nil
}

// deriveHidden builds the ground truth of a derived platform point: the
// base environment's hidden performance curves over a transformed cluster.
// The environment's idiosyncrasies (inefficiencies, outliers, overhead
// trends, noise) carry over unchanged — exactly the §IX scenario of scaling
// a validated environment model to a hypothetical platform.
func deriveHidden(base *cluster.Hidden, pt PlatformPoint) *cluster.Hidden {
	h := *base
	c := h.Cluster
	if pt.Nodes > 0 && pt.Nodes != c.Nodes {
		c = c.Scaled(pt.Nodes)
	}
	if pt.BandwidthScale != 1 {
		c.LinkBandwidth *= pt.BandwidthScale
	}
	if pt.LatencyScale != 1 {
		c.LinkLatency *= pt.LatencyScale
	}
	if pt.SpeedRatio != 1 {
		powers := make([]float64, c.Nodes)
		for i := range powers {
			powers[i] = c.NodePower
			if i >= c.Nodes/2 {
				powers[i] = c.NodePower * pt.SpeedRatio
			}
		}
		hc := platform.NewHeterogeneous(pt.Env, powers, c.LinkBandwidth, c.LinkLatency)
		hc.BackplaneBandwidth = c.BackplaneBandwidth
		c = hc
	}
	c.Name = pt.Env
	h.Cluster = c
	return &h
}

// BuildScheduleScratch dispatches one algorithm-axis run on a scheduling
// scratch the caller has bound to (g, c.Nodes, cost): the caller binds once
// and then builds any number of algorithm runs against it without
// steady-state allocations. The scratch maps heterogeneously when the
// platform is heterogeneous (Scratch.BuildOn). The returned schedule aliases
// the scratch's buffers — it is invalidated by the scratch's next build, so
// callers retaining it must Clone.
func BuildScheduleScratch(sc *sched.Scratch, name string, g *dag.Graph, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) (*sched.Schedule, error) {
	algo, err := sched.ByName(name)
	if err != nil {
		return nil, err
	}
	return sc.BuildOn(algo, c, comm)
}

// BuildSchedule is BuildScheduleScratch on a pooled scratch, returning a
// schedule that is the caller's to keep.
func BuildSchedule(name string, g *dag.Graph, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) (*sched.Schedule, error) {
	sc := sched.AcquireScratch()
	sc.Bind(g, c.Nodes, cost)
	s, err := BuildScheduleScratch(sc, name, g, c, cost, comm)
	if err != nil {
		return nil, err
	}
	s = s.Clone()
	// Not deferred: a scratch held at an error or a panic is dropped, never
	// pooled.
	sched.ReleaseScratch(sc)
	return s, nil
}

// FilterSizes restricts a suite to the given matrix sizes (nil: keep all).
// Exported so the robustness engine regenerates exactly the suites its base
// campaign scored.
func FilterSizes(suite []dag.SuiteInstance, sizes []int) []dag.SuiteInstance {
	if len(sizes) == 0 {
		return suite
	}
	var out []dag.SuiteInstance
	for _, n := range sizes {
		out = append(out, dag.FilterBySize(suite, n)...)
	}
	return out
}
