package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/robust"
)

// The job-family table. A family is one kind of cell-structured job: a spec
// resolves to a plan of N cells, cell i depends only on (spec, i), and the
// report is a merge of the cells in index order. Everything the service does
// with such jobs — submit and validate, run in process, shard over a
// cluster, route, list, label metrics — is written once over this table; a
// family is one entry in it and nothing else.

// Family describes one job family.
type Family struct {
	// Name is the kind prefix: the family's jobs are of kind Name or
	// Name:<spec name>, and Name is their label on repro_job_duration_seconds.
	Name string
	// Kinds, when set, are the family's job kinds instead: each spec name is
	// a kind of its own, with no prefix (the studies' "table1", "fig1", …).
	Kinds []string
	// Route is the family's noun under /v1/ ("campaigns"). The read side of
	// the generic "jobs" serves every job, whatever its family.
	Route string
	// Noun is what messages call one job of the family ("campaign").
	Noun string
	// Prepare decodes a spec, fills the fields it leaves zero from d and
	// resolves it to a plan without executing anything. It is the family's
	// whole rejection surface — a spec that prepares runs — and must be
	// deterministic: every replica preparing the same spec against an
	// equivalent model source resolves the identical plan.
	Prepare func(spec []byte, d Defaults) (Plan, error)
}

// matches reports whether a job kind belongs to the family.
func (f *Family) matches(kind string) bool {
	if f.Kinds != nil {
		return slices.Contains(f.Kinds, kind)
	}
	return kind == f.Name || strings.HasPrefix(kind, f.Name+":")
}

// kind is the job kind of a plan of the family.
func (f *Family) kind(p Plan) string {
	switch label := p.Label(); {
	case f.Kinds != nil:
		return label
	case label == "":
		return f.Name
	default:
		return f.Name + ":" + label
	}
}

// exposes reports whether the family's read routes serve a job kind.
func (f *Family) exposes(kind string) bool {
	return f.Route == "jobs" || f.matches(kind)
}

// Defaults are the values a deployment supplies for the spec fields a
// submission leaves zero, so every consumer of one registry shares its
// fitted models by default.
type Defaults struct {
	// Seed is the environment noise / measurement-campaign seed.
	Seed int64
	// SuiteSeed is the Table I suite seed of a fully empty workload axis. An
	// axis that already names workloads — suites, traces or shapes — is left
	// alone.
	SuiteSeed int64
	// Trials, when above 1, is the emulated runs averaged per measured
	// makespan (mixedsim -trials); the service leaves it zero.
	Trials int
}

// fill applies the defaults to a spec's three shared fields.
func (d Defaults) fill(seed *int64, workloads *campaign.WorkloadAxis, trials *int) {
	if *seed == 0 {
		*seed = d.Seed
	}
	if workloads.IsEmpty() {
		workloads.SuiteSeeds = []int64{d.SuiteSeed}
	}
	if *trials == 0 && d.Trials > 1 {
		*trials = d.Trials
	}
}

// Plan is a resolved spec ready for cell-by-cell execution.
type Plan interface {
	// Label is the spec's name, the part of the job kind after the colon
	// ("" for an unnamed spec).
	Label() string
	// Spec is the canonical spec — defaults filled — as JSON: the payload a
	// job of this plan is stored and replayed from.
	Spec() []byte
	// NumCells is the number of independent work-units.
	NumCells() int
	// Run executes every cell in index order, in process, and merges them.
	// Cells stay typed; nothing is serialised. Cell and trial counts flow
	// through prog (nil is fine).
	Run(ctx context.Context, prog *obs.Progress) (string, error)
	// RunCell executes cell i and returns its result frame, the form a cell
	// takes in the durable store. Trial counts flow through prog.
	RunCell(ctx context.Context, i int, prog *obs.Progress) ([]byte, error)
	// Merge folds every cell's frame — in index order — into the report,
	// byte-identical to Run's.
	Merge(frames [][]byte) (string, error)
}

// cellPlan implements Plan over typed cells.
type cellPlan[C any] struct {
	label  string
	spec   []byte
	cells  int
	run    func(ctx context.Context, i int, prog *obs.Progress) (C, error)
	encode func(C) ([]byte, error)
	decode func([]byte) (C, error)
	merge  func([]C) (string, error)
}

func (p *cellPlan[C]) Label() string { return p.label }
func (p *cellPlan[C]) Spec() []byte  { return p.spec }
func (p *cellPlan[C]) NumCells() int { return p.cells }

func (p *cellPlan[C]) Run(ctx context.Context, prog *obs.Progress) (string, error) {
	cells, err := experiments.CellsInOrder(ctx, prog, p.cells, func(i int) (C, error) {
		return p.run(ctx, i, prog)
	})
	if err != nil {
		return "", err
	}
	return p.merge(cells)
}

func (p *cellPlan[C]) RunCell(ctx context.Context, i int, prog *obs.Progress) ([]byte, error) {
	cell, err := p.run(ctx, i, prog)
	if err != nil {
		return nil, err
	}
	return p.encode(cell)
}

func (p *cellPlan[C]) Merge(frames [][]byte) (string, error) {
	cells := make([]C, len(frames))
	for i, frame := range frames {
		var err error
		if cells[i], err = p.decode(frame); err != nil {
			return "", fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	return p.merge(cells)
}

// engineFamily builds a table entry from an engine's per-cell API — engine
// E, spec S, prepared plan P, cell C, result R — so an entry only names the
// engine's functions and where the spec keeps its name and its three
// defaulted fields. Every plan gets an engine of its own: whatever an engine
// pools (the robustness engine's trial runners) is sized for one spec and
// lives as long as that spec's plan, not as long as the process.
func engineFamily[E, S any, P interface{ NumCells() int }, C any, R interface{ Write(io.Writer) }](
	name, route, noun string,
	fields func(*S) (name string, seed *int64, workloads *campaign.WorkloadAxis, trials *int),
	engine func() E,
	prepare func(E, S) (P, error),
	run func(E, context.Context, P, int, *obs.Progress) (C, error),
	encode func(C) ([]byte, error),
	decode func([]byte) (C, error),
	merge func(P, []C) (R, error),
) *Family {
	return &Family{Name: name, Route: route, Noun: noun, Prepare: func(data []byte, d Defaults) (Plan, error) {
		var spec S
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("service: %s spec: %w", noun, err)
		}
		label, seed, workloads, trials := fields(&spec)
		d.fill(seed, workloads, trials)
		eng := engine()
		p, err := prepare(eng, spec)
		if err != nil {
			return nil, err
		}
		canonical, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		return &cellPlan[C]{
			label: label, spec: canonical, cells: p.NumCells(),
			run: func(ctx context.Context, i int, prog *obs.Progress) (C, error) {
				return run(eng, ctx, p, i, prog)
			},
			encode: encode, decode: decode,
			merge: func(cells []C) (string, error) {
				res, err := merge(p, cells)
				if err != nil {
					return "", err
				}
				var buf bytes.Buffer
				res.Write(&buf)
				return buf.String(), nil
			},
		}, nil
	}}
}

// Families returns the built-in table — campaigns, robustness studies,
// online arrivals — over one model source.
func Families(src campaign.ModelSource, workers int) []*Family {
	return []*Family{
		engineFamily("campaign", "campaigns", "campaign",
			func(s *campaign.Spec) (string, *int64, *campaign.WorkloadAxis, *int) {
				return s.Name, &s.Seed, &s.Workloads, &s.Trials
			},
			func() *campaign.Engine { return &campaign.Engine{Source: src, Workers: workers} },
			(*campaign.Engine).Prepare,
			func(e *campaign.Engine, ctx context.Context, p *campaign.Prepared, i int, _ *obs.Progress) (campaign.CellScore, error) {
				return e.RunCellIndex(ctx, p, i)
			},
			campaign.EncodeCell, campaign.DecodeCell, campaign.Merge),
		engineFamily("robust", "robustness", "robustness study",
			func(s *robust.Spec) (string, *int64, *campaign.WorkloadAxis, *int) {
				return s.Name, &s.Seed, &s.Workloads, &s.Trials
			},
			func() *robust.Engine { return &robust.Engine{Source: src, Workers: workers} },
			(*robust.Engine).Prepare, (*robust.Engine).RunCellIndex,
			robust.EncodeCell, robust.DecodeCell, robust.Merge),
		engineFamily("arrival", "arrivals", "arrival scenario",
			func(s *arrival.Spec) (string, *int64, *campaign.WorkloadAxis, *int) {
				return s.Name, &s.Seed, &s.Workloads, &s.Trials
			},
			func() *arrival.Engine { return &arrival.Engine{Source: src, Workers: workers} },
			(*arrival.Engine).Prepare,
			func(e *arrival.Engine, ctx context.Context, p *arrival.Prepared, i int, _ *obs.Progress) (arrival.CellJobs, error) {
				return e.RunCellIndex(ctx, p, i)
			},
			arrival.EncodeCell, arrival.DecodeCell, arrival.Merge),
	}
}

// The typed entry points: each is the generic submit or run applied to one
// family's spec.

// SubmitCampaign validates a declarative what-if sweep and queues it as an
// async job (kind "campaign" or "campaign:<name>"). Invalid specs — unknown
// axis values, empty grids, grids beyond the campaign limits — are rejected
// up front as bad requests, before any fitting campaign runs.
func (s *Service) SubmitCampaign(spec campaign.Spec) (JobStatus, error) {
	return s.submitSpec("campaign", spec)
}

// RunCampaign executes a campaign synchronously against the service's
// fit-once registry and returns the rendered report. Derived platforms are
// registered under deterministic names, so repeated campaigns (and plain
// schedule requests against the same derived platforms) reuse the fits.
func (s *Service) RunCampaign(ctx context.Context, spec campaign.Spec) (string, error) {
	return s.runSpec(ctx, "campaign", spec)
}

// SubmitRobustness validates a Monte Carlo robustness study and queues it
// as an async job (kind "robust" or "robust:<name>"). Invalid specs — bad
// campaign axes, bad noise dimensions, trial budgets beyond the limits —
// are rejected up front as bad requests, before any fitting or trials run.
func (s *Service) SubmitRobustness(spec robust.Spec) (JobStatus, error) {
	return s.submitSpec("robust", spec)
}

// RunRobustness executes a robustness study synchronously against the
// service's fit-once registry and returns the rendered report: the base
// campaign (byte-identical to submitting it as a plain campaign) followed
// by the winner-stability sections.
func (s *Service) RunRobustness(ctx context.Context, spec robust.Spec) (string, error) {
	return s.runSpec(ctx, "robust", spec)
}

// SubmitArrival validates an online-arrival scenario and queues it as an
// async job (kind "arrival" or "arrival:<name>"). Invalid specs — unknown
// axes, bad processes, unloadable traces, impossible partition geometry —
// are rejected up front as bad requests, before any fitting campaign runs.
func (s *Service) SubmitArrival(spec arrival.Spec) (JobStatus, error) {
	return s.submitSpec("arrival", spec)
}

// RunArrival executes an online-arrival scenario synchronously against the
// service's fit-once registry and returns the rendered report.
func (s *Service) RunArrival(ctx context.Context, spec arrival.Spec) (string, error) {
	return s.runSpec(ctx, "arrival", spec)
}
