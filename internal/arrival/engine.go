package arrival

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/stats"
)

// Arrival telemetry: scenario cells completed (one cell = one algorithm's
// full arrival sequence). Write-only, like every other counter.
var cellsCompleted = obs.Default.Counter("repro_arrival_cells_completed_total",
	"Online-arrival scenario cells (one algorithm each) fully measured.")

// Engine executes online-arrival scenarios against the fit-once model
// registry. Each algorithm is one cell: the whole arrival sequence is
// scheduled and measured under that algorithm on the experiments worker
// pool, then the FCFS queueing simulation and the report derive from the
// per-job service times alone — so the monolithic Run and the cell-sharded
// path produce byte-identical reports by construction.
type Engine struct {
	// Source supplies ground truths and registry-cached fitted models.
	Source campaign.ModelSource
	// Workers bounds the per-cell worker pool (<= 0: one per CPU).
	// Reports are byte-identical for every value.
	Workers int
	// Progress, when non-nil, receives live cell counts. Write-only.
	Progress *obs.Progress
}

// Prepared is a resolved scenario plan ready for per-cell execution: the
// expanded plan plus the environment-dependent partition geometry.
type Prepared struct {
	Plan *Plan
	// Partition is the resolved nodes-per-job (the spec value, or half the
	// cluster), Nodes the cluster size, Slots = Nodes/Partition the
	// concurrent-job capacity.
	Partition, Nodes, Slots int
}

// NumCells returns the scenario's cell count: one per algorithm.
func (p *Prepared) NumCells() int { return len(p.Plan.Algorithms) }

// CellJobs is one cell's outcome: the per-job predicted (simulated) and
// measured service times for one algorithm, in arrival order. It is the
// unit that travels between replicas in sharded execution.
type CellJobs struct {
	Algorithm string
	// Pred[j] is job j's model-predicted makespan; Service[j] the makespan
	// measured on the emulated partition.
	Pred, Service []float64
}

// Prepare expands, validates and resolves a scenario against the engine's
// model source. Deterministic: every replica preparing the same spec gets
// an identical Prepared.
func (e *Engine) Prepare(spec Spec) (*Prepared, error) {
	if e.Source == nil {
		return nil, fmt.Errorf("arrival: engine has no model source")
	}
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	truth, err := e.Source.Environment(plan.Spec.Environment)
	if err != nil {
		return nil, err
	}
	nodes := truth.Cluster.Nodes
	part := plan.Spec.Partition
	if part == 0 {
		part = nodes / 2
		if part < 1 {
			part = 1
		}
	}
	if part > nodes {
		return nil, fmt.Errorf("arrival: partition %d exceeds the %d-node cluster", part, nodes)
	}
	return &Prepared{Plan: plan, Partition: part, Nodes: nodes, Slots: nodes / part}, nil
}

// RunCellIndex executes one cell: every job of the arrival sequence is
// scheduled with the cell's algorithm on a partition-sized cluster, its
// makespan simulated under the fitted model and measured on a private
// deterministic noise session of the emulated partition.
func (e *Engine) RunCellIndex(ctx context.Context, p *Prepared, index int) (CellJobs, error) {
	if index < 0 || index >= p.NumCells() {
		return CellJobs{}, fmt.Errorf("arrival: cell index %d outside [0, %d)", index, p.NumCells())
	}
	plan := p.Plan
	algo := plan.Algorithms[index]
	env := plan.Spec.Environment
	truth, err := e.Source.Environment(env)
	if err != nil {
		return CellJobs{}, err
	}
	// Jobs run on a partition of the cluster: same nodes, same hidden
	// curves, fewer of them. The model stays the full environment's fit —
	// allocations never exceed the partition, so it is evaluated strictly
	// inside its fitted range.
	part := truth
	if p.Partition != truth.Cluster.Nodes {
		h := *truth
		h.Cluster = truth.Cluster.Scaled(p.Partition)
		part = &h
	}
	em, err := cluster.NewEmulator(part, plan.Spec.Seed)
	if err != nil {
		return CellJobs{}, fmt.Errorf("arrival: partition of %s: %w", env, err)
	}
	net, err := simgrid.NewNet(part.Cluster)
	if err != nil {
		return CellJobs{}, fmt.Errorf("arrival: partition of %s: %w", env, err)
	}
	model, _, err := e.Source.GetModel(env, plan.Model, plan.Spec.Seed)
	if err != nil {
		return CellJobs{}, fmt.Errorf("arrival: fit %s/%s: %w", env, plan.Model, err)
	}
	scheduler, err := sched.ByName(algo)
	if err != nil {
		return CellJobs{}, err
	}
	algos := []sched.Algorithm{scheduler}
	pass := experiments.NewPass(em, net, model, plan.Spec.Seed, plan.Spec.Trials)

	cell := CellJobs{
		Algorithm: algo,
		Pred:      make([]float64, len(plan.Times)),
		Service:   make([]float64, len(plan.Times)),
	}
	study := "arrival/" + env + "/" + algo
	err = experiments.ForEachCellCtx(ctx, e.Workers, len(plan.Times), func(j int) error {
		g := plan.Classes[j%len(plan.Classes)].Graph
		if err := pass.Score(g, algos, pass.Session(study, j), cell.Pred[j:j+1], cell.Service[j:j+1], nil); err != nil {
			return fmt.Errorf("arrival: %s: %w", study, err)
		}
		return nil
	})
	if err != nil {
		return CellJobs{}, err
	}
	cellsCompleted.Inc()
	return cell, nil
}

// Run prepares and executes the whole scenario: all cells in plan order,
// then Merge. The sharded path (RunCellIndex per replica + Merge) produces
// the identical result.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	p, err := e.Prepare(spec)
	if err != nil {
		return nil, err
	}
	cells, err := experiments.CellsInOrder(ctx, e.Progress, p.NumCells(), func(i int) (CellJobs, error) {
		return e.RunCellIndex(ctx, p, i)
	})
	if err != nil {
		return nil, err
	}
	return Merge(p, cells)
}

// Merge folds per-cell outcomes — in plan-index order — into the final
// Result: the FCFS queueing simulation replays every algorithm's measured
// service times over the shared arrival sequence and derives the online
// metrics. Pure computation over (plan, cells): no measurement, no
// randomness, no replica-dependent state.
func Merge(p *Prepared, cells []CellJobs) (*Result, error) {
	if len(cells) != p.NumCells() {
		return nil, fmt.Errorf("arrival: merge got %d cells, plan has %d", len(cells), p.NumCells())
	}
	res := &Result{Prepared: p, Cells: cells}
	for i, cell := range cells {
		if cell.Algorithm != p.Plan.Algorithms[i] {
			return nil, fmt.Errorf("arrival: cell %d is %q, plan wants %q", i, cell.Algorithm, p.Plan.Algorithms[i])
		}
		if len(cell.Service) != len(p.Plan.Times) || len(cell.Pred) != len(p.Plan.Times) {
			return nil, fmt.Errorf("arrival: cell %d has %d jobs, plan has %d", i, len(cell.Service), len(p.Plan.Times))
		}
		m, err := scoreCell(p, cell)
		if err != nil {
			return nil, err
		}
		res.Algos = append(res.Algos, m)
	}
	return res, nil
}

// AlgoMetrics is one algorithm's online scorecard over the scenario.
type AlgoMetrics struct {
	Algorithm string
	// Horizon is when the last job finishes (seconds from scenario start).
	Horizon float64
	// WaitP50/P90/Max summarise queueing delay (start − arrival) in
	// seconds; WaitMean is its average.
	WaitMean, WaitP50, WaitP90, WaitMax float64
	// StretchP50/P90/Max summarise makespan stretch: (finish − arrival) /
	// service, 1 = ran immediately with no queueing.
	StretchP50, StretchP90, StretchMax float64
	// Utilisation is the busy fraction of the whole cluster over the
	// horizon, in percent.
	Utilisation float64
	// Throughput is completed jobs per hour of horizon.
	Throughput float64
	// Fairness is Jain's index over per-job stretches (1 = perfectly even).
	Fairness float64
	// MedianErrPct and P90ErrPct summarise the model's service-time
	// prediction error |measured − predicted|/predicted, in percent.
	MedianErrPct, P90ErrPct float64
}

// scoreCell replays one algorithm's service times through the FCFS queue
// and computes its metrics.
func scoreCell(p *Prepared, cell CellJobs) (AlgoMetrics, error) {
	for j, sv := range cell.Service {
		if sv <= 0 || math.IsInf(sv, 0) || math.IsNaN(sv) {
			return AlgoMetrics{}, fmt.Errorf("arrival: %s job %d has invalid service time %v", cell.Algorithm, j, sv)
		}
	}
	starts := simulateQueue(p.Plan.Times, cell.Service, p.Slots)
	n := len(starts)
	waits := make([]float64, n)
	stretches := make([]float64, n)
	errs := make([]float64, n)
	horizon, busy, waitSum := 0.0, 0.0, 0.0
	for j := range starts {
		fin := starts[j] + cell.Service[j]
		if fin > horizon {
			horizon = fin
		}
		waits[j] = starts[j] - p.Plan.Times[j]
		waitSum += waits[j]
		stretches[j] = (fin - p.Plan.Times[j]) / cell.Service[j]
		errs[j] = stats.SimErrPct(cell.Pred[j], cell.Service[j])
		busy += cell.Service[j]
	}
	m := AlgoMetrics{
		Algorithm:    cell.Algorithm,
		Horizon:      horizon,
		WaitMean:     waitSum / float64(n),
		WaitP50:      stats.Median(waits),
		WaitP90:      stats.Quantile(waits, 0.90),
		WaitMax:      stats.Quantile(waits, 1),
		StretchP50:   stats.Median(stretches),
		StretchP90:   stats.Quantile(stretches, 0.90),
		StretchMax:   stats.Quantile(stretches, 1),
		Throughput:   float64(n) / horizon * 3600,
		Fairness:     jain(stretches),
		MedianErrPct: stats.Median(errs),
		P90ErrPct:    stats.Quantile(errs, 0.90),
	}
	// Busy node-seconds over available node-seconds: jobs hold Partition
	// nodes for their service time; Slots*Partition nodes serve (the
	// remainder nodes, if Partition does not divide the cluster, never
	// host jobs and count as idle capacity).
	m.Utilisation = 100 * busy * float64(p.Partition) / (float64(p.Nodes) * horizon)
	return m, nil
}

// simulateQueue replays the FCFS space-shared queue: jobs start in arrival
// order on the earliest-free of the partition slots, never before their
// arrival. Ties pick the lowest slot index, so the replay is fully
// deterministic.
func simulateQueue(times, service []float64, slots int) []float64 {
	free := make([]float64, slots)
	starts := make([]float64, len(times))
	for j := range times {
		k := 0
		for i := 1; i < slots; i++ {
			if free[i] < free[k] {
				k = i
			}
		}
		start := times[j]
		if free[k] > start {
			start = free[k]
		}
		starts[j] = start
		free[k] = start + service[j]
	}
	return starts
}

// jain returns Jain's fairness index (Σx)²/(n·Σx²) over positive values:
// 1 when all are equal, approaching 1/n as one value dominates.
func jain(xs []float64) float64 {
	sum, sq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Result is a completed scenario: the prepared plan, every cell's raw
// per-job outcomes, and the derived per-algorithm metrics. Write renders
// the deterministic report.
type Result struct {
	Prepared *Prepared
	Cells    []CellJobs
	Algos    []AlgoMetrics
}

// EncodeCell serializes one cell's outcome for transport between replicas.
func EncodeCell(c CellJobs) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("arrival: encode cell: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCell reverses EncodeCell.
func DecodeCell(data []byte) (CellJobs, error) {
	var c CellJobs
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return CellJobs{}, fmt.Errorf("arrival: decode cell: %w", err)
	}
	return c, nil
}
