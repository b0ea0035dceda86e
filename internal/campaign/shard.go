package campaign

// The per-cell face of the engine, and the only way it executes anything.
// Prepare resolves the canonical plan once, RunCellIndex executes single
// cells by plan index — in one process (Run) or on any replica of a cluster —
// and Merge reassembles the cells, in plan-index order, into the Result. The
// determinism argument: noise sessions are pure functions of (seed, study,
// instance), so every cell's fresh emulator hands out the same sessions no
// matter where or in which order the cell runs, and every cross-cell input
// (plan, models, suites) is resolved identically by every replica through
// resolvePlan.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/simgrid"
)

// Prepared is a resolved campaign plan ready for per-cell execution.
type Prepared struct {
	Plan *Plan
}

// Prepare expands and canonicalises a spec without executing anything. Every
// replica preparing the same spec against an equivalent model source
// resolves the identical plan.
func (e *Engine) Prepare(spec Spec) (*Prepared, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	if err := e.resolvePlan(plan); err != nil {
		return nil, err
	}
	return &Prepared{Plan: plan}, nil
}

// NumCells is the grid size — the number of shardable work-units.
func (p *Prepared) NumCells() int { return p.Plan.Cells() }

// CellPoint maps a plan index to its (platform, workload, model) coordinates:
// platforms outermost, then workloads, models varying fastest.
func (p *Prepared) CellPoint(i int) (PlatformPoint, WorkloadPoint, string) {
	nw, nm := len(p.Plan.Workloads), len(p.Plan.Models)
	return p.Plan.Platforms[i/(nw*nm)], p.Plan.Workloads[(i/nm)%nw], p.Plan.Models[i%nm]
}

// RunCellIndex scores one grid cell of a prepared plan; the outcome depends
// only on (plan, i). It is safe to call concurrently and from different
// replicas for different indices. The registry lookup is one per cell,
// amortized over the cell's algorithm runs: repeated cells (and repeated
// campaigns against the same registry) are cache hits.
func (e *Engine) RunCellIndex(ctx context.Context, p *Prepared, i int) (CellScore, error) {
	if i < 0 || i >= p.NumCells() {
		return CellScore{}, fmt.Errorf("campaign: cell index %d out of range [0,%d)", i, p.NumCells())
	}
	pt, wp, kind := p.CellPoint(i)
	truth, err := e.Source.Environment(pt.Env)
	if err != nil {
		return CellScore{}, err
	}
	em, err := cluster.NewEmulator(truth, p.Plan.Spec.Seed)
	if err != nil {
		return CellScore{}, fmt.Errorf("campaign: platform %s: %w", pt.Env, err)
	}
	net, err := simgrid.NewNet(truth.Cluster)
	if err != nil {
		return CellScore{}, fmt.Errorf("campaign: platform %s: %w", pt.Env, err)
	}
	suite, err := wp.Instances()
	if err != nil {
		return CellScore{}, err
	}
	if len(suite) == 0 {
		return CellScore{}, fmt.Errorf("campaign: workload %s selects no suite instances", wp.Key())
	}
	model, _, err := e.Source.GetModel(pt.Env, kind, p.Plan.Spec.Seed)
	if err != nil {
		return CellScore{}, fmt.Errorf("campaign: fit %s/%s: %w", pt.Env, kind, err)
	}
	pass := experiments.NewPass(em, net, model, p.Plan.Spec.Seed, p.Plan.Spec.Trials)
	cell, err := e.runCell(ctx, p.Plan, pt, wp, kind, suite, pass)
	if err != nil {
		return CellScore{}, err
	}
	if cell.Raw != nil {
		cell.Raw.in = CellInputs{Truth: truth, Net: net, Suite: suite, Model: model}
	}
	cellsCompleted.Inc()
	return cell, nil
}

// Merge assembles per-cell scores — in plan-index order — into the Result.
func Merge(p *Prepared, cells []CellScore) (*Result, error) {
	if len(cells) != p.NumCells() {
		return nil, fmt.Errorf("campaign: merge got %d cells, plan has %d", len(cells), p.NumCells())
	}
	return &Result{Plan: p.Plan, Cells: cells}, nil
}

// EncodeCell serialises one cell score as a result frame. Raw per-instance
// data never travels between replicas: gob would choke on nothing, but the
// frames would balloon and the merged report ignores Raw anyway.
func EncodeCell(c CellScore) ([]byte, error) {
	c.Raw = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, fmt.Errorf("campaign: encode cell: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCell is the inverse of EncodeCell.
func DecodeCell(data []byte) (CellScore, error) {
	var c CellScore
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return CellScore{}, fmt.Errorf("campaign: decode cell: %w", err)
	}
	return c, nil
}
