package robust

// The per-cell face of the robustness engine, mirroring campaign's, and the
// only way it executes anything. One cell = the base campaign scoring of one
// grid cell plus its Monte Carlo stabilisation — the Raw retention that
// stabilizeCell needs never outlives the cell or leaves the replica that
// scored it, which is what makes cell-granular sharding cheap: result frames
// carry only the aggregated scores and stability records.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Prepared is a resolved robustness plan ready for per-cell execution.
type Prepared struct {
	Plan *Plan
	Camp *campaign.Prepared
}

// Prepare expands and canonicalises a spec without executing anything.
func (e *Engine) Prepare(spec Spec) (*Prepared, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	if e.Source == nil {
		return nil, fmt.Errorf("robust: engine has no model source")
	}
	camp, err := e.cellEngine(false).Prepare(plan.Spec.Spec)
	if err != nil {
		return nil, err
	}
	return &Prepared{Plan: plan, Camp: camp}, nil
}

// NumCells is the grid size — the number of shardable work-units.
func (p *Prepared) NumCells() int { return p.Camp.NumCells() }

// cellEngine is the inner campaign engine for per-cell scoring. With keep it
// retains the cell's raw makespans and schedules — stabilisation consumes
// them in-process — which are stripped before the cell result is returned.
func (e *Engine) cellEngine(keep bool) *campaign.Engine {
	return &campaign.Engine{Source: e.Source, Workers: e.Workers, Keep: keep}
}

// CellResult is one cell's complete outcome: the base campaign score
// (Raw stripped) plus, when the spec draws trials, its stability record.
type CellResult struct {
	Score campaign.CellScore
	Stab  CellStability
	// HasStab distinguishes a trials == 0 cell from a zero-value record.
	HasStab bool
}

// RunCellIndex scores and stabilises one grid cell; the outcome depends only
// on (plan, i). Trial counts flow through prog (nil is fine), so
// cross-replica job progress can aggregate per-cell snapshots.
func (e *Engine) RunCellIndex(ctx context.Context, p *Prepared, i int, prog *obs.Progress) (CellResult, error) {
	trials := p.Plan.Spec.Robustness.Trials
	score, err := e.cellEngine(trials > 0).RunCellIndex(ctx, p.Camp, i)
	if err != nil {
		return CellResult{}, err
	}
	if trials == 0 {
		return CellResult{Score: score}, nil
	}
	cp := p.Camp.Plan
	pt, wp, kind := p.Camp.CellPoint(i)
	stab, err := e.stabilizeCell(ctx, p.Plan, cp, pt, wp, kind, &score, prog)
	if err != nil {
		return CellResult{}, err
	}
	robustCellsCompleted.Inc()
	score.Raw = nil
	return CellResult{Score: score, Stab: stab, HasStab: true}, nil
}

// Merge assembles per-cell results — in plan-index order — into the Result.
func Merge(p *Prepared, cells []CellResult) (*Result, error) {
	if len(cells) != p.NumCells() {
		return nil, fmt.Errorf("robust: merge got %d cells, plan has %d", len(cells), p.NumCells())
	}
	res := &Result{Plan: p.Plan, Base: &campaign.Result{Plan: p.Camp.Plan}}
	res.Base.Cells = make([]campaign.CellScore, len(cells))
	for i, c := range cells {
		res.Base.Cells[i] = c.Score
		if c.HasStab {
			res.Cells = append(res.Cells, c.Stab)
		}
	}
	return res, nil
}

// EncodeCell serialises one cell result as a result frame. Stability records
// carry NaN sentinels (never-flipped criticals, sub-2-trial CI halves), so
// frames are gob, not JSON.
func EncodeCell(c CellResult) ([]byte, error) {
	c.Score.Raw = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, fmt.Errorf("robust: encode cell: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCell is the inverse of EncodeCell.
func DecodeCell(data []byte) (CellResult, error) {
	var c CellResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		return CellResult{}, fmt.Errorf("robust: decode cell: %w", err)
	}
	return c, nil
}
