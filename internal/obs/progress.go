package obs

import "sync/atomic"

// Progress is a live, lock-free progress record shared between a running job
// and its observers: the campaign/robustness engines add to it from worker
// goroutines (plain atomic adds — nothing the engines report feeds back into
// their outputs), and the job manager, the ?watch long-poll and the CLI
// ticker snapshot it concurrently.
//
// All methods are nil-safe, so engines instrument unconditionally and
// callers that don't track progress simply pass nil.
type Progress struct {
	cellsDone   atomic.Int64
	cellsTotal  atomic.Int64
	trialsUsed  atomic.Int64
	trialBudget atomic.Int64
}

// ProgressSnapshot is one consistent-enough read of a Progress, the
// "progress" object of GET /v1/jobs/{id}. Cells count the job plan's cells —
// cells_total is its NumCells, whichever backend runs it; trials count Monte
// Carlo perturbation draws against their budget.
type ProgressSnapshot struct {
	CellsDone   int64 `json:"cells_done"`
	CellsTotal  int64 `json:"cells_total"`
	TrialsUsed  int64 `json:"trials_used,omitempty"`
	TrialBudget int64 `json:"trial_budget,omitempty"`
}

// AddCellsTotal grows the expected cell count (each engine stage adds its
// own share up front).
func (p *Progress) AddCellsTotal(n int64) {
	if p != nil {
		p.cellsTotal.Add(n)
	}
}

// AddCellsDone records n completed cells.
func (p *Progress) AddCellsDone(n int64) {
	if p != nil {
		p.cellsDone.Add(n)
	}
}

// AddTrialBudget grows the Monte Carlo trial budget.
func (p *Progress) AddTrialBudget(n int64) {
	if p != nil {
		p.trialBudget.Add(n)
	}
}

// AddTrialsUsed records n executed trials.
func (p *Progress) AddTrialsUsed(n int64) {
	if p != nil {
		p.trialsUsed.Add(n)
	}
}

// Snapshot reads the current state. A nil Progress snapshots to the zero
// value.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		CellsDone:   p.cellsDone.Load(),
		CellsTotal:  p.cellsTotal.Load(),
		TrialsUsed:  p.trialsUsed.Load(),
		TrialBudget: p.trialBudget.Load(),
	}
}
