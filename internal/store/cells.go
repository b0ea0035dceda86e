package store

// Cell-sharded execution: the durable work-units that let N replicas
// cooperate on one campaign/robustness job. The replica that claims the job
// (the coordinator) plans one cell per grid cell with PlanCells; every
// replica — coordinator included — then claims cells under the same lease as
// jobs (lease.go) and appends a serialized result frame per cell. The
// coordinator gathers CellResults in plan-index order, so the merged report
// is byte-identical no matter which replica ran which cell, or when.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// CellRecord is the durable view of one cell work-unit of a sharded job.
type CellRecord struct {
	Job   string `json:"job"`
	Index int    `json:"index"`
	// The cell's lease (lease.go): its state, holder, expiry, the progress
	// snapshot last renewed with (the final one once done), and restarts.
	lease
	// Result is the serialized cell-result frame (opaque to the store).
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// PlanCells materialises n queued cell work-units for a live job. It is
// idempotent for a fixed n — the coordinator may restart and replan — and
// rejects a different n, which would mean two coordinators resolved the same
// payload to different grids.
func (s *Store) PlanCells(job string, n int) error {
	if n <= 0 {
		return fmt.Errorf("store: cell plan for %s must be positive, got %d", job, n)
	}
	return s.withLock(func() error {
		j, ok := s.st.jobs[job]
		if !ok {
			return fmt.Errorf("store: no such job %s", job)
		}
		if terminal(j.State) {
			return fmt.Errorf("store: job %s already %s", job, j.State)
		}
		if cells, ok := s.st.cells[job]; ok {
			if len(cells) != n {
				return fmt.Errorf("store: job %s planned with %d cells, replan wants %d", job, len(cells), n)
			}
			return nil
		}
		return s.appendLocked(&record{Type: recCellPlan, Job: job, CellN: n}, synced)
	})
}

// ClaimCell hands the caller at most one claimable cell under a fresh lease
// (holder, now+ttl). onlyJob != "" restricts the claim to that job's cells —
// the coordinator's gather loop uses it to drain its own job.
func (s *Store) ClaimCell(holder string, ttl time.Duration, onlyJob string) (CellRecord, bool, error) {
	return locked(s, func() (CellRecord, bool, error) { return s.claimCellLocked(holder, ttl, onlyJob, nil) })
}

// claimCellLocked claims the holder's next cell, of onlyJob's alone when it is
// set and never except, appending the claim behind front.
func (s *Store) claimCellLocked(holder string, ttl time.Duration, onlyJob string, except *CellRecord, front ...*record) (CellRecord, bool, error) {
	job, cell, ok, err := s.claimLocked(&cellKind, holder, ttl, func(holder string, now time.Time) (string, int, *lease) {
		return s.cellCandidateLocked(holder, onlyJob, except, now)
	}, front...)
	if !ok {
		return CellRecord{}, false, err
	}
	return *s.st.cells[job][cell], true, nil
}

// cellCandidateLocked finds the cell a claim by holder takes: a claimable one
// of onlyJob (of any job when it is ""), other than except; the holder's own
// previous cells first, then job submission order and cell index (the
// deterministic plan order).
func (s *Store) cellCandidateLocked(holder, onlyJob string, except *CellRecord, now time.Time) (string, int, *lease) {
	var best *CellRecord
	for _, id := range s.st.live {
		if onlyJob != "" && id != onlyJob {
			continue
		}
		for _, c := range s.st.cells[id] {
			if c == except || !claimable(&c.lease, now) {
				continue
			}
			if best == nil || (c.Holder == holder && best.Holder != holder) {
				best = c
			}
		}
	}
	if best == nil {
		return "", 0, nil
	}
	return best.Job, best.Index, &best.lease
}

// CompleteCellAndClaim finishes one cell (done when errMsg is empty, failed
// otherwise) and, when claimNext is set, claims the holder's next cell in
// the same batched append — one write — so a replica chewing through a
// grid makes one store call per cell, not two. The completion is written
// even if the caller's lease was taken over (first write wins; see lease.go),
// but skipped if the cell already has a result.
func (s *Store) CompleteCellAndClaim(job string, cell int, holder string, data []byte, errMsg string,
	prog *obs.ProgressSnapshot, claimNext bool, onlyJob string, ttl time.Duration) (CellRecord, bool, error) {
	return locked(s, func() (CellRecord, bool, error) {
		c := s.st.cell(job, cell)
		if c == nil {
			// The job finished and its plan was dropped while we raced to
			// complete; the caller abandons the (already merged) result.
			return CellRecord{}, false, fmt.Errorf("store: job %s has no cell %d", job, cell)
		}
		var done []*record
		if !terminal(c.State) {
			rec := leaseRecord(recCellDone, job, cell, holder)
			rec.Data, rec.Error, rec.Prog = data, errMsg, prog
			done = append(done, rec)
		}
		if !claimNext {
			return CellRecord{}, false, s.appendBatchLocked(done, unsynced)
		}
		return s.claimCellLocked(holder, ttl, onlyJob, c, done...)
	})
}

// Cells returns the cell plan of a job in index order; ok is false when the
// job has no (live) plan.
func (s *Store) Cells(job string) ([]CellRecord, bool, error) {
	return locked(s, func() ([]CellRecord, bool, error) {
		cells, ok := s.st.cells[job]
		if !ok {
			return nil, false, nil
		}
		out := make([]CellRecord, len(cells))
		for i, c := range cells {
			out[i] = *c
		}
		return out, true, nil
	})
}

// CellSummary aggregates a sharded job's cross-replica progress: counts by
// state plus the summed progress snapshots of running and finished cells.
// The sums can decrease between calls — a reclaimed cell restarts from
// scratch — so consumers fold signed deltas, not absolutes.
type CellSummary struct {
	Total  int
	Done   int
	Failed int
	// FailedCell is the lowest failed index (-1 when Failed == 0) and Err
	// its error — the deterministic representative the coordinator reports.
	FailedCell  int
	Err         string
	TrialsUsed  int64
	TrialBudget int64
}

// CellSummary summarises the cell plan of a job; ok is false without one.
func (s *Store) CellSummary(job string) (CellSummary, bool, error) {
	return locked(s, func() (CellSummary, bool, error) {
		cells, ok := s.st.cells[job]
		sum := CellSummary{Total: len(cells), FailedCell: -1}
		for _, c := range cells {
			switch c.State {
			case StateDone:
				sum.Done++
			case StateFailed:
				sum.Failed++
				if sum.FailedCell < 0 {
					sum.FailedCell = c.Index
					sum.Err = c.Error
				}
			}
			if c.Progress != nil {
				sum.TrialsUsed += c.Progress.TrialsUsed
				sum.TrialBudget += c.Progress.TrialBudget
			}
		}
		return sum, ok, nil
	})
}

// CellResults returns every cell's serialized result frame in plan-index
// order — the deterministic merge order. It fails unless every cell is done.
func (s *Store) CellResults(job string) ([][]byte, error) {
	var out [][]byte
	err := s.withLock(func() error {
		cells, ok := s.st.cells[job]
		if !ok {
			return fmt.Errorf("store: job %s has no cell plan", job)
		}
		out = make([][]byte, len(cells))
		for i, c := range cells {
			if c.State != StateDone {
				return fmt.Errorf("store: job %s cell %d is %s, not done", job, i, c.State)
			}
			out[i] = append([]byte(nil), c.Result...)
		}
		return nil
	})
	return out, err
}
