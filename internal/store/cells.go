package store

// Cell-sharded execution: the durable work-units that let N replicas
// cooperate on one campaign/robustness job. The replica that claims the job
// (the coordinator) plans one cell per grid cell with PlanCells; every
// replica — coordinator included — then claims cells by lease with
// expiry-and-reclaim, exactly like jobs, and appends a serialized result
// frame per cell. The coordinator gathers CellResults in plan-index order,
// so the merged report is byte-identical no matter which replica ran which
// cell, or when.
//
// Fencing rules mirror the job pool with one deliberate exception: a cell
// result (recCellDone) is accepted from ANY holder, first write wins. Cell
// execution is deterministic, so a reclaimed-then-revived holder racing the
// reclaimer produces a byte-identical frame; accepting the first keeps the
// state machine simple and makes the duplicate a no-op instead of a
// conflict.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// CellRecord is the durable view of one cell work-unit of a sharded job.
type CellRecord struct {
	Job    string `json:"job"`
	Index  int    `json:"index"`
	State  string `json:"state"`
	Holder string `json:"holder,omitempty"`
	// LeaseExpiry is when the holder's cell lease lapses; an expired running
	// cell is claimable by any replica.
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
	// Result is the serialized cell-result frame (opaque to the store).
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress is the holder's last renewed snapshot while running, and the
	// final snapshot once done; it feeds cross-replica job progress.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	// Restarts counts lease takeovers of this cell; a claim after a graceful
	// ReleaseCell is none.
	Restarts int `json:"restarts,omitempty"`
}

// applyCellLocked folds one cell record into the in-memory state; the cell
// half of applyLocked's state machine.
func (s *Store) applyCellLocked(rec *record) {
	if rec.Type == recCellPlan {
		j, ok := s.st.jobs[rec.Job]
		if !ok || terminal(j.State) {
			return
		}
		if _, ok := s.st.cells[rec.Job]; ok {
			return // replanning after a coordinator restart is a no-op
		}
		cells := make([]*CellRecord, rec.CellN)
		for i := range cells {
			cells[i] = &CellRecord{Job: rec.Job, Index: i, State: StateQueued}
		}
		s.st.setPlan(rec.Job, cells)
		s.woke = true
		return
	}
	cells := s.st.cells[rec.Job]
	if rec.Cell < 0 || rec.Cell >= len(cells) {
		return // plan gone (job finished) or a corrupt index: ignore
	}
	c := cells[rec.Cell]
	switch rec.Type {
	case recCellClaim:
		if terminal(c.State) {
			return
		}
		if takeover(c.State, c.Holder, rec.Holder) {
			c.Restarts++
			c.Progress = nil // the takeover restarts the cell from scratch
		}
		c.Holder = rec.Holder
		c.LeaseExpiry = time.Unix(0, rec.Expiry)
		c.State = StateRunning
	case recCellRenew:
		if c.State != StateRunning || c.Holder != rec.Holder {
			return
		}
		c.LeaseExpiry = time.Unix(0, rec.Expiry)
		if rec.Prog != nil {
			p := *rec.Prog
			c.Progress = &p
		}
	case recCellDone:
		if terminal(c.State) {
			return // first write wins; duplicates are byte-identical
		}
		if rec.Error != "" {
			c.State = StateFailed
		} else {
			c.State = StateDone
		}
		c.Holder = rec.Holder
		c.Result = rec.Data
		c.Error = rec.Error
		if rec.Prog != nil {
			p := *rec.Prog
			c.Progress = &p
		}
		// The coordinator can act on exactly two results: the one that fails
		// its job and the one that completes its plan.
		s.st.cellsLeft[rec.Job]--
		if c.State == StateFailed || s.st.cellsLeft[rec.Job] == 0 {
			s.woke = true
		}
	case recCellRelease:
		if c.State != StateRunning || c.Holder != rec.Holder {
			return
		}
		// Back to the queue with an already-expired lease, immediately
		// claimable; partial progress is abandoned with the lease.
		c.State = StateQueued
		c.LeaseExpiry = time.Unix(0, rec.T)
		c.Progress = nil
		s.woke = true
	}
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

// claimableCell mirrors claimable for cells.
func claimableCell(c *CellRecord, now time.Time) bool {
	switch c.State {
	case StateQueued:
		return c.Holder == "" || !c.LeaseExpiry.After(now)
	case StateRunning:
		return !c.LeaseExpiry.After(now)
	}
	return false
}

// cellCandidateLocked scans for the best claimable cell: sticky to the
// holder's own previous cells first, then job submission order and cell
// index (the deterministic plan order). onlyJob restricts the scan to one
// job's cells; (exJob, exCell) excludes a cell mid-completion.
func (s *Store) cellCandidateLocked(holder, onlyJob string, now time.Time, exJob string, exCell int) *CellRecord {
	var best *CellRecord
	for _, id := range s.st.live {
		if onlyJob != "" && id != onlyJob {
			continue
		}
		cells, ok := s.st.cells[id]
		if !ok {
			continue
		}
		for _, c := range cells {
			if c.Job == exJob && c.Index == exCell {
				continue
			}
			if !claimableCell(c, now) {
				continue
			}
			if best == nil || (c.Holder == holder && best.Holder != holder) {
				best = c
			}
		}
	}
	return best
}

// nextCellLocked is cellCandidateLocked for a claim: a candidate the claim
// would take over past MaxRestarts is failed as poisoned, and the next one
// considered.
func (s *Store) nextCellLocked(holder, onlyJob string, now time.Time, exJob string, exCell int) (*CellRecord, error) {
	for {
		c := s.cellCandidateLocked(holder, onlyJob, now, exJob, exCell)
		if c == nil || !poisoned(c.State, c.Holder, c.Restarts, holder) {
			return c, nil
		}
		if err := s.appendLocked(&record{
			Type: recCellDone, Job: c.Job, Cell: c.Index, Holder: c.Holder, Error: poisonError,
		}, unsynced); err != nil {
			return nil, err
		}
		poisonings.Inc()
	}
}

// ClaimCell hands the caller at most one claimable cell under a fresh lease
// (holder, now+ttl). onlyJob != "" restricts the claim to that job's cells —
// the coordinator's gather loop uses it to drain its own job.
func (s *Store) ClaimCell(holder string, ttl time.Duration, onlyJob string) (CellRecord, bool, error) {
	var out CellRecord
	claimed := false
	err := s.withLock(func() error {
		now := s.now()
		best, err := s.nextCellLocked(holder, onlyJob, now, "", -1)
		if best == nil || err != nil {
			return err
		}
		reclaim := takeover(best.State, best.Holder, holder)
		if err := s.appendLocked(&record{
			Type: recCellClaim, Job: best.Job, Cell: best.Index,
			Holder: holder, Expiry: now.Add(ttl).UnixNano(),
		}, unsynced); err != nil {
			return err
		}
		cellClaims.Inc()
		if reclaim {
			cellReclaims.Inc()
		}
		out = *best
		claimed = true
		return nil
	})
	return out, claimed, err
}

// RenewCell extends the caller's cell lease by ttl and records the cell's
// latest progress snapshot (nil to leave it unchanged). ErrLeaseLost means
// another replica took the cell over — or the job finished and the plan was
// dropped — and the caller must abandon the cell.
func (s *Store) RenewCell(job string, cell int, holder string, ttl time.Duration, prog *obs.ProgressSnapshot) error {
	return s.withLock(func() error {
		cells := s.st.cells[job]
		if cell < 0 || cell >= len(cells) {
			return ErrLeaseLost
		}
		c := cells[cell]
		if c.State != StateRunning || c.Holder != holder {
			return ErrLeaseLost
		}
		if err := s.appendLocked(&record{
			Type: recCellRenew, Job: job, Cell: cell, Holder: holder,
			Expiry: s.now().Add(ttl).UnixNano(), Prog: prog,
		}, unsynced); err != nil {
			return err
		}
		leaseRenewals.Inc()
		return nil
	})
}

// CompleteCellAndClaim finishes one cell (done when errMsg is empty, failed
// otherwise) and, when claimNext is set, claims the holder's next cell in
// the same batched append — one WriteAt, one fsync — so a replica chewing
// through a grid pays one sync per cell, not two. The completion is written
// even if the caller's lease was taken over (first write wins; see the
// package comment), but skipped if the cell already has a result.
func (s *Store) CompleteCellAndClaim(job string, cell int, holder string, data []byte, errMsg string,
	prog *obs.ProgressSnapshot, claimNext bool, onlyJob string, ttl time.Duration) (CellRecord, bool, error) {
	var next CellRecord
	claimed := false
	err := s.withLock(func() error {
		now := s.now()
		cells := s.st.cells[job]
		if cell < 0 || cell >= len(cells) {
			// The job finished and its plan was dropped while we raced to
			// complete; the caller abandons the (already merged) result.
			return fmt.Errorf("store: job %s has no cell %d", job, cell)
		}
		var recs []*record
		if !terminal(cells[cell].State) {
			recs = append(recs, &record{
				Type: recCellDone, Job: job, Cell: cell, Holder: holder,
				Data: data, Error: errMsg, Prog: prog,
			})
		}
		var best *CellRecord
		reclaim := false
		if claimNext {
			var err error
			if best, err = s.nextCellLocked(holder, onlyJob, now, job, cell); err != nil {
				return err
			}
			if best != nil {
				reclaim = takeover(best.State, best.Holder, holder)
				recs = append(recs, &record{
					Type: recCellClaim, Job: best.Job, Cell: best.Index,
					Holder: holder, Expiry: now.Add(ttl).UnixNano(),
				})
			}
		}
		if err := s.appendBatchLocked(recs, unsynced); err != nil {
			return err
		}
		if best != nil {
			cellClaims.Inc()
			if reclaim {
				cellReclaims.Inc()
			}
			next = *best
			claimed = true
		}
		return nil
	})
	return next, claimed, err
}

// ReleaseCell gives a running cell back to the queue — the graceful-shutdown
// path, mirroring Release for jobs.
func (s *Store) ReleaseCell(job string, cell int, holder string) error {
	return s.withLock(func() error {
		cells := s.st.cells[job]
		if cell < 0 || cell >= len(cells) {
			return ErrLeaseLost
		}
		c := cells[cell]
		if c.State != StateRunning || c.Holder != holder {
			return ErrLeaseLost
		}
		return s.appendLocked(&record{Type: recCellRelease, Job: job, Cell: cell, Holder: holder}, unsynced)
	})
}

// Cells returns the cell plan of a job in index order; ok is false when the
// job has no (live) plan.
func (s *Store) Cells(job string) ([]CellRecord, bool, error) {
	var out []CellRecord
	found := false
	err := s.withLock(func() error {
		cells, ok := s.st.cells[job]
		if !ok {
			return nil
		}
		found = true
		out = make([]CellRecord, len(cells))
		for i, c := range cells {
			out[i] = *c
		}
		return nil
	})
	return out, found, err
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
	sum := CellSummary{FailedCell: -1}
	found := false
	err := s.withLock(func() error {
		cells, ok := s.st.cells[job]
		if !ok {
			return nil
		}
		found = true
		sum.Total = len(cells)
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
		return nil
	})
	return sum, found, err
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
