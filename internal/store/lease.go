package store

// The pool's one state machine: the WAL records and how they apply, and the
// lease, written once for jobs and for the cells of sharded jobs. Work is
// addressed as (job, cell), cell -1 meaning the job itself, and both kinds go
// through one claimable test, one claim with its take-over and restart-cap
// loop, one renewal, one release and one set of apply arms. What differs
// between the kinds is kept where it applies:
//
//   - kind: the record types each writes, and its sync policy — a job frame
//     is a commit point, a cell frame is not — and its claim counters;
//   - the claim order: jobCandidateLocked and cellCandidateLocked;
//   - a job claim stamps Started and a job release clears it, where a cell
//     takeover or release drops the cell's Progress;
//   - the end: a job's terminal record is fenced by holder, a cell's result
//     is first-write-wins (both in applyLeaseLocked): cell execution is
//     deterministic, so a revived holder racing its reclaimer writes a
//     byte-identical frame, and the duplicate is a no-op, not a conflict.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// record is one WAL entry.
type record struct {
	Seq  uint64 `json:"seq"`
	T    int64  `json:"t"`
	Type string `json:"type"`

	Job     string                `json:"job,omitempty"`
	Kind    string                `json:"kind,omitempty"`
	Payload json.RawMessage       `json:"payload,omitempty"`
	State   string                `json:"state,omitempty"`
	Holder  string                `json:"holder,omitempty"`
	Expiry  int64                 `json:"expiry,omitempty"`
	Output  string                `json:"output,omitempty"`
	Error   string                `json:"error,omitempty"`
	Prog    *obs.ProgressSnapshot `json:"progress,omitempty"`

	// Cell-sharding fields: the cell index a record addresses, the plan's
	// cell count (recCellPlan), and an opaque serialized cell result
	// (recCellDone; JSON encodes it as base64 inside the frame).
	Cell  int    `json:"cell,omitempty"`
	CellN int    `json:"cells,omitempty"`
	Data  []byte `json:"data,omitempty"`
}

// Record types.
const (
	recSubmit  = "submit"  // new job enters the pool, queued
	recClaim   = "claim"   // lease written: (job, holder, expiry), job runs
	recRenew   = "renew"   // lease extended, progress snapshot piggybacked
	recState   = "state"   // terminal transition: done / failed / cancelled
	recRelease = "release" // graceful give-back: job returns to queued
	recReplica = "replica" // replica registration heartbeat

	recCellPlan    = "cellplan"    // coordinator materialises N queued cells
	recCellClaim   = "cellclaim"   // cell lease written: (job, cell, holder, expiry)
	recCellRenew   = "cellrenew"   // cell lease extended, progress piggybacked
	recCellDone    = "celldone"    // cell result frame (first write wins)
	recCellRelease = "cellrelease" // graceful give-back: cell returns to queued
)

// lease is the claim state a job and a cell share. JobRecord and CellRecord
// embed it, so its JSON keys are theirs.
type lease struct {
	State string `json:"state"`
	// Holder is the replica holding (or, once finished, the one that held)
	// the lease; LeaseExpiry is when that lease lapses. Running work whose
	// lease expired is claimable by any replica — sticky claim ordering
	// prefers Holder itself when it comes back.
	Holder      string    `json:"holder,omitempty"`
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
	// Progress is the snapshot the holder last renewed with, and the final
	// one once the work is done; a cell's feeds cross-replica job progress.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	// Restarts counts lease takeovers: how many times the work was reclaimed
	// from an expired holder and restarted elsewhere. A claim after a
	// graceful release is no takeover.
	Restarts int `json:"restarts,omitempty"`
}

// kind is what the store writes for a lease on a job and on a cell: the
// record types, whether they must be on the device before the call returns
// (see the durability contract in the package comment), and the counters a
// claim moves.
type kind struct {
	claim, renew, release, end string
	durable                    bool
	claims, reclaims           *obs.Counter
}

var (
	jobKind  = kind{recClaim, recRenew, recRelease, recState, synced, leaseClaims, leaseReclaims}
	cellKind = kind{recCellClaim, recCellRenew, recCellRelease, recCellDone, unsynced, cellClaims, cellReclaims}
)

// kindOf returns the kind of the work a cell index addresses.
func kindOf(cell int) *kind {
	if cell < 0 {
		return &jobKind
	}
	return &cellKind
}

// leaseRecord is a record of type typ addressed to (job, cell) on behalf of
// holder; a job's records carry no cell.
func leaseRecord(typ, job string, cell int, holder string) *record {
	return &record{Type: typ, Job: job, Cell: max(cell, 0), Holder: holder}
}

// cell returns cell i of job's live plan, or nil.
func (st *state) cell(job string, i int) *CellRecord {
	if cells := st.cells[job]; i >= 0 && i < len(cells) {
		return cells[i]
	}
	return nil
}

// leaseAt returns the lease of (job, cell), or nil when there is no such
// job, or no such cell in its live plan.
func (st *state) leaseAt(job string, cell int) *lease {
	if c := st.cell(job, cell); c != nil {
		return &c.lease
	}
	if j, ok := st.jobs[job]; ok && cell < 0 {
		return &j.lease
	}
	return nil
}

// move sets the state of the lease of (_, cell), keeping the count of queued
// jobs.
func (st *state) move(l *lease, cell int, to string) {
	if cell < 0 && l.State == StateQueued {
		st.queued--
	}
	if cell < 0 && to == StateQueued {
		st.queued++
	}
	l.State = to
}

// applyLocked folds one record into the in-memory state. Records written by
// any replica flow through here — both at append time and at replay — so
// the state machine is defined in exactly one place.
func (s *Store) applyLocked(rec *record) {
	// Replay must restore the sequence counter, or a handle that only ever
	// replayed (never appended) would mint duplicate sequence numbers — and
	// with them duplicate job IDs that dedup against existing jobs, silently
	// swallowing submissions.
	if rec.Seq > s.st.seq {
		s.st.seq = rec.Seq
	}
	switch rec.Type {
	case recSubmit:
		if _, ok := s.st.jobs[rec.Job]; ok {
			return
		}
		s.st.addJob(&JobRecord{ID: rec.Job, Kind: rec.Kind, Payload: rec.Payload, Created: time.Unix(0, rec.T)})
		s.st.move(&s.st.jobs[rec.Job].lease, -1, StateQueued)
		s.woke = true
	case recClaim, recRenew, recRelease, recState:
		s.applyLeaseLocked(rec, -1)
	case recCellClaim, recCellRenew, recCellRelease, recCellDone:
		if rec.Cell >= 0 { // a negative index is corruption, not the job
			s.applyLeaseLocked(rec, rec.Cell)
		}
	case recReplica:
		s.st.replicas[rec.Holder] = rec.Expiry
	case recCellPlan:
		j, ok := s.st.jobs[rec.Job]
		if !ok || terminal(j.State) {
			return
		}
		if _, ok := s.st.cells[rec.Job]; ok {
			return // replanning after a coordinator restart is a no-op
		}
		cells := make([]*CellRecord, rec.CellN)
		for i := range cells {
			cells[i] = &CellRecord{Job: rec.Job, Index: i, lease: lease{State: StateQueued}}
		}
		s.st.setPlan(rec.Job, cells)
		s.woke = true
	}
}

// applyLeaseLocked folds a claim, renewal, release or end of (rec.Job, cell)
// into the state: applyLocked's lease arms, for both kinds.
func (s *Store) applyLeaseLocked(rec *record, cell int) {
	l := s.st.leaseAt(rec.Job, cell)
	if l == nil {
		return // no such job, or its plan is gone (job finished)
	}
	switch rec.Type {
	case kindOf(cell).claim:
		if terminal(l.State) {
			return
		}
		if takeover(l, rec.Holder) {
			l.Restarts++
			if cell >= 0 {
				l.Progress = nil // the takeover restarts the cell from scratch
			}
		}
		s.st.move(l, cell, StateRunning)
		l.Holder = rec.Holder
		l.LeaseExpiry = time.Unix(0, rec.Expiry)
		if cell < 0 {
			t := time.Unix(0, rec.T)
			s.st.jobs[rec.Job].Started = &t
		}
	case kindOf(cell).renew:
		if !held(l, rec.Holder) {
			return
		}
		l.LeaseExpiry = time.Unix(0, rec.Expiry)
		if rec.Prog != nil {
			p := *rec.Prog
			l.Progress = &p
		}
	case kindOf(cell).release:
		if !held(l, rec.Holder) {
			return
		}
		// Back to the queue with an already-expired lease: immediately
		// claimable by anyone, sticky to the departing holder if it returns
		// first. A job is no longer started; a cell's partial progress is
		// abandoned with the lease.
		s.st.move(l, cell, StateQueued)
		l.LeaseExpiry = time.Unix(0, rec.T)
		if cell < 0 {
			s.st.jobs[rec.Job].Started = nil
		} else {
			l.Progress = nil
		}
		s.woke = true
	case kindOf(cell).end:
		// A job's end is fenced by holder: a stale write from a holder whose
		// lease was taken over is ignored. A cell's result is accepted from
		// any holder, and the first one wins; it fails by its error alone.
		if terminal(l.State) || (cell < 0 && l.State == StateRunning && rec.Holder != l.Holder) {
			return
		}
		to := rec.State
		if cell >= 0 {
			to = StateDone
			if rec.Error != "" {
				to = StateFailed
			}
		}
		s.st.move(l, cell, to)
		if rec.Prog != nil {
			p := *rec.Prog
			l.Progress = &p
		}
		if cell < 0 {
			j := s.st.jobs[rec.Job]
			t := time.Unix(0, rec.T)
			j.Ended = &t
			j.Output = rec.Output
			j.Error = rec.Error
			s.st.endJob(rec.Job) // on the writer and on every replayer alike
			s.woke = true
			return
		}
		c := s.st.cells[rec.Job][cell]
		c.Holder = rec.Holder
		c.Result = rec.Data
		c.Error = rec.Error
		// The coordinator can act on exactly two results: the one that fails
		// its job and the one that completes its plan.
		s.st.cellsLeft[rec.Job]--
		if to == StateFailed || s.st.cellsLeft[rec.Job] == 0 {
			s.woke = true
		}
	}
}

// ErrLeaseLost is returned by the calls that need the caller to hold a
// lease — renewal, release, a job's end — once it no longer does: another
// replica reclaimed the work after expiry, or the work is gone (a finished
// job drops its cells). The caller must abandon the work: its result would
// be a duplicate of (or a conflict with) the new holder's.
var ErrLeaseLost = errors.New("store: lease lost")

// MaxRestarts caps lease takeovers. Work that has already been taken over
// this many times is likelier to be what kills its holders — a runaway cell,
// an allocation the replica cannot survive — than to be unlucky, so the claim
// that would take it over once more ends it as failed instead, with
// poisonError as the reason, and no replica runs it again. Six is the retry
// limit a Kubernetes Job gets by default (backoffLimit): a store cannot tell
// a holder the work killed from one that died with the whole cluster, so the
// cap leaves room for a few outages in the life of one job.
const MaxRestarts = 6

// poisonError is the reason a job or cell fails with at the restart cap.
var poisonError = fmt.Sprintf("poisoned: its lease was taken over %d times", MaxRestarts)

// claimable reports whether work is up for grabs at time now: queued with no
// live lease, or running with an expired lease (a crashed or wedged holder).
func claimable(l *lease, now time.Time) bool {
	switch l.State {
	case StateQueued:
		return l.Holder == "" || !l.LeaseExpiry.After(now)
	case StateRunning:
		return !l.LeaseExpiry.After(now)
	}
	return false
}

// held reports whether holder holds l, a lease on running work.
func held(l *lease, holder string) bool {
	return l != nil && l.State == StateRunning && l.Holder == holder
}

// takeover reports whether holder claiming l takes over a lease that lapsed
// while the work ran: a restart. Work handed back by a release is queued
// again, so claiming it is no takeover, although its last holder stays on
// record for sticky claim ordering.
func takeover(l *lease, holder string) bool {
	return l.State == StateRunning && l.Holder != "" && l.Holder != holder
}

// claimLocked is the one claim, of work of kind k. pick names the claimable
// work holder should take at now, in the kind's claim order, or a nil lease;
// work the claim would take over past MaxRestarts is failed as poisoned, and
// pick asked again. A lease for holder until now+ttl is then appended behind
// front, in one write. It reports the work claimed, if any.
func (s *Store) claimLocked(k *kind, holder string, ttl time.Duration,
	pick func(holder string, now time.Time) (string, int, *lease), front ...*record) (string, int, bool, error) {
	now := s.now()
	job, cell, l := pick(holder, now)
	for l != nil && l.Restarts >= MaxRestarts && takeover(l, holder) {
		// Written in the lapsed holder's name: the only one the fence lets
		// end running work. A cell's result record fails by its error alone.
		rec := leaseRecord(k.end, job, cell, l.Holder)
		rec.Error = poisonError
		if cell < 0 {
			rec.State = StateFailed
		}
		if err := s.appendLocked(rec, k.durable); err != nil {
			return "", 0, false, err
		}
		poisonings.Inc()
		job, cell, l = pick(holder, now)
	}
	if l == nil {
		return "", 0, false, s.appendBatchLocked(front, k.durable)
	}
	reclaim := takeover(l, holder)
	claim := leaseRecord(k.claim, job, cell, holder)
	claim.Expiry = now.Add(ttl).UnixNano()
	if err := s.appendBatchLocked(append(front, claim), k.durable); err != nil {
		return "", 0, false, err
	}
	k.claims.Inc()
	if reclaim {
		k.reclaims.Inc()
	}
	return job, cell, true, nil
}

// RenewLease extends holder's lease on (job, cell) — the job itself when
// cell < 0 — by ttl from now, and records the work's latest progress
// snapshot (nil to leave it unchanged). ErrLeaseLost means the caller no
// longer holds it.
func (s *Store) RenewLease(job string, cell int, holder string, ttl time.Duration, prog *obs.ProgressSnapshot) error {
	return s.withLock(func() error {
		if !held(s.st.leaseAt(job, cell), holder) {
			return ErrLeaseLost
		}
		k := kindOf(cell)
		rec := leaseRecord(k.renew, job, cell, holder)
		rec.Expiry, rec.Prog = s.now().Add(ttl).UnixNano(), prog
		if err := s.appendLocked(rec, k.durable); err != nil {
			return err
		}
		leaseRenewals.Inc()
		return nil
	})
}

// ReleaseLease gives holder's running (job, cell) — the job itself when
// cell < 0 — back to the queue: the graceful-shutdown path, so a draining
// replica's work restarts promptly elsewhere instead of waiting out the
// lease. ErrLeaseLost means the caller no longer holds it.
func (s *Store) ReleaseLease(job string, cell int, holder string) error {
	return s.withLock(func() error {
		if !held(s.st.leaseAt(job, cell), holder) {
			return ErrLeaseLost
		}
		k := kindOf(cell)
		return s.appendLocked(leaseRecord(k.release, job, cell, holder), k.durable)
	})
}
