package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Job states, shared with the service layer (which aliases them into its
// JobState type).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job can no longer change.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobRecord is the durable view of one job in the shared pool.
type JobRecord struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	State   string          `json:"state"`
	Created time.Time       `json:"created"`
	Started *time.Time      `json:"started,omitempty"`
	Ended   *time.Time      `json:"ended,omitempty"`
	Output  string          `json:"output,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Progress is the last snapshot the holder renewed with.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	// Holder is the replica holding (or, once finished, the one that held)
	// the job's lease; LeaseExpiry is when that lease lapses. A running job
	// whose lease expired is claimable by any replica — sticky claim
	// ordering prefers Holder itself when it comes back.
	Holder      string    `json:"holder,omitempty"`
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
	// Restarts counts lease takeovers: how many times the job was reclaimed
	// from an expired holder and restarted elsewhere. A claim after a graceful
	// Release is no takeover.
	Restarts int `json:"restarts,omitempty"`
}

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

	// Cell-sharding record types; state machine in cells.go.
	recCellPlan    = "cellplan"    // coordinator materialises N queued cells
	recCellClaim   = "cellclaim"   // cell lease written: (job, cell, holder, expiry)
	recCellRenew   = "cellrenew"   // cell lease extended, progress piggybacked
	recCellDone    = "celldone"    // cell result frame (first write wins)
	recCellRelease = "cellrelease" // graceful give-back: cell returns to queued
)

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
		s.st.addJob(&JobRecord{
			ID:      rec.Job,
			Kind:    rec.Kind,
			Payload: rec.Payload,
			State:   StateQueued,
			Created: time.Unix(0, rec.T),
		})
		s.woke = true
	case recClaim:
		j, ok := s.st.jobs[rec.Job]
		if !ok || terminal(j.State) {
			return
		}
		if takeover(j.State, j.Holder, rec.Holder) {
			j.Restarts++
		}
		j.Holder = rec.Holder
		j.LeaseExpiry = time.Unix(0, rec.Expiry)
		j.State = StateRunning
		t := time.Unix(0, rec.T)
		j.Started = &t
	case recRenew:
		j, ok := s.st.jobs[rec.Job]
		if !ok || j.State != StateRunning || j.Holder != rec.Holder {
			return
		}
		j.LeaseExpiry = time.Unix(0, rec.Expiry)
		if rec.Prog != nil {
			p := *rec.Prog
			j.Progress = &p
		}
	case recState:
		j, ok := s.st.jobs[rec.Job]
		if !ok || terminal(j.State) {
			return
		}
		if j.State == StateRunning && rec.Holder != j.Holder {
			return // stale write from a holder whose lease was taken over
		}
		j.State = rec.State
		t := time.Unix(0, rec.T)
		j.Ended = &t
		j.Output = rec.Output
		j.Error = rec.Error
		if rec.Prog != nil {
			p := *rec.Prog
			j.Progress = &p
		}
		s.st.endJob(rec.Job) // on the writer and on every replayer alike
		s.woke = true
	case recRelease:
		j, ok := s.st.jobs[rec.Job]
		if !ok || j.State != StateRunning || j.Holder != rec.Holder {
			return
		}
		// Back to the queue with an already-expired lease: immediately
		// claimable by anyone, sticky to the departing holder if it returns
		// first.
		j.State = StateQueued
		j.LeaseExpiry = time.Unix(0, rec.T)
		j.Started = nil
		s.woke = true
	case recReplica:
		s.st.replicas[rec.Holder] = rec.Expiry
	case recCellPlan, recCellClaim, recCellRenew, recCellDone, recCellRelease:
		s.applyCellLocked(rec)
	}
}

// ErrLeaseLost is returned by Renew, Complete and Fail when the caller no
// longer holds the job's lease — another replica reclaimed it after expiry.
// The caller must abandon the job: its result would be a duplicate of (or a
// conflict with) the new holder's.
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

// takeover reports whether holder claiming work in state, last held by prev,
// takes over a lease that lapsed while the work ran: a restart. Work handed
// back by Release is queued again, so claiming it is no takeover, although
// prev stays on record for sticky claim ordering.
func takeover(state, prev, holder string) bool {
	return state == StateRunning && prev != "" && prev != holder
}

// poisoned reports whether holder claiming work in state, last held by prev
// and already taken over restarts times, would take it over past MaxRestarts.
func poisoned(state, prev string, restarts int, holder string) bool {
	return restarts >= MaxRestarts && takeover(state, prev, holder)
}

// ErrQueueFull is returned by SubmitJobBounded when the pool already holds
// the allowed number of queued jobs.
var ErrQueueFull = errors.New("store: job queue full")

// SubmitJob appends a new job to the shared pool and returns its record.
func (s *Store) SubmitJob(kind string, payload []byte) (JobRecord, error) {
	return s.SubmitJobBounded(kind, payload, 0)
}

// SubmitJobBounded is SubmitJob refused with ErrQueueFull while the pool
// holds maxQueued or more jobs in state queued (no bound when maxQueued <= 0).
// The count and the append share one lock, so handles racing for the last
// slot cannot both get it.
func (s *Store) SubmitJobBounded(kind string, payload []byte, maxQueued int) (JobRecord, error) {
	var out JobRecord
	err := s.withLock(func() error {
		if maxQueued > 0 && s.queuedLocked() >= maxQueued {
			return ErrQueueFull
		}
		id := fmt.Sprintf("job-%d", s.st.seq+1)
		if err := s.appendLocked(&record{Type: recSubmit, Job: id, Kind: kind, Payload: payload}, synced); err != nil {
			return err
		}
		out = *s.st.jobs[id]
		return nil
	})
	return out, err
}

// queuedLocked counts the jobs in state queued.
func (s *Store) queuedLocked() int {
	n := 0
	for _, id := range s.st.live {
		if s.st.jobs[id].State == StateQueued {
			n++
		}
	}
	return n
}

// Queued counts the jobs in state queued as of the handle's last look at the
// pool — no lock taken across handles, no refresh: for a caller that has just
// submitted or claimed, that look is its own.
func (s *Store) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// claimable reports whether a job is up for grabs at time now: queued with
// no live lease, or running with an expired lease (a crashed or wedged
// holder).
func claimable(j *JobRecord, now time.Time) bool {
	switch j.State {
	case StateQueued:
		return j.Holder == "" || !j.LeaseExpiry.After(now)
	case StateRunning:
		return !j.LeaseExpiry.After(now)
	}
	return false
}

// nextJobLocked picks the job a claim by holder takes: the first claimable
// one in claim order, after failing as poisoned every candidate the claim
// would take over past MaxRestarts.
func (s *Store) nextJobLocked(holder string, now time.Time) (*JobRecord, error) {
	for {
		var best *JobRecord
		for _, id := range s.st.live {
			j := s.st.jobs[id]
			if !claimable(j, now) {
				continue
			}
			if best == nil || claimLess(j, best, holder) {
				best = j
			}
		}
		if best == nil || !poisoned(best.State, best.Holder, best.Restarts, holder) {
			return best, nil
		}
		// Written in the lapsed holder's name: the only one the fence lets
		// end a running job.
		if err := s.appendLocked(&record{
			Type: recState, Job: best.ID, Holder: best.Holder,
			State: StateFailed, Error: poisonError,
		}, synced); err != nil {
			return nil, err
		}
		poisonings.Inc()
	}
}

// Claim hands the caller at most one claimable job, writing a lease
// (holder, now+ttl) for it. The claim order translates the IP-pool
// allocator's ORDER BY: jobs previously held by this holder first (sticky
// reassignment), then oldest lease expiry, then submission order. A job the
// claim would take over past MaxRestarts is failed as poisoned on the way.
// The bool reports whether a job was claimed.
func (s *Store) Claim(holder string, ttl time.Duration) (JobRecord, bool, error) {
	var out JobRecord
	claimed := false
	err := s.withLock(func() error {
		now := s.now()
		best, err := s.nextJobLocked(holder, now)
		if best == nil || err != nil {
			return err
		}
		reclaim := takeover(best.State, best.Holder, holder)
		if err := s.appendLocked(&record{
			Type: recClaim, Job: best.ID, Holder: holder,
			Expiry: now.Add(ttl).UnixNano(),
		}, synced); err != nil {
			return err
		}
		leaseClaims.Inc()
		if reclaim {
			leaseReclaims.Inc()
		}
		out = *best
		claimed = true
		return nil
	})
	return out, claimed, err
}

// claimLess orders claimable jobs for a holder: its own previous jobs
// first, then earlier lease expiry, then submission order. Jobs never
// leased sort by submission order within the "foreign" class (their zero
// expiry precedes any real one, matching "longest since anyone touched it").
func claimLess(a, b *JobRecord, holder string) bool {
	am, bm := a.Holder == holder, b.Holder == holder
	if am != bm {
		return am
	}
	if !a.LeaseExpiry.Equal(b.LeaseExpiry) {
		return a.LeaseExpiry.Before(b.LeaseExpiry)
	}
	return a.Created.Before(b.Created)
}

// Renew extends the caller's lease by ttl from now and records the job's
// latest progress snapshot (nil to leave it unchanged). It fails with
// ErrLeaseLost if another replica holds the lease.
func (s *Store) Renew(id, holder string, ttl time.Duration, prog *obs.ProgressSnapshot) error {
	return s.withLock(func() error {
		j, ok := s.st.jobs[id]
		if !ok {
			return fmt.Errorf("store: no such job %s", id)
		}
		if j.State != StateRunning || j.Holder != holder {
			return ErrLeaseLost
		}
		if err := s.appendLocked(&record{
			Type: recRenew, Job: id, Holder: holder,
			Expiry: s.now().Add(ttl).UnixNano(), Prog: prog,
		}, synced); err != nil {
			return err
		}
		leaseRenewals.Inc()
		return nil
	})
}

// finishJob writes a terminal transition on behalf of holder.
func (s *Store) finishJob(id, holder, state, output, errMsg string, prog *obs.ProgressSnapshot) error {
	return s.withLock(func() error {
		j, ok := s.st.jobs[id]
		if !ok {
			return fmt.Errorf("store: no such job %s", id)
		}
		if terminal(j.State) || j.Holder != holder {
			return ErrLeaseLost
		}
		return s.appendLocked(&record{
			Type: recState, Job: id, Holder: holder, State: state,
			Output: output, Error: errMsg, Prog: prog,
		}, synced)
	})
}

// Complete marks a job done with its output.
func (s *Store) Complete(id, holder, output string, prog *obs.ProgressSnapshot) error {
	return s.finishJob(id, holder, StateDone, output, "", prog)
}

// Fail marks a job failed.
func (s *Store) Fail(id, holder, errMsg string) error {
	return s.finishJob(id, holder, StateFailed, "", errMsg, nil)
}

// Cancel marks a job cancelled on behalf of holder: a job it is running, or
// a queued one whose last holder it was (holder "" for a job never claimed).
func (s *Store) Cancel(id, holder, errMsg string) error {
	return s.finishJob(id, holder, StateCancelled, "", errMsg, nil)
}

// Release gives a running job back to the queue — the graceful-shutdown
// path, so a draining replica's in-flight jobs restart promptly elsewhere
// instead of waiting out the lease.
func (s *Store) Release(id, holder string) error {
	return s.withLock(func() error {
		j, ok := s.st.jobs[id]
		if !ok {
			return fmt.Errorf("store: no such job %s", id)
		}
		if j.State != StateRunning || j.Holder != holder {
			return ErrLeaseLost
		}
		return s.appendLocked(&record{Type: recRelease, Job: id, Holder: holder}, synced)
	})
}

// Heartbeat registers the replica as live until now+ttl. Liveness is
// advisory — it feeds Replicas() and the cluster walkthrough, not the claim
// path (a claimant is live by virtue of claiming).
func (s *Store) Heartbeat(holder string, ttl time.Duration) error {
	return s.withLock(func() error {
		return s.appendLocked(&record{
			Type: recReplica, Holder: holder, Expiry: s.now().Add(ttl).UnixNano(),
		}, synced)
	})
}

// Job returns one job by ID, refreshed against the shared log.
func (s *Store) Job(id string) (JobRecord, bool, error) {
	var out JobRecord
	found := false
	err := s.withLock(func() error {
		if j, ok := s.st.jobs[id]; ok {
			out = *j
			found = true
		}
		return nil
	})
	return out, found, err
}

// Jobs returns every retained job in submission order.
func (s *Store) Jobs() ([]JobRecord, error) {
	var out []JobRecord
	err := s.withLock(func() error {
		out = make([]JobRecord, 0, len(s.st.order))
		for _, id := range s.st.order {
			out = append(out, *s.st.jobs[id])
		}
		return nil
	})
	return out, err
}

// Replicas lists registered replicas and whether their registration is
// still live, sorted by name.
func (s *Store) Replicas() ([]ReplicaInfo, error) {
	var out []ReplicaInfo
	err := s.withLock(func() error {
		now := s.now()
		for h, exp := range s.st.replicas {
			out = append(out, ReplicaInfo{
				Name: h, Live: time.Unix(0, exp).After(now), Expiry: time.Unix(0, exp),
			})
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
		return nil
	})
	return out, err
}

// ReplicaInfo describes one registered replica.
type ReplicaInfo struct {
	Name   string    `json:"name"`
	Live   bool      `json:"live"`
	Expiry time.Time `json:"expiry"`
}

// Compact prunes finished jobs beyond retain (oldest first) and rewrites
// the store as a fresh snapshot generation with an empty WAL. Replay of the
// compacted store is equivalent to replay of the full log for every
// surviving job.
func (s *Store) Compact(retain int) error {
	return s.withLock(func() error { return s.compactLocked(retain) })
}

// CompactPast compacts once the WAL has outgrown both minWAL and the live
// snapshot, and otherwise costs two atomic loads. Measuring the log against
// the snapshot it would be folded into is what keeps compaction amortised: a
// table of any size is rewritten once per doubling of what was logged, not
// once per minWAL bytes.
func (s *Store) CompactPast(minWAL int64, retain int) error {
	// Without a log there is nothing to amortise: compacting is the prune.
	due := func() bool { return s.dir == "" || s.seen.Load() >= max(minWAL, s.snapBytes.Load()) }
	if !due() {
		return nil
	}
	return s.withLock(func() error {
		if !due() { // another handle got there first
			return nil
		}
		return s.compactLocked(retain)
	})
}

// WALSize reports the current generation's log size in bytes — the number
// compaction resets.
func (s *Store) WALSize() (int64, error) {
	var size int64
	err := s.withLock(func() error {
		size = s.seen.Load()
		return nil
	})
	return size, err
}
