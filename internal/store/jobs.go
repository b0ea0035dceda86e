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

// terminal reports whether work — a job or a cell — can no longer change.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobRecord is the durable view of one job in the shared pool.
type JobRecord struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// The job's lease (lease.go): its state, holder, expiry, the progress
	// snapshot last renewed with, and restarts.
	lease
	Created time.Time  `json:"created"`
	Started *time.Time `json:"started,omitempty"`
	Ended   *time.Time `json:"ended,omitempty"`
	Output  string     `json:"output,omitempty"`
	Error   string     `json:"error,omitempty"`
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
		if maxQueued > 0 && s.st.queued >= maxQueued {
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

// Queued counts the jobs in state queued as of the handle's last look at the
// pool — no lock taken across handles, no refresh: for a caller that has just
// submitted or claimed, that look is its own.
func (s *Store) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.queued
}

// Claim hands the caller at most one claimable job, writing a lease
// (holder, now+ttl) for it. The claim order translates the IP-pool
// allocator's ORDER BY: jobs previously held by this holder first (sticky
// reassignment), then oldest lease expiry, then submission order. A job the
// claim would take over past MaxRestarts is failed as poisoned on the way.
// The bool reports whether a job was claimed.
func (s *Store) Claim(holder string, ttl time.Duration) (JobRecord, bool, error) {
	return locked(s, func() (JobRecord, bool, error) {
		id, _, ok, err := s.claimLocked(&jobKind, holder, ttl, s.jobCandidateLocked)
		if !ok {
			return JobRecord{}, false, err
		}
		return *s.st.jobs[id], true, nil
	})
}

// jobCandidateLocked finds the job a claim by holder takes: the first
// claimable one in claim order.
func (s *Store) jobCandidateLocked(holder string, now time.Time) (string, int, *lease) {
	var best *JobRecord
	for _, id := range s.st.live {
		j := s.st.jobs[id]
		if !claimable(&j.lease, now) {
			continue
		}
		if best == nil || claimLess(j, best, holder) {
			best = j
		}
	}
	if best == nil {
		return "", -1, nil
	}
	return best.ID, -1, &best.lease
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

// Renew is RenewLease for a job.
func (s *Store) Renew(id, holder string, ttl time.Duration, prog *obs.ProgressSnapshot) error {
	return s.RenewLease(id, -1, holder, ttl, prog)
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
	return locked(s, func() (JobRecord, bool, error) {
		j, ok := s.st.jobs[id]
		if !ok {
			return JobRecord{}, false, nil
		}
		return *j, true, nil
	})
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
