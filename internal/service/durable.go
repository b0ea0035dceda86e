package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Durable job-pool mode: when a JobManager is backed by a store.Store, jobs
// are not queued in process memory — submissions append (kind, payload)
// records to the shared WAL, and every replica's workers claim queued jobs
// by lease, renew while running, and write the terminal transition back.
// Any replica sharing the store directory serves status reads for any job,
// and a job whose holder dies mid-run is reclaimed after lease expiry and
// restarted from its payload on a surviving replica (deterministic work
// makes the rerun's output identical to an uninterrupted one).

// durable holds the store-backed state of a JobManager.
type durable struct {
	st      *store.Store
	replica string
	ttl     time.Duration

	// local tracks jobs running on this replica, so status reads overlay
	// their live progress over the (renew-cadence) snapshots in the store.
	mu    sync.Mutex
	local map[string]*obs.Progress

	lastHeartbeat atomic.Int64 // unix nanos of the last replica record

	// fallback is how long a worker with nothing to do sleeps at most before
	// looking again unprompted; leaseSweep outside tests.
	fallback time.Duration
}

// leaseSweep is the one periodic timer left on the idle path. New work is
// announced by the store (store.WaitChange); what nothing announces is a
// lease running out, so every worker that waits still looks again this often.
const leaseSweep = 100 * time.Millisecond

// cellsDone counts sharded cells this replica executed to completion — the
// per-replica share of a cluster's cooperative jobs.
var cellsDone = obs.Default.Counter("repro_jobs_cells_done_total",
	"Sharded job cells executed to completion by this replica.")

// walCompactBytes is the least WAL a terminal transition compacts away (a
// larger snapshot raises the bar to its own size; see store.CompactPast); a
// variable so tests can force compaction early.
var walCompactBytes = int64(256 << 10)

// NewDurableJobManager starts a store-backed manager: workers claim-loop
// goroutines over the shared pool, retaining the last retain finished jobs
// in the store across all replicas. The replica name is this process's
// lease holder identity; ttl is the lease duration (renewed at ttl/3 while
// a job runs). Kinds dispatch.Plan resolves are planned into durable cell
// work-units that every replica's claim loops cooperate on; a nil Plan runs
// every job whole through dispatch.Run.
func NewDurableJobManager(workers, retain int, st *store.Store, replica string, ttl time.Duration, dispatch Dispatch) *JobManager {
	return newDurableJobManager(workers, retain, st, replica, ttl, dispatch, leaseSweep)
}

// newDurableJobManager is NewDurableJobManager with the fallback deadline as
// a parameter: tests push it out of the way to prove a wake came from the
// store's signal and not from the timer.
func newDurableJobManager(workers, retain int, st *store.Store, replica string, ttl time.Duration, dispatch Dispatch, fallback time.Duration) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if retain < 1 {
		retain = 1
	}
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		ctx:      ctx,
		cancel:   cancel,
		retain:   retain,
		dispatch: dispatch,
		jobs:     make(map[string]*job),
		dur: &durable{
			st: st, replica: replica, ttl: ttl,
			local:    make(map[string]*obs.Progress),
			fallback: fallback,
		},
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.claimLoop()
	}
	return m
}

// Durable reports whether the manager is backed by a shared store.
func (m *JobManager) Durable() bool { return m.dur != nil }

// Replica returns the manager's lease-holder identity ("" when not durable).
func (m *JobManager) Replica() string {
	if m.dur == nil {
		return ""
	}
	return m.dur.replica
}

// durableSubmit appends a job to the shared pool.
func (m *JobManager) durableSubmit(kind string, payload json.RawMessage) (JobStatus, error) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return JobStatus{}, ErrShuttingDown
	}
	rec, err := m.dur.st.SubmitJob(kind, payload)
	if err != nil {
		return JobStatus{}, err
	}
	jobsSubmitted.Inc()
	return m.statusFromRecord(rec), nil
}

// statusFromRecord maps a store record to the external status shape,
// overlaying live local progress for jobs running on this replica.
func (m *JobManager) statusFromRecord(rec store.JobRecord) JobStatus {
	status := JobStatus{
		ID:       rec.ID,
		Kind:     rec.Kind,
		State:    JobState(rec.State),
		Created:  rec.Created,
		Started:  rec.Started,
		Ended:    rec.Ended,
		Output:   rec.Output,
		Error:    rec.Error,
		Progress: rec.Progress,
		Replica:  rec.Holder,
		Restarts: rec.Restarts,
	}
	m.dur.mu.Lock()
	prog, local := m.dur.local[rec.ID]
	m.dur.mu.Unlock()
	if local && rec.State == store.StateRunning {
		snap := prog.Snapshot()
		if snap != (obs.ProgressSnapshot{}) {
			status.Progress = &snap
		}
	}
	return status
}

// claimLoop is one worker's life: claim a job when one is available, run
// it; failing that, claim cells of other replicas' sharded jobs; failing
// that, heartbeat and sleep until the store announces work. A worker woken
// for work another worker took finds nothing, writes nothing and sleeps again.
func (m *JobManager) claimLoop() {
	defer m.wg.Done()
	for m.ctx.Err() == nil {
		stamp := m.dur.st.Stamp()
		rec, ok, err := m.dur.st.Claim(m.dur.replica, m.dur.ttl)
		if err == nil && ok {
			m.runDurable(rec)
			continue
		}
		if m.dispatch.Plan != nil && m.runCells(m.ctx, "") {
			continue
		}
		m.heartbeat()
		m.dur.st.WaitChange(m.ctx, stamp, m.dur.fallback)
	}
}

// heartbeat registers the replica as live, at most every ttl/2.
func (m *JobManager) heartbeat() {
	now := time.Now().UnixNano()
	last := m.dur.lastHeartbeat.Load()
	if now-last < int64(m.dur.ttl/2) || !m.dur.lastHeartbeat.CompareAndSwap(last, now) {
		return
	}
	_ = m.dur.st.Heartbeat(m.dur.replica, 2*m.dur.ttl)
}

// renewEvery is the lease-renewal cadence for a held job.
func (m *JobManager) renewEvery() time.Duration {
	d := m.dur.ttl / 3
	if d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	return d
}

// leaseKeeper keeps whatever one worker holds — a job, or the current cell
// of a chain of cells — leased while the worker runs it: every renewEvery it
// renews the lease last named with hold, storing that work's progress
// snapshot alongside. Losing the lease cancels the worker's context.
type leaseKeeper struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	job  string // "" while nothing is held
	cell int    // the cell of job that is held; -1 for the job itself
	prog *obs.Progress
	lost bool
}

// keepLease starts a keeper; work under it runs on the returned context.
func (m *JobManager) keepLease(parent context.Context) (*leaseKeeper, context.Context) {
	ctx, cancel := context.WithCancel(parent)
	k := &leaseKeeper{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(k.done)
		tick := time.NewTicker(m.renewEvery())
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			k.mu.Lock()
			job, cell, prog := k.job, k.cell, k.prog
			k.mu.Unlock()
			if job == "" {
				continue
			}
			var err error
			if cell < 0 {
				err = m.dur.st.Renew(job, m.dur.replica, m.dur.ttl, snapPtr(prog.Snapshot()))
			} else {
				err = m.dur.st.RenewCell(job, cell, m.dur.replica, m.dur.ttl, snapPtr(prog.Snapshot()))
			}
			if !errors.Is(err, store.ErrLeaseLost) {
				continue
			}
			// The chain may have moved on while the renewal was in flight;
			// only the lease still held counts as lost.
			k.mu.Lock()
			k.lost = k.job == job && k.cell == cell
			lost := k.lost
			k.mu.Unlock()
			if lost {
				cancel()
				return
			}
		}
	}()
	return k, ctx
}

// hold names the lease to keep from now on.
func (k *leaseKeeper) hold(job string, cell int, prog *obs.Progress) {
	k.mu.Lock()
	k.job, k.cell, k.prog = job, cell, prog
	k.mu.Unlock()
}

// leaseLost reports whether the lease held now was taken over.
func (k *leaseKeeper) leaseLost() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lost
}

// stop ends the renewals and waits for the one in flight.
func (k *leaseKeeper) stop() {
	k.cancel()
	<-k.done
}

// runDurable executes one claimed job under a lease keeper, which keeps the
// lease (and the stored progress snapshot) fresh while the runner works;
// losing the lease cancels the run. Terminal transitions are fenced by
// holder in the store, so a takeover can never be overwritten by the loser.
func (m *JobManager) runDurable(rec store.JobRecord) {
	prog := &obs.Progress{}
	m.dur.mu.Lock()
	m.dur.local[rec.ID] = prog
	m.dur.mu.Unlock()
	defer func() {
		m.dur.mu.Lock()
		delete(m.dur.local, rec.ID)
		m.dur.mu.Unlock()
	}()

	keeper, ctx := m.keepLease(m.ctx)
	keeper.hold(rec.ID, -1, prog)

	jobsRunning.Inc()
	started := time.Now()
	var out string
	var err error
	var plan Plan
	if m.dispatch.Plan != nil {
		plan, err = m.dispatch.Plan(rec.Kind, rec.Payload)
	}
	switch {
	case err != nil:
	case plan != nil:
		out, err = m.runSharded(ctx, rec, plan, prog)
	default:
		out, err = guarded(func() (string, error) { return m.dispatch.Run(ctx, rec.Kind, rec.Payload, prog) })
	}
	jobsRunning.Dec()
	keeper.stop()
	m.dispatch.observeDuration(rec.Kind, time.Since(started))

	snap := prog.Snapshot()
	switch {
	case keeper.leaseLost():
		// Another replica owns the job now; any store write would be
		// rejected as a stale holder's.
	case err == nil:
		if werr := m.dur.st.Complete(rec.ID, m.dur.replica, out, snapPtr(snap)); werr == nil {
			jobsDone.Inc()
		}
	case m.ctx.Err() != nil:
		// Graceful shutdown: hand the job back so another replica restarts
		// it promptly instead of waiting out the lease.
		_ = m.dur.st.Release(rec.ID, m.dur.replica)
	default:
		if werr := m.dur.st.Fail(rec.ID, m.dur.replica, err.Error()); werr == nil {
			jobsFailed.Inc()
		}
	}
	_ = m.dur.st.CompactPast(walCompactBytes, m.retain)
}

// runSharded coordinates one sharded job: plan its cells durably, join the
// workers executing them (every replica's claim loops pick cells up, this
// one included), and once all cells are terminal gather the result frames
// and merge them in plan order. Deterministic cells make the merged report
// byte-identical to an in-process run, regardless of which replicas executed
// which cells or how many times a cell was reclaimed.
func (m *JobManager) runSharded(ctx context.Context, rec store.JobRecord, plan Plan, prog *obs.Progress) (string, error) {
	n := plan.NumCells()
	if err := m.dur.st.PlanCells(rec.ID, n); err != nil {
		return "", err
	}
	prog.AddCellsTotal(int64(n))

	// The coordinator's job progress is the fold of every cell's stored
	// snapshot. A background goroutine keeps it fresh at renew cadence even
	// while this loop is itself deep inside a cell, so cross-replica trial
	// counts surface mid-run; the fold applies signed deltas because a
	// reclaimed cell's restart resets its snapshot backwards.
	var progMu sync.Mutex
	var prev store.CellSummary
	fold := func() store.CellSummary {
		sum, ok, err := m.dur.st.CellSummary(rec.ID)
		if err != nil || !ok {
			progMu.Lock()
			sum = prev
			progMu.Unlock()
			return sum
		}
		progMu.Lock()
		prog.AddCellsDone(int64(sum.Done - prev.Done))
		prog.AddTrialsUsed(sum.TrialsUsed - prev.TrialsUsed)
		prog.AddTrialBudget(sum.TrialBudget - prev.TrialBudget)
		prev = sum
		progMu.Unlock()
		return sum
	}
	fctx, fcancel := context.WithCancel(ctx)
	foldDone := make(chan struct{})
	go func() {
		defer close(foldDone)
		tick := time.NewTicker(m.renewEvery())
		defer tick.Stop()
		for {
			select {
			case <-fctx.Done():
				return
			case <-tick.C:
				fold()
			}
		}
	}()
	defer func() { fcancel(); <-foldDone }()

	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		stamp := m.dur.st.Stamp()
		ran := m.runCells(ctx, rec.ID)
		sum := fold()
		if sum.Total > 0 {
			if sum.Failed > 0 {
				return "", fmt.Errorf("cell %d: %s", sum.FailedCell, sum.Err)
			}
			if sum.Done == sum.Total {
				results, err := m.dur.st.CellResults(rec.ID)
				if err != nil {
					return "", err
				}
				return plan.Merge(results)
			}
		}
		if !ran {
			// All remaining cells are leased to other replicas: sleep until
			// the store announces the result that ends the plan or a cell
			// given back — or until it is time to look for an expired lease.
			m.dur.st.WaitChange(ctx, stamp, m.dur.fallback)
		}
	}
}

// runCells claims and executes cell work-units — of one job when onlyJob is
// set (the coordinator joining its own workers), of any sharded job
// otherwise (an idle claim loop helping out). Completing a cell claims the
// next in the same store write, so a replica streams through a grid with
// one store call per cell; the whole chain runs under one lease keeper and
// reads each job it touches, and resolves its plan, once. Reports whether any
// cell was claimed.
func (m *JobManager) runCells(ctx context.Context, onlyJob string) bool {
	cell, more, err := m.dur.st.ClaimCell(m.dur.replica, m.dur.ttl, onlyJob)
	if err != nil || !more {
		return false
	}
	keeper, cctx := m.keepLease(ctx)
	defer keeper.stop()
	var job store.JobRecord
	var plan Plan
	var planErr error
	for more {
		if cell.Job != job.ID {
			var ok bool
			if job, ok, err = m.dur.st.Job(cell.Job); err != nil || !ok {
				_ = m.dur.st.ReleaseCell(cell.Job, cell.Index, m.dur.replica)
				break
			}
			if plan, planErr = m.dispatch.Plan(job.Kind, job.Payload); planErr == nil && plan == nil {
				// A cell of a family this replica's table lacks.
				planErr = fmt.Errorf("service: kind %q is not shardable", job.Kind)
			}
		}
		cell, more = m.runClaimedCell(ctx, cctx, keeper, plan, planErr, cell, onlyJob)
	}
	return true
}

// runClaimedCell executes one claimed cell of a chain — cctx is the chain's
// context, which its keeper cancels with the lease; ctx the worker's — and
// writes its terminal record, chaining to a follow-up claim when one is
// batched in. Cell completion is first-write-wins in the store: if this
// holder was reclaimed mid-run and both finish, the duplicate
// (byte-identical) result is simply ignored.
func (m *JobManager) runClaimedCell(ctx, cctx context.Context, keeper *leaseKeeper, plan Plan, err error,
	cell store.CellRecord, onlyJob string) (store.CellRecord, bool) {
	prog := &obs.Progress{}
	keeper.hold(cell.Job, cell.Index, prog)
	var data []byte
	if err == nil {
		data, err = guarded(func() ([]byte, error) { return plan.RunCell(cctx, cell.Index, prog) })
	}
	snap := prog.Snapshot()
	switch {
	case keeper.leaseLost():
		// Another replica reclaimed the cell (or the job finished without
		// us); the store would fence any write, so just walk away.
	case err == nil:
		next, ok, werr := m.dur.st.CompleteCellAndClaim(
			cell.Job, cell.Index, m.dur.replica, data, "", snapPtr(snap), true, onlyJob, m.dur.ttl)
		if werr != nil {
			return store.CellRecord{}, false
		}
		cellsDone.Inc()
		return next, ok
	case ctx.Err() != nil:
		// Graceful shutdown: hand the cell back for prompt pickup.
		_ = m.dur.st.ReleaseCell(cell.Job, cell.Index, m.dur.replica)
	default:
		// A deterministic cell failure: record it so the coordinator fails
		// the job; don't chain into more doomed cells of the same grid.
		_, _, _ = m.dur.st.CompleteCellAndClaim(
			cell.Job, cell.Index, m.dur.replica, nil, err.Error(), snapPtr(snap), false, onlyJob, 0)
	}
	return store.CellRecord{}, false
}

// snapPtr boxes a non-zero snapshot, so untracked jobs keep a bare status.
func snapPtr(snap obs.ProgressSnapshot) *obs.ProgressSnapshot {
	if snap == (obs.ProgressSnapshot{}) {
		return nil
	}
	return &snap
}

// durableGet reads one job's status through the store.
func (m *JobManager) durableGet(id string) (JobStatus, bool) {
	rec, ok, err := m.dur.st.Job(id)
	if err != nil || !ok {
		return JobStatus{}, false
	}
	return m.statusFromRecord(rec), true
}

// durableList reads every retained job through the store.
func (m *JobManager) durableList() []JobStatus {
	recs, err := m.dur.st.Jobs()
	if err != nil {
		return nil
	}
	out := make([]JobStatus, 0, len(recs))
	for _, rec := range recs {
		out = append(out, m.statusFromRecord(rec))
	}
	sortJobs(out)
	return out
}

// durableShutdown stops the claim loops and waits for running jobs to
// release their leases. Queued jobs stay queued — they are durable state
// other replicas (or the next start) will claim, not this process's to
// cancel.
func (m *JobManager) durableShutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// defaultReplicaID derives a stable-enough holder identity for a process.
func defaultReplicaID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "replica"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
