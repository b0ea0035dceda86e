package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// One job lifecycle. A submission appends a (kind, payload) record to the
// manager's store handle; the manager's claim loops take queued jobs by
// lease, renew while running, and write the terminal transition back. Over a
// handle on a directory the pool is shared: every replica on the directory
// claims from it, any of them serves status reads for any job, and a job
// whose holder dies mid-run is reclaimed after lease expiry and restarted
// from its payload on a survivor (deterministic work makes the rerun's output
// identical to an uninterrupted one). Over a handle without one
// (store.NewMemory) the same loop runs under a lease nobody can outlive, and
// everything dies with the process.

// Job-queue telemetry: submission and completion counters (by terminal
// state), live queue-depth and running gauges, and duration histograms by
// job family. All process-wide; multiple managers share the series.
var (
	jobsSubmitted = obs.Default.Counter("repro_jobs_submitted_total",
		"Jobs accepted into the queue.")
	jobsDone = obs.Default.Counter("repro_jobs_completed_total",
		"Jobs that reached a terminal state, by state.", obs.L("state", "done"))
	jobsFailed = obs.Default.Counter("repro_jobs_completed_total",
		"Jobs that reached a terminal state, by state.", obs.L("state", "failed"))
	jobsCancelled = obs.Default.Counter("repro_jobs_completed_total",
		"Jobs that reached a terminal state, by state.", obs.L("state", "cancelled"))
	jobsQueueDepth = obs.Default.Gauge("repro_jobs_queue_depth",
		"Jobs waiting in the queue.")
	jobsRunning = obs.Default.Gauge("repro_jobs_running",
		"Jobs currently executing.")
)

// jobDuration returns a job family's duration histogram. Callers pass the
// table's family names, never job kinds, so label cardinality cannot grow
// with user-chosen names.
func jobDuration(family string) *obs.Histogram {
	return obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", family))
}

// Dispatch is how a job manager turns (kind, payload) submission records
// back into work. The service fills it from its family table.
type Dispatch struct {
	// Plan resolves a job to its plan of cells. A plan of one cell runs in
	// place on the claim loop that took the job; a larger one is sharded:
	// the claiming loop becomes the coordinator and every claim loop on the
	// pool executes cells. Plan must be deterministic: every replica
	// resolving the same (kind, payload) must see the same plan.
	Plan func(kind string, payload []byte) (Plan, error)
	// Family maps a job kind to its duration-histogram label; a nil Family,
	// or a kind it maps to "", files no duration.
	Family func(kind string) string
}

// observeDuration files one finished job's wall-clock under its family.
func (d Dispatch) observeDuration(kind string, elapsed time.Duration) {
	if d.Family == nil {
		return
	}
	if family := d.Family(kind); family != "" {
		jobDuration(family).Observe(elapsed.Seconds())
	}
}

// JobState is the lifecycle of a queued job.
type JobState string

const (
	// JobQueued means the job is waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning means a worker is executing the job.
	JobRunning JobState = "running"
	// JobDone means the job finished and its output is retained.
	JobDone JobState = "done"
	// JobFailed means the job returned an error.
	JobFailed JobState = "failed"
	// JobCancelled means the job was aborted by shutdown before or while
	// running.
	JobCancelled JobState = "cancelled"
)

// JobStatus is the externally visible record of a job. Started and Ended
// are pointers so omitempty elides them while unset (encoding/json never
// considers a plain time.Time empty); once set they are never mutated.
type JobStatus struct {
	ID      string     `json:"id"`
	Kind    string     `json:"kind"`
	State   JobState   `json:"state"`
	Created time.Time  `json:"created"`
	Started *time.Time `json:"started,omitempty"`
	Ended   *time.Time `json:"ended,omitempty"`
	// Output is the job's result (a rendered study report) once done.
	Output string `json:"output,omitempty"`
	// Error is the failure message for failed/cancelled jobs.
	Error string `json:"error,omitempty"`
	// Progress is the live (or, once finished, final) progress snapshot:
	// cells completed and — for Monte Carlo studies — trials drawn against
	// the budget. Elided while nothing has been reported.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	// Replica is the lease holder running (or, once finished, the one that
	// ran) the job; set only by replicas of a store directory.
	Replica string `json:"replica,omitempty"`
	// Restarts counts lease takeovers: how many times the job was reclaimed
	// from a dead or wedged replica and restarted on another.
	Restarts int `json:"restarts,omitempty"`
}

// guarded runs fn — a job in place, or one cell — and turns a panic in it into
// an error carrying the panic value and the top of the stack, so that what
// fails is the job and not the process serving every other job. Whatever fn
// held at the panic (a pooled scratch, a replayer) is dropped with its
// frames, not released.
func guarded[T any](fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r, debug.Stack())
		}
	}()
	return fn()
}

// panicStackLines bounds the stack kept in a job's Error: enough to name the
// panicking frame and its callers, not the goroutine's life story.
const panicStackLines = 16

// panicError renders a recovered panic. A panic relayed from a cell worker
// goroutine (experiments.CellPanic) carries the stack of the goroutine that
// raised it, which is the one worth keeping.
func panicError(r any, stack []byte) error {
	if cp, ok := r.(experiments.CellPanic); ok {
		r, stack = cp.Value, cp.Stack
	}
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	if len(lines) > panicStackLines {
		lines = append(lines[:panicStackLines], "...")
	}
	return fmt.Errorf("panic: %v\n%s", r, strings.Join(lines, "\n"))
}

// ErrQueueFull is returned by SubmitPayload when the pool already holds the
// manager's bound of queued jobs.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShuttingDown is returned by SubmitPayload after Shutdown started.
var ErrShuttingDown = errors.New("service: shutting down")

// leaseSweep is the one periodic timer left on the idle path. New work is
// announced by the store (store.WaitChange); what nothing announces is a
// lease running out, so every worker that waits still looks again this often.
const leaseSweep = 100 * time.Millisecond

// noExpiry is the lease of a manager whose pool no other handle can open:
// long enough that neither the expiry nor a renewal (every third of it) ever
// comes due.
const noExpiry = 50 * 365 * 24 * time.Hour

// walCompactBytes is the least WAL a terminal transition compacts away (a
// larger snapshot raises the bar to its own size; see store.CompactPast); a
// variable so tests can force compaction early.
var walCompactBytes = int64(256 << 10)

// JobManager runs the jobs of one store handle's pool on a fixed set of
// claim loops and serves their status. The store retains the results of the
// most recent finished jobs.
type JobManager struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // the claim loops, sharded jobs' gathers, and submissions in flight

	st       *store.Store
	replica  string
	ttl      time.Duration
	queueCap int
	retain   int
	dispatch Dispatch
	// fallback is how long a worker with nothing to do sleeps at most before
	// looking again unprompted; leaseSweep outside tests.
	fallback time.Duration

	mu     sync.Mutex
	closed bool
	// local tracks jobs running on this manager, so status reads overlay
	// their live progress over the (renew-cadence) snapshots in the store.
	local map[string]*obs.Progress

	lastHeartbeat atomic.Int64 // unix nanos of the last replica record
}

// NewJobManager starts workers claim-loop goroutines over st's pool,
// refusing submissions while queueCap jobs are queued and retaining the last
// retain finished jobs, both counted across every handle on the pool (all
// three are clamped to at least 1). The replica name is this manager's lease
// holder identity; ttl is the lease duration (default 10s, renewed at ttl/3
// while a job runs). A job dispatch.Plan resolves to several cells is planned
// into cell work-units that every claim loop on the pool cooperates on.
func NewJobManager(workers, queueCap, retain int, st *store.Store, replica string, ttl time.Duration, dispatch Dispatch) *JobManager {
	return newJobManager(workers, queueCap, retain, st, replica, ttl, dispatch, leaseSweep)
}

// newJobManager is NewJobManager with the fallback deadline as a parameter:
// the service pushes it out of the way where no lease can run out, tests to
// prove a wake came from the store's signal and not from the timer.
func newJobManager(workers, queueCap, retain int, st *store.Store, replica string, ttl time.Duration, dispatch Dispatch, fallback time.Duration) *JobManager {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		ctx: ctx, cancel: cancel,
		st: st, replica: replica, ttl: ttl,
		queueCap: max(queueCap, 1), retain: max(retain, 1),
		dispatch: dispatch, fallback: fallback,
		local: make(map[string]*obs.Progress),
	}
	for i := 0; i < max(workers, 1); i++ {
		m.wg.Add(1)
		go m.claimLoop()
	}
	return m
}

// Durable reports whether the manager's pool is a store directory, which
// other replicas share and which outlives the process.
func (m *JobManager) Durable() bool { return m.st.Dir() != "" }

// Replica returns the manager's lease-holder identity.
func (m *JobManager) Replica() string { return m.replica }

// SubmitPayload appends a (kind, payload) submission record to the pool and
// returns its initial status. It never waits for room: a full queue is
// ErrQueueFull.
func (m *JobManager) SubmitPayload(kind string, payload json.RawMessage) (JobStatus, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	m.wg.Add(1) // Shutdown waits for this submission before it looks at the queue
	m.mu.Unlock()
	defer m.wg.Done()
	rec, err := m.st.SubmitJobBounded(kind, payload, m.queueCap)
	if errors.Is(err, store.ErrQueueFull) {
		err = ErrQueueFull
	}
	if err != nil {
		return JobStatus{}, err
	}
	jobsSubmitted.Inc()
	jobsQueueDepth.Set(int64(m.st.Queued()))
	return m.statusFromRecord(rec), nil
}

// statusFromRecord maps a store record to the external status shape,
// overlaying live local progress for jobs running on this manager.
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
	m.mu.Lock()
	prog, local := m.local[rec.ID]
	m.mu.Unlock()
	if local && rec.State == store.StateRunning {
		if snap := snapPtr(prog.Snapshot()); snap != nil {
			status.Progress = snap
		}
	}
	return status
}

// snapPtr boxes a non-zero snapshot, so a job that reports nothing keeps a
// bare status.
func snapPtr(snap obs.ProgressSnapshot) *obs.ProgressSnapshot {
	if snap == (obs.ProgressSnapshot{}) {
		return nil
	}
	return &snap
}

// Get returns a job's status by ID.
func (m *JobManager) Get(id string) (JobStatus, bool) {
	rec, ok, err := m.st.Job(id)
	if err != nil || !ok {
		return JobStatus{}, false
	}
	return m.statusFromRecord(rec), true
}

// List returns all retained jobs, oldest submission first.
func (m *JobManager) List() []JobStatus {
	recs, err := m.st.Jobs()
	if err != nil {
		return nil
	}
	out := make([]JobStatus, 0, len(recs))
	for _, rec := range recs {
		out = append(out, m.statusFromRecord(rec))
	}
	return out
}

// watchPoll is how often Watch looks for progress movement, which nothing
// announces; a variable so tests can tighten it. A state transition does not
// wait for it.
var watchPoll = 150 * time.Millisecond

// terminalState reports whether a job can no longer change.
func terminalState(s JobState) bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// statusChanged reports whether a job's externally visible status moved
// between two reads: a state transition or any progress movement.
func statusChanged(a, b JobStatus) bool {
	if a.State != b.State {
		return true
	}
	if (a.Progress == nil) != (b.Progress == nil) {
		return true
	}
	return a.Progress != nil && *a.Progress != *b.Progress
}

// Watch long-polls one job: it blocks until the job's state or progress
// changes from what the caller would see right now, then returns the new
// status. It returns the current status unchanged once d elapses or ctx is
// cancelled, and false only if the job does not exist (or was evicted from
// retention mid-watch). Jobs already in a terminal state return immediately.
// A job's end wakes the watch through the store's change wait, whichever
// replica finished it; progress movement, which nothing announces, is noticed
// every watchPoll.
func (m *JobManager) Watch(ctx context.Context, id string, d time.Duration) (JobStatus, bool) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var base JobStatus
	for first := true; ; first = false {
		stamp := m.st.Stamp() // taken before the read: nothing in between is missed
		cur, ok := m.Get(id)
		if !ok {
			return JobStatus{}, false
		}
		if first {
			base = cur
		}
		if terminalState(cur.State) || statusChanged(base, cur) || ctx.Err() != nil {
			return cur, true
		}
		m.st.WaitChange(ctx, stamp, watchPoll)
	}
}

// claimLoop is one worker's life: claim a job when one is available, run
// it; failing that, claim cells of sharded jobs other loops coordinate;
// failing that, heartbeat and sleep until the store announces work. A worker
// woken for work another worker took finds nothing, writes nothing and sleeps
// again.
func (m *JobManager) claimLoop() {
	defer m.wg.Done()
	for m.ctx.Err() == nil {
		stamp := m.st.Stamp()
		rec, ok, err := m.st.Claim(m.replica, m.ttl)
		jobsQueueDepth.Set(int64(m.st.Queued()))
		if err == nil && ok {
			m.runJob(rec)
			continue
		}
		if m.runCells(m.ctx, "") {
			continue
		}
		m.heartbeat()
		m.st.WaitChange(m.ctx, stamp, m.fallback)
	}
}

// heartbeat registers the replica as live, at most every ttl/2.
func (m *JobManager) heartbeat() {
	now := time.Now().UnixNano()
	last := m.lastHeartbeat.Load()
	if now-last < int64(m.ttl/2) || !m.lastHeartbeat.CompareAndSwap(last, now) {
		return
	}
	_ = m.st.Heartbeat(m.replica, 2*m.ttl)
}

// runJob executes one claimed job under a lease keeper, which keeps the
// lease (and the stored progress snapshot) fresh while the job runs; losing
// the lease cancels the run. A plan of one cell runs in place, reporting to
// the job's own progress. A larger one is sharded: the loop plans its cells
// and hands the job to a gather goroutine, which holds no claim loop, folds
// the cells' progress, merges them and ends the job; the loop runs the cells,
// helped by claim loops with no job to claim, until none is left to claim,
// and goes back to claiming. Terminal transitions are fenced by holder in the
// store, so a takeover can never be overwritten by the loser.
func (m *JobManager) runJob(rec store.JobRecord) {
	prog := &obs.Progress{}
	m.mu.Lock()
	m.local[rec.ID] = prog
	m.mu.Unlock()

	keeper, ctx := m.keepLease(m.ctx)
	keeper.hold(rec.ID, -1, prog)

	jobsRunning.Inc()
	started := time.Now()
	end := func(out string, err error) {
		jobsRunning.Dec()
		keeper.stop()
		m.dispatch.observeDuration(rec.Kind, time.Since(started))
		if m.settle(m.ctx, keeper, err) {
			m.finish(rec.ID, out, err, prog)
		}
		_ = m.st.CompactPast(walCompactBytes, m.retain)
		m.mu.Lock()
		delete(m.local, rec.ID)
		m.mu.Unlock()
	}

	plan, err := m.dispatch.Plan(rec.Kind, rec.Payload)
	switch {
	case err != nil:
		end("", err)
	case plan.NumCells() <= 1:
		end(guarded(func() (string, error) { return plan.Run(ctx, prog) }))
	default:
		// The cells go to the pool, where every claim loop on it — this
		// replica's included — picks them up. The total is counted before
		// the write, which wakes the job's watchers, who should find it there.
		prog.AddCellsTotal(int64(plan.NumCells()))
		if err := m.st.PlanCells(rec.ID, plan.NumCells()); err != nil {
			end("", err)
			return
		}
		m.wg.Add(1) // Shutdown waits for the gather like for a claim loop
		go func() {
			defer m.wg.Done()
			end(m.gather(ctx, rec.ID, plan, prog))
		}()
		m.runCells(ctx, rec.ID)
	}
}

// finish writes the end of a job its worker settled — done with its output
// when err is nil, failed with err otherwise — and counts it, unless the
// store fences the write.
func (m *JobManager) finish(id, out string, err error, prog *obs.Progress) {
	count, werr := jobsFailed, error(nil)
	if err == nil {
		count, werr = jobsDone, m.st.Complete(id, m.replica, out, snapPtr(prog.Snapshot()))
	} else {
		werr = m.st.Fail(id, m.replica, err.Error())
	}
	if werr == nil {
		count.Inc()
	}
}

// Shutdown stops the claim loops — cancelling their shared context, which
// aborts running jobs at their next cancellation point — and waits for them
// to let go of what they hold, or for ctx to expire. Letting go is a release:
// running jobs go back to the queue. On a store directory queued jobs stay
// there, durable state other replicas (or the next start) will claim. A pool
// no other handle can open has nobody to leave them to, so they end
// cancelled.
func (m *JobManager) Shutdown(ctx context.Context) error {
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
		defer close(done)
		m.wg.Wait()
		if m.Durable() {
			return
		}
		for _, j := range m.List() {
			if j.State == JobQueued && m.st.Cancel(j.ID, m.replica, context.Canceled.Error()) == nil {
				jobsCancelled.Inc()
			}
		}
		jobsQueueDepth.Set(0)
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
