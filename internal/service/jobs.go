package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

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

// studyFamily is the duration label of every job outside the family table.
const studyFamily = "study"

// jobDuration returns a job family's duration histogram. Callers pass family
// names — the table's, or studyFamily — never job kinds, so label
// cardinality cannot grow with user-chosen names.
func jobDuration(family string) *obs.Histogram {
	return obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", family))
}

// PayloadRunner materialises a job from its submission record and runs it
// whole. The service installs a runner that dispatches on kind: kinds in
// the family table decode their specs, everything else is a study request.
type PayloadRunner func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error)

// Dispatch is how a job manager turns (kind, payload) submission records
// back into work. The service hands both backends the same one, filled from
// its family table.
type Dispatch struct {
	// Run executes a job whole.
	Run PayloadRunner
	// Plan, when non-nil, shards the kinds it resolves to a plan at cell
	// granularity on the durable backend: the claiming replica becomes the
	// coordinator and every replica's claim loops execute cells. It returns
	// (nil, nil) for kinds that run whole, and must be deterministic: every
	// replica resolving the same (kind, payload) must see the same plan. The
	// in-memory backend has one process to run on and ignores it.
	Plan func(kind string, payload []byte) (Plan, error)
	// Family maps a job kind to its duration-histogram label; nil files
	// every job under studyFamily.
	Family func(kind string) string
}

// observeDuration files one finished job's wall-clock under its family.
func (d Dispatch) observeDuration(kind string, elapsed time.Duration) {
	family := studyFamily
	if d.Family != nil {
		family = d.Family(kind)
	}
	jobDuration(family).Observe(elapsed.Seconds())
}

// JobState is the lifecycle of a queued study run.
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
	// Progress is the live (or, once finished, final) progress snapshot of
	// jobs submitted with SubmitTracked: cells completed and — for Monte
	// Carlo studies — trials drawn against the budget.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	// Replica is the lease holder running (or, once finished, the one that
	// ran) the job; set only on store-backed clusters.
	Replica string `json:"replica,omitempty"`
	// Restarts counts lease takeovers: how many times the job was reclaimed
	// from a dead or wedged replica and restarted on another.
	Restarts int `json:"restarts,omitempty"`
}

// JobFunc is the work a job performs; it must honour ctx promptly.
type JobFunc func(ctx context.Context) (string, error)

// TrackedJobFunc is a JobFunc that reports live progress: the manager owns
// the record and snapshots it into every status read while the job runs.
type TrackedJobFunc func(ctx context.Context, prog *obs.Progress) (string, error)

type job struct {
	status   JobStatus
	fn       JobFunc
	progress *obs.Progress
	// ended is closed by finish, when the job reaches a terminal state.
	ended chan struct{}
}

// guarded runs fn — a whole job, or one cell — and turns a panic in it into
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

// ErrQueueFull is returned by Submit when the bounded queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown started.
var ErrShuttingDown = errors.New("service: shutting down")

// JobManager runs submitted jobs on a fixed worker pool, tracks their
// states, and retains the results of the most recent finished jobs. It has
// two backends: in-memory (NewJobManager — a bounded queue, everything dies
// with the process) and durable (NewDurableJobManager — a shared store.Store
// where N replicas claim jobs by lease; see durable.go).
type JobManager struct {
	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *job
	wg     sync.WaitGroup
	retain int
	// dispatch runs (kind, payload) submissions; closure submissions
	// (Submit, SubmitTracked) carry their own work.
	dispatch Dispatch

	// dur is non-nil for store-backed managers.
	dur *durable

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first, for retention
	nextID   int
	closed   bool
}

// NewJobManager starts workers goroutines over a queue of queueCap pending
// jobs, retaining the last retain finished jobs (all values are clamped to
// at least 1). SubmitPayload jobs run through dispatch; a zero Dispatch
// leaves the manager to closure submissions.
func NewJobManager(workers, queueCap, retain int, dispatch Dispatch) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if retain < 1 {
		retain = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *job, queueCap),
		retain:   retain,
		dispatch: dispatch,
		jobs:     make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

func (m *JobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j, ok := <-m.queue:
			if !ok {
				return
			}
			m.run(j)
		}
	}
}

func (m *JobManager) run(j *job) {
	jobsQueueDepth.Dec()
	m.mu.Lock()
	if j.status.State != JobQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	j.status.State = JobRunning
	started := time.Now()
	j.status.Started = &started
	m.mu.Unlock()

	jobsRunning.Inc()
	out, err := guarded(func() (string, error) { return j.fn(m.ctx) })
	jobsRunning.Dec()

	m.mu.Lock()
	defer m.mu.Unlock()
	ended := time.Now()
	j.status.Ended = &ended
	m.dispatch.observeDuration(j.status.Kind, ended.Sub(started))
	switch {
	case err == nil:
		j.status.State = JobDone
		j.status.Output = out
		jobsDone.Inc()
	case errors.Is(err, context.Canceled) || m.ctx.Err() != nil:
		j.status.State = JobCancelled
		j.status.Error = err.Error()
		jobsCancelled.Inc()
	default:
		j.status.State = JobFailed
		j.status.Error = err.Error()
		jobsFailed.Inc()
	}
	m.finish(j.status.ID)
}

// finish records a finished job, releases whoever watches it, and evicts
// beyond the retention window. Callers hold m.mu.
func (m *JobManager) finish(id string) {
	close(m.jobs[id].ended)
	m.finished = append(m.finished, id)
	for len(m.finished) > m.retain {
		evict := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, evict)
	}
}

// Submit enqueues a job and returns its initial status. It never blocks:
// a full queue returns ErrQueueFull.
func (m *JobManager) Submit(kind string, fn JobFunc) (JobStatus, error) {
	return m.submit(kind, fn, nil)
}

// SubmitTracked enqueues a job that reports live progress: fn receives a
// progress record owned by the manager, and every status read while (and
// after) the job runs carries its latest snapshot — the data behind the
// ?watch long-poll and the CLI progress ticker. The record is write-only
// for fn; nothing the job computes may depend on it.
func (m *JobManager) SubmitTracked(kind string, fn TrackedJobFunc) (JobStatus, error) {
	prog := &obs.Progress{}
	return m.submit(kind, func(ctx context.Context) (string, error) { return fn(ctx, prog) }, prog)
}

// SubmitPayload queues a (kind, payload) submission record for the manager's
// Dispatch: on the durable backend it is appended to the shared pool, in
// memory it waits on the bounded queue. tracked attaches a live progress
// record from the moment of submission on the in-memory backend; the store
// keeps one for every job and elides it while empty, so there it changes
// nothing.
func (m *JobManager) SubmitPayload(kind string, payload json.RawMessage, tracked bool) (JobStatus, error) {
	if m.dur != nil {
		return m.durableSubmit(kind, payload)
	}
	if m.dispatch.Run == nil {
		return JobStatus{}, errors.New("service: job manager has no payload runner")
	}
	run := func(ctx context.Context, prog *obs.Progress) (string, error) {
		return m.dispatch.Run(ctx, kind, payload, prog)
	}
	if tracked {
		return m.SubmitTracked(kind, run)
	}
	return m.Submit(kind, func(ctx context.Context) (string, error) { return run(ctx, nil) })
}

func (m *JobManager) submit(kind string, fn JobFunc, prog *obs.Progress) (JobStatus, error) {
	if m.dur != nil {
		return JobStatus{}, errors.New("service: closure submits need the in-memory manager; durable jobs go through SubmitPayload")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	m.nextID++
	j := &job{
		status: JobStatus{
			ID:      fmt.Sprintf("job-%d", m.nextID),
			Kind:    kind,
			State:   JobQueued,
			Created: time.Now(),
		},
		fn:       fn,
		progress: prog,
		ended:    make(chan struct{}),
	}
	m.jobs[j.status.ID] = j
	// Copy before enqueueing: a worker may start mutating j.status the
	// moment it leaves the queue.
	status := j.status
	m.mu.Unlock()

	select {
	case m.queue <- j:
		jobsSubmitted.Inc()
		jobsQueueDepth.Inc()
		return status, nil
	default:
		m.mu.Lock()
		delete(m.jobs, status.ID)
		m.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
}

// statusLocked copies a job's status, stamping tracked jobs with their
// current progress snapshot. Callers hold m.mu.
func (m *JobManager) statusLocked(j *job) JobStatus {
	status := j.status
	if j.progress != nil {
		snap := j.progress.Snapshot()
		status.Progress = &snap
	}
	return status
}

// Get returns a job's status by ID.
func (m *JobManager) Get(id string) (JobStatus, bool) {
	if m.dur != nil {
		return m.durableGet(id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return m.statusLocked(j), true
}

// List returns all retained jobs, oldest submission first.
func (m *JobManager) List() []JobStatus {
	if m.dur != nil {
		return m.durableList()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	sortJobs(out)
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
// A job's end wakes the watch — through the job itself in memory, through
// the store's change wait on a cluster, whichever replica finished it — and
// progress movement is noticed every watchPoll.
func (m *JobManager) Watch(ctx context.Context, id string, d time.Duration) (JobStatus, bool) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var base JobStatus
	for first := true; ; first = false {
		wait := m.awaitChange(id) // armed before the read: nothing in between is missed
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
		wait(ctx)
	}
}

// awaitChange returns a wait for the next moment job id may look different:
// its end, which is announced, or watchPoll later, for progress.
func (m *JobManager) awaitChange(id string) func(context.Context) {
	if m.dur != nil {
		stamp := m.dur.st.Stamp()
		return func(ctx context.Context) { m.dur.st.WaitChange(ctx, stamp, watchPoll) }
	}
	var ended chan struct{} // stays nil, and silent, for a job that is gone
	m.mu.Lock()
	if j := m.jobs[id]; j != nil {
		ended = j.ended
	}
	m.mu.Unlock()
	return func(ctx context.Context) {
		tick := time.NewTimer(watchPoll)
		defer tick.Stop()
		select {
		case <-ctx.Done():
		case <-ended:
		case <-tick.C:
		}
	}
}

// Shutdown cancels the shared context (aborting running jobs at their next
// cancellation point), marks still-queued jobs cancelled, and waits for the
// workers to drain or ctx to expire. Durable managers instead release their
// running jobs' leases and leave queued jobs for other replicas.
func (m *JobManager) Shutdown(ctx context.Context) error {
	if m.dur != nil {
		return m.durableShutdown(ctx)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	m.cancel()
	// Drain jobs still sitting in the queue; run() skips any it raced with.
	for {
		select {
		case j := <-m.queue:
			jobsQueueDepth.Dec()
			m.mu.Lock()
			if j.status.State == JobQueued {
				j.status.State = JobCancelled
				ended := time.Now()
				j.status.Ended = &ended
				j.status.Error = context.Canceled.Error()
				jobsCancelled.Inc()
				m.finish(j.status.ID)
			}
			m.mu.Unlock()
			continue
		default:
		}
		break
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		// Workers raced the drain loop for queued jobs; whatever they
		// pulled after cancellation was marked cancelled in run(). Mark any
		// survivors (enqueued between drain and worker exit).
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.status.State == JobQueued {
				j.status.State = JobCancelled
				ended := time.Now()
				j.status.Ended = &ended
				j.status.Error = context.Canceled.Error()
				jobsQueueDepth.Dec()
				jobsCancelled.Inc()
				m.finish(j.status.ID)
			}
		}
		m.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sortJobs orders by submission (IDs are "job-<n>").
func sortJobs(jobs []JobStatus) {
	num := func(id string) int {
		n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
		return n
	}
	sort.Slice(jobs, func(a, b int) bool { return num(jobs[a].ID) < num(jobs[b].ID) })
}
