package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *JobManager, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, s := range want {
			if status.State == s {
				return status
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want one of %v", id, status.State, want)
	return JobStatus{}
}

// pools are the two kinds of store handle a manager runs over, each with the
// holder name and lease the service gives it: a pool no other handle can
// open, and a store directory.
var pools = []struct {
	name    string
	replica string
	ttl     time.Duration
	open    func(t *testing.T) *store.Store
}{
	{"log-less", "", noExpiry, func(*testing.T) *store.Store { return store.NewMemory(store.Options{}) }},
	{"file-backed", "alpha", time.Minute, func(t *testing.T) *store.Store { return openServiceStore(t, t.TempDir()) }},
}

// oneCell is a one-cell test plan over a closure: the job runs in place,
// the closure reporting to the job's own progress.
type oneCell func(ctx context.Context, prog *obs.Progress) (string, error)

func (oneCell) Label() string { return "" }
func (oneCell) Spec() []byte  { return nil }
func (oneCell) NumCells() int { return 1 }

func (c oneCell) Run(ctx context.Context, prog *obs.Progress) (string, error) { return c(ctx, prog) }

func (c oneCell) RunCell(ctx context.Context, _ int, prog *obs.Progress) ([]byte, error) {
	out, err := c(ctx, prog)
	return []byte(out), err
}

func (oneCell) Merge(frames [][]byte) (string, error) { return string(frames[0]), nil }

// runWhole is a Dispatch whose every job is a one-cell plan over run.
func runWhole(run func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error)) Dispatch {
	return Dispatch{Plan: func(kind string, payload []byte) (Plan, error) {
		return oneCell(func(ctx context.Context, prog *obs.Progress) (string, error) {
			return run(ctx, kind, payload, prog)
		}), nil
	}}
}

// closures is a Dispatch over test closures: a job's payload names the
// closure that is its work.
type closures map[string]func(ctx context.Context, prog *obs.Progress) (string, error)

func (c closures) dispatch() Dispatch {
	return runWhole(func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
		var name string
		if err := json.Unmarshal(payload, &name); err != nil {
			return "", err
		}
		return c[name](ctx, prog)
	})
}

// submitNamed queues the closure called name.
func submitNamed(m *JobManager, name string) (JobStatus, error) {
	payload, _ := json.Marshal(name)
	return m.SubmitPayload(name, payload)
}

// untilCancelled is a job that ends when its context does, like the studies.
func untilCancelled(ctx context.Context, _ *obs.Progress) (string, error) {
	<-ctx.Done()
	return "", ctx.Err()
}

// newManager starts a manager over a fresh pool of one kind, shut down with
// the test.
type newManager func(t *testing.T, workers, queueCap, retain int, jobs closures) *JobManager

// onBothPools runs one lifecycle case against both kinds of handle; whatever
// differs between them is named in the case.
func onBothPools(t *testing.T, test func(t *testing.T, manager newManager)) {
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			test(t, func(t *testing.T, workers, queueCap, retain int, jobs closures) *JobManager {
				m := NewJobManager(workers, queueCap, retain, pool.open(t), pool.replica, pool.ttl, jobs.dispatch())
				t.Cleanup(func() { m.Shutdown(context.Background()) })
				return m
			})
		})
	}
}

func TestJobLifecycle(t *testing.T)              { onBothPools(t, lifecycleDoneAndFailed) }
func TestJobQueueBounded(t *testing.T)           { onBothPools(t, lifecycleQueueBounded) }
func TestJobRetentionEvictsOldest(t *testing.T)  { onBothPools(t, lifecycleRetention) }
func TestWatchLongPoll(t *testing.T)             { onBothPools(t, lifecycleWatch) }
func TestLifecyclePanicFailsTheJob(t *testing.T) { onBothPools(t, lifecyclePanic) }
func TestShutdownCancelsQueuedAndRunningJobs(t *testing.T) {
	onBothPools(t, lifecycleShutdown)
}

func lifecycleDoneAndFailed(t *testing.T, manager newManager) {
	m := manager(t, 2, 4, 8, closures{
		"greet": func(context.Context, *obs.Progress) (string, error) { return "hello", nil },
		"fail":  func(context.Context, *obs.Progress) (string, error) { return "", errors.New("boom") },
	})
	status, err := submitNamed(m, "greet")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobQueued {
		t.Fatalf("initial state = %s, want queued", status.State)
	}
	done := waitState(t, m, status.ID, JobDone)
	if done.Output != "hello" || done.Error != "" {
		t.Errorf("done job = %+v, want output hello and no error", done)
	}
	if done.Started == nil || done.Ended == nil || done.Progress != nil {
		t.Errorf("done job = %+v, want started, ended and no progress", done)
	}
	// The holder shows exactly when there are other holders to tell it from.
	if done.Replica != m.Replica() || done.Restarts != 0 {
		t.Errorf("replica/restarts = %q/%d, want %q/0", done.Replica, done.Restarts, m.Replica())
	}

	next, err := submitNamed(m, "fail")
	if err != nil {
		t.Fatal(err)
	}
	if failed := waitState(t, m, next.ID, JobFailed); failed.Error != "boom" {
		t.Errorf("error = %q, want boom", failed.Error)
	}
	if jobNumber(next.ID) <= jobNumber(status.ID) {
		t.Errorf("job IDs %s then %s, want strictly increasing", status.ID, next.ID)
	}
}

// jobNumber is n of "job-<n>".
func jobNumber(id string) int {
	var n int
	fmt.Sscanf(id, "job-%d", &n)
	return n
}

func lifecycleQueueBounded(t *testing.T, manager newManager) {
	block := make(chan struct{})
	m := manager(t, 1, 2, 8, closures{"block": func(ctx context.Context, _ *obs.Progress) (string, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}})
	// One running + two queued fill the worker and the queue.
	var ids []string
	for i := 0; i < 3; i++ {
		status, err := submitNamed(m, "block")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, status.ID)
		if i == 0 {
			waitState(t, m, status.ID, JobRunning)
		}
	}
	if _, err := submitNamed(m, "block"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	close(block)
	for _, id := range ids {
		waitState(t, m, id, JobDone)
	}
	if _, err := submitNamed(m, "block"); err != nil {
		t.Fatalf("submit into the drained queue: %v", err)
	}
}

func lifecycleShutdown(t *testing.T, manager newManager) {
	m := manager(t, 1, 4, 8, closures{
		"running": untilCancelled,
		"queued":  func(ctx context.Context, _ *obs.Progress) (string, error) { return "should not run", ctx.Err() },
	})
	running, err := submitNamed(m, "running")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)
	var queued []string
	for i := 0; i < 3; i++ {
		status, err := submitNamed(m, "queued")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, status.ID)
	}

	cancelledBefore := jobsCancelled.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// What a pool nobody else can open ends as cancelled — and is counted so
	// — a store directory keeps queued for whoever opens it next.
	want, counted := JobCancelled, uint64(4)
	if m.Durable() {
		want, counted = JobQueued, 0
	}
	if got := jobsCancelled.Value() - cancelledBefore; got != counted {
		t.Errorf(`repro_jobs_completed_total{state="cancelled"} rose by %d, want %d`, got, counted)
	}
	got, _ := m.Get(running.ID)
	if got.State != want || (want == JobCancelled && got.Error == "") {
		t.Errorf("running job after shutdown = %+v, want %s (with its error, if cancelled)", got, want)
	}
	for _, id := range queued {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("queued job %s evicted", id)
		}
		if status.State != want || status.Output != "" {
			t.Errorf("queued job %s after shutdown = %+v, want %s and no output", id, status, want)
		}
	}
	if _, err := submitNamed(m, "queued"); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

func lifecycleRetention(t *testing.T, manager newManager) {
	m := manager(t, 1, 8, 2, closures{
		"quick": func(context.Context, *obs.Progress) (string, error) { return "ok", nil },
	})
	var ids []string
	for i := 0; i < 5; i++ {
		status, err := submitNamed(m, "quick")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, status.ID)
		waitState(t, m, status.ID, JobDone) // serialise so eviction order is stable
	}
	if m.Durable() {
		// A store directory prunes when it compacts, which a terminal write
		// brings on only once the log has outgrown the snapshot
		// (TestDurableRetentionCompactsStore); without a log it is every one.
		if err := m.st.Compact(2); err != nil {
			t.Fatal(err)
		}
	}
	// The prune follows the terminal write the poll above can already see.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.List()) != 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Fatalf("retained %+v, want the two most recent %s, %s", list, ids[3], ids[4])
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Errorf("oldest job %s still retrievable", ids[0])
	}
}

// lifecycleWatch exercises the long-poll: a watch returns early on a progress
// move, again on the state transition, and immediately for terminal jobs; a
// missing ID reports false.
func lifecycleWatch(t *testing.T, manager newManager) {
	old := watchPoll
	watchPoll = 5 * time.Millisecond
	defer func() { watchPoll = old }()

	release := make(chan struct{})
	progress := make(chan *obs.Progress, 1)
	m := manager(t, 1, 4, 4, closures{"study": func(_ context.Context, p *obs.Progress) (string, error) {
		progress <- p
		<-release
		return "out", nil
	}})
	status, err := submitNamed(m, "study")
	if err != nil {
		t.Fatal(err)
	}
	prog := <-progress
	if got, _ := m.Get(status.ID); got.State != JobRunning || got.Progress != nil {
		t.Fatalf("running job that reported nothing = %+v, want no progress", got)
	}

	// A progress move alone must wake the watcher.
	go func() {
		time.Sleep(20 * time.Millisecond)
		prog.AddCellsTotal(10)
		prog.AddCellsDone(3)
	}()
	got, ok := m.Watch(context.Background(), status.ID, 5*time.Second)
	if !ok {
		t.Fatal("watch lost the job")
	}
	if got.State != JobRunning || got.Progress == nil || got.Progress.CellsTotal != 10 {
		t.Fatalf("watch after progress move = %+v, want running with cells_total 10", got)
	}

	// The terminal transition must wake the next watcher, well before the
	// poll interval would have.
	watchPoll = time.Minute
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	begin := time.Now()
	got, ok = m.Watch(context.Background(), status.ID, 30*time.Second)
	wg.Wait()
	if !ok || got.State != JobDone || got.Progress == nil || got.Progress.CellsDone != 3 {
		t.Fatalf("watch after completion = %+v (ok=%v), want done with cells_done 3", got, ok)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("watch learnt of the job's end after %s", elapsed)
	}

	// Terminal jobs return immediately, well inside the watch window.
	begin = time.Now()
	got, ok = m.Watch(context.Background(), status.ID, 5*time.Second)
	if !ok || got.State != JobDone {
		t.Fatalf("watch on finished job = %+v (ok=%v)", got, ok)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("watch on terminal job blocked %s", elapsed)
	}

	if _, ok := m.Watch(context.Background(), "job-999", time.Millisecond); ok {
		t.Error("watch on unknown job reported ok")
	}
}

func lifecyclePanic(t *testing.T, manager newManager) {
	m := manager(t, 1, 4, 4, closures{
		"bad":  func(context.Context, *obs.Progress) (string, error) { panic("kaboom") },
		"good": func(context.Context, *obs.Progress) (string, error) { return "fine", nil },
	})
	bad, err := submitNamed(m, "bad")
	if err != nil {
		t.Fatal(err)
	}
	good, err := submitNamed(m, "good")
	if err != nil {
		t.Fatal(err)
	}
	if failed := waitState(t, m, bad.ID, JobFailed); !strings.Contains(failed.Error, "panic: kaboom") {
		t.Errorf("panicking job's error = %q, want the panic value", failed.Error)
	}
	if done := waitState(t, m, good.ID, JobDone); done.Output != "fine" {
		t.Errorf("job after the panic = %+v, want done", done)
	}
}
