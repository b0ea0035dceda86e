package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// never is a fallback deadline no test outlives: whatever happens under it
// happened because something was announced.
const never = 10 * time.Second

// signalRunner runs every job by announcing it on started and returning.
func signalRunner(started chan<- string) Dispatch {
	return runWhole(func(_ context.Context, kind string, _ []byte, _ *obs.Progress) (string, error) {
		started <- kind
		return "ran " + kind, nil
	})
}

// fastest is the shortest of a few measurements — what the mechanism costs,
// without whatever else the machine was doing during the others.
func fastest(t *testing.T, tries int, measure func(try int) time.Duration) time.Duration {
	t.Helper()
	best := time.Hour
	for i := 0; i < tries; i++ {
		best = min(best, measure(i))
	}
	return best
}

// TestWakeLatency pins that work is picked up because it was announced, not
// because a timer fired: with the fallback deadline out of the way, a job
// submitted on a replica runs there at once, one submitted past a saturated
// replica runs on the other within a few prober ticks, and a coordinator
// waiting on the other replica's last cell merges as soon as that cell is
// done. (What only the deadline can catch is TestWakeFallbackReclaimsExpiredLease.)
func TestWakeLatency(t *testing.T) {
	t.Run("local submit", func(t *testing.T) {
		st := openServiceStore(t, t.TempDir())
		started := make(chan string, 1)
		m := newJobManager(2, 64, 64, st, "alpha", time.Minute, signalRunner(started), never)
		defer m.Shutdown(context.Background())
		time.Sleep(20 * time.Millisecond) // both workers asleep
		took := fastest(t, 5, func(i int) time.Duration {
			start := time.Now()
			if _, err := m.SubmitPayload(fmt.Sprintf("k%d", i), nil); err != nil {
				t.Fatal(err)
			}
			<-started
			took := time.Since(start)
			time.Sleep(10 * time.Millisecond)
			return took
		})
		if took > 5*time.Millisecond {
			t.Errorf("submit -> running on the same replica took %v, want under 5ms", took)
		}
	})

	t.Run("other replica", func(t *testing.T) {
		dir := t.TempDir()
		stA, stB := openServiceStore(t, dir), openServiceStore(t, dir)
		busy, release := make(chan string, 1), make(chan struct{})
		a := newJobManager(1, 64, 64, stA, "alpha", time.Minute, runWhole(func(ctx context.Context, kind string, _ []byte, _ *obs.Progress) (string, error) {
			busy <- kind
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "", ctx.Err()
		}), never)
		defer a.Shutdown(context.Background())
		defer close(release)
		if _, err := a.SubmitPayload("hog", nil); err != nil {
			t.Fatal(err)
		}
		<-busy // alpha's only worker is taken for the rest of the test

		started := make(chan string, 1)
		b := newJobManager(1, 64, 64, stB, "beta", time.Minute, signalRunner(started), never)
		defer b.Shutdown(context.Background())
		time.Sleep(20 * time.Millisecond)
		took := fastest(t, 5, func(i int) time.Duration {
			start := time.Now()
			if _, err := a.SubmitPayload(fmt.Sprintf("k%d", i), nil); err != nil {
				t.Fatal(err)
			}
			<-started
			took := time.Since(start)
			time.Sleep(10 * time.Millisecond)
			return took
		})
		if took > 20*time.Millisecond {
			t.Errorf("submit on a saturated replica -> running on the other took %v, want under 20ms", took)
		}
	})

	t.Run("coordinator's last cell elsewhere", func(t *testing.T) {
		took := fastest(t, 3, func(int) time.Duration { return lastCellElsewhere(t) })
		if took > 20*time.Millisecond {
			t.Errorf("last cell done on the other replica -> job done took %v, want under 20ms", took)
		}
	})
}

// gatedCells is a two-cell plan whose cells each wait for their own gate.
type gatedCells struct {
	gates   [2]chan struct{}
	running chan int // cell indices, as they start
}

func (g *gatedCells) dispatch() Dispatch {
	return Dispatch{Plan: func(kind string, _ []byte) (Plan, error) {
		return &cellPlan[string]{
			cells: len(g.gates),
			run: func(ctx context.Context, i int, _ *obs.Progress) (string, error) {
				g.running <- i
				select {
				case <-g.gates[i]:
				case <-ctx.Done():
					return "", ctx.Err()
				}
				return "cell-" + strconv.Itoa(i), nil
			},
			encode: func(c string) ([]byte, error) { return []byte(c), nil },
			decode: func(f []byte) (string, error) { return string(f), nil },
			merge:  func(cells []string) (string, error) { return strings.Join(cells, "+"), nil },
		}, nil
	}}
}

// lastCellElsewhere runs one two-cell job on two single-worker replicas — the
// coordinator takes one cell, the other replica the other — lets the
// coordinator finish its cell and go to sleep, and returns how long after the
// other replica's cell the job is done, as seen through a third handle.
func lastCellElsewhere(t *testing.T) time.Duration {
	t.Helper()
	dir := t.TempDir()
	g := &gatedCells{gates: [2]chan struct{}{make(chan struct{}), make(chan struct{})}, running: make(chan int, 2)}
	a := newJobManager(1, 64, 64, openServiceStore(t, dir), "alpha", time.Minute, g.dispatch(), never)
	defer a.Shutdown(context.Background())
	b := newJobManager(1, 64, 64, openServiceStore(t, dir), "beta", time.Minute, g.dispatch(), never)
	defer b.Shutdown(context.Background())
	observer := openServiceStore(t, dir)

	status, err := a.SubmitPayload("grid", nil)
	if err != nil {
		t.Fatal(err)
	}
	first, second := <-g.running, <-g.running // one cell on each replica
	if first == second {
		t.Fatalf("cell %d started twice", first)
	}
	rec, _, err := observer.Job(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := observer.Cells(status.ID)
	if err != nil || len(cells) != 2 {
		t.Fatalf("Cells = %+v, %v", cells, err)
	}
	mine, theirs := 0, 1
	if cells[0].Holder != rec.Holder {
		mine, theirs = 1, 0
	}
	if cells[mine].Holder != rec.Holder || cells[theirs].Holder == rec.Holder {
		t.Fatalf("coordinator %q; cells held by %q and %q", rec.Holder, cells[0].Holder, cells[1].Holder)
	}
	close(g.gates[mine])
	for { // the coordinator's own cell is in; it has nothing left to claim
		cells, _, err := observer.Cells(status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cells[mine].State == store.StateDone {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // and is asleep

	start := time.Now()
	close(g.gates[theirs])
	for {
		rec, _, err := observer.Job(status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == store.StateDone {
			if rec.Output != "cell-0+cell-1" {
				t.Fatalf("merged output = %q", rec.Output)
			}
			return time.Since(start)
		}
		if time.Since(start) > never/2 {
			t.Fatalf("job still %s", rec.State)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// simClock is a settable clock for store.Options.Now.
type simClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// A lease that runs out writes no frame, so nothing wakes the idle worker
// that could reclaim it; the fallback deadline is what does. On a simulated
// clock: nothing is claimed while the lease is live, and once it lapses the
// job is reclaimed within about one fallback period.
func TestWakeFallbackReclaimsExpiredLease(t *testing.T) {
	const fallback = 50 * time.Millisecond
	clock := &simClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	dead := open()
	rec, err := dead.SubmitJob("orphan", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := dead.Claim("dead", time.Second); err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}

	started := make(chan string, 1)
	m := newJobManager(1, 64, 64, open(), "live", time.Minute, signalRunner(started), fallback)
	defer m.Shutdown(context.Background())
	select {
	case kind := <-started:
		t.Fatalf("%s was reclaimed under a live lease", kind)
	case <-time.After(4 * fallback):
	}
	clock.Advance(2 * time.Second)
	start := time.Now()
	select {
	case <-started:
	case <-time.After(never):
		t.Fatal("expired lease was never reclaimed")
	}
	if took := time.Since(start); took > 10*fallback {
		t.Errorf("reclaim took %v after the lease lapsed, want about one %v fallback", took, fallback)
	}
	final := waitJobState(t, m, rec.ID, JobDone)
	if final.Replica != "live" || final.Restarts != 1 {
		t.Errorf("final = %+v, want run by live after one takeover", final)
	}
}

// TestWatchReturnsWithTheTerminalFrame: with watchPoll at its 150 ms, a watch
// that started a moment before the job ended — so its next progress tick is
// most of that away — returns within milliseconds of the end: on a cluster
// from the replica that did not run the job, and in memory.
func TestWatchReturnsWithTheTerminalFrame(t *testing.T) {
	if watchPoll < 100*time.Millisecond {
		t.Fatalf("watchPoll is %v; the test needs the tick out of the way", watchPoll)
	}
	gated := func(release <-chan struct{}) Dispatch {
		return runWhole(func(ctx context.Context, kind string, _ []byte, _ *obs.Progress) (string, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return "", ctx.Err()
			}
			return "ran " + kind, nil
		})
	}
	// watchAcross starts a watch on watcher, ends the job 10 ms later and
	// returns how long after that the watch came back.
	watchAcross := func(t *testing.T, watcher *JobManager, id string, release chan struct{}) time.Duration {
		t.Helper()
		type result struct {
			status JobStatus
			at     time.Time
		}
		got := make(chan result, 1)
		go func() {
			status, _ := watcher.Watch(context.Background(), id, never)
			got <- result{status, time.Now()}
		}()
		time.Sleep(10 * time.Millisecond)
		ended := time.Now()
		close(release)
		r := <-got
		if r.status.State != JobDone {
			t.Fatalf("watch returned %+v", r.status)
		}
		return r.at.Sub(ended)
	}

	t.Run("durable, from the other replica", func(t *testing.T) {
		took := fastest(t, 3, func(int) time.Duration {
			dir := t.TempDir()
			release := make(chan struct{})
			a := newJobManager(1, 64, 64, openServiceStore(t, dir), "alpha", time.Minute, gated(release), never)
			defer a.Shutdown(context.Background())
			// beta only watches: its claim loops are stopped before there is
			// anything to claim.
			b := newJobManager(1, 64, 64, openServiceStore(t, dir), "beta", time.Minute, Dispatch{}, never)
			b.Shutdown(context.Background())
			status, err := a.SubmitPayload("table1", nil)
			if err != nil {
				t.Fatal(err)
			}
			waitJobState(t, a, status.ID, JobRunning)
			return watchAcross(t, b, status.ID, release)
		})
		if took > 50*time.Millisecond {
			t.Errorf("watch on the other replica returned %v after the job ended, want under 50ms", took)
		}
	})

	t.Run("in memory", func(t *testing.T) {
		took := fastest(t, 3, func(int) time.Duration {
			release := make(chan struct{})
			m := NewJobManager(1, 8, 8, store.NewMemory(store.Options{}), "", noExpiry, gated(release))
			defer m.Shutdown(context.Background())
			status, err := m.SubmitPayload("table1", nil)
			if err != nil {
				t.Fatal(err)
			}
			waitJobState(t, m, status.ID, JobRunning)
			return watchAcross(t, m, status.ID, release)
		})
		if took > 20*time.Millisecond {
			t.Errorf("in-memory watch returned %v after the job ended, want under 20ms", took)
		}
	})
}

// panickyFamily is toyFamily with a fuse: the cell its spec names panics. It
// goes by the toy family's name, so the process-wide duration series stay the
// ones TestToyFamilyOverHTTP expects.
func panickyFamily() *Family {
	return &Family{Name: "toy", Route: "toys", Noun: "toy", Prepare: func(spec []byte, _ Defaults) (Plan, error) {
		s := struct {
			Name  string `json:"name,omitempty"`
			Panic int    `json:"panic"`
		}{Panic: -1}
		if err := json.Unmarshal(spec, &s); err != nil {
			return nil, err
		}
		canonical, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		return &cellPlan[int]{
			label: s.Name, spec: canonical, cells: 3,
			run: func(_ context.Context, i int, _ *obs.Progress) (int, error) {
				if i == s.Panic {
					var cells []int
					return cells[i], nil // index out of range
				}
				return i, nil
			},
			encode: func(i int) ([]byte, error) { return []byte(strconv.Itoa(i)), nil },
			decode: func(frame []byte) (int, error) { return strconv.Atoi(string(frame)) },
			merge:  func(cells []int) (string, error) { return fmt.Sprint(cells), nil },
		}, nil
	}}
}

// A panic inside a job or a cell fails that job — with the panic value and
// the top of the stack as its error — and nothing else: the replica goes on
// serving status reads and runs the next job.
func TestPanicFailsTheJobNotTheReplica(t *testing.T) {
	checkPanicked := func(t *testing.T, status JobStatus, wants ...string) {
		t.Helper()
		if status.State != JobFailed {
			t.Fatalf("job = %+v, want failed", status)
		}
		for _, want := range append(wants, "panic:", "index out of range", "goroutine ", "wake_test.go") {
			if !strings.Contains(status.Error, want) {
				t.Errorf("error lacks %q:\n%s", want, status.Error)
			}
		}
		if lines := strings.Count(status.Error, "\n"); lines > panicStackLines+2 {
			t.Errorf("error carries %d lines of stack, want it trimmed to %d", lines, panicStackLines)
		}
	}
	submit := func(t *testing.T, svc *Service, spec string) JobStatus {
		t.Helper()
		status, err := svc.submit(svc.family("toy"), []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	t.Run("in memory", func(t *testing.T) {
		svc := New(DefaultOptions())
		defer svc.Close(context.Background())
		addFamily(t, svc, panickyFamily())
		bad := submit(t, svc, `{"panic":1}`)
		checkPanicked(t, waitServiceJob(t, svc, bad.ID))
		good := submit(t, svc, `{}`)
		if final := waitServiceJob(t, svc, good.ID); final.State != JobDone || final.Output != "[0 1 2]" {
			t.Fatalf("job after the panic = %+v", final)
		}
	})

	t.Run("two replicas", func(t *testing.T) {
		dir := t.TempDir()
		a, b := durableService(t, dir, "alpha"), durableService(t, dir, "beta")
		addFamily(t, a, panickyFamily())
		addFamily(t, b, panickyFamily())
		bad := submit(t, a, `{"panic":1}`)
		final := waitServiceJob(t, a, bad.ID)
		checkPanicked(t, final, "cell 1:")
		for _, svc := range []*Service{a, b} {
			if got, ok := svc.Jobs().Get(bad.ID); !ok || got.State != JobFailed {
				t.Errorf("replica %s sees %+v, %v", svc.Jobs().Replica(), got, ok)
			}
			good := submit(t, svc, `{}`)
			if final := waitServiceJob(t, svc, good.ID); final.State != JobDone || final.Output != "[0 1 2]" {
				t.Fatalf("job on %s after the panic = %+v", svc.Jobs().Replica(), final)
			}
		}
	})

	t.Run("whole job on a replica", func(t *testing.T) {
		st := openServiceStore(t, t.TempDir())
		m := NewJobManager(1, 64, 8, st, "alpha", time.Second, runWhole(func(_ context.Context, kind string, _ []byte, _ *obs.Progress) (string, error) {
			if kind == "bad" {
				var cells []int
				return strconv.Itoa(cells[3]), nil
			}
			return "fine", nil
		}))
		defer m.Shutdown(context.Background())
		bad, err := m.SubmitPayload("bad", nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPanicked(t, waitJobState(t, m, bad.ID, JobFailed, JobDone))
		good, err := m.SubmitPayload("good", nil)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitJobState(t, m, good.ID, JobDone, JobFailed); final.Output != "fine" {
			t.Fatalf("job after the panic = %+v", final)
		}
	})
}
