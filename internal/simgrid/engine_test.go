package simgrid

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/platform"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestEngineFixedAction(t *testing.T) {
	e := NewEngine([]float64{1})
	e.Add(Fixed("wait", 2.5))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2.5, 1e-12, "end time")
	if len(e.Completed()) != 1 || e.Completed()[0].State() != StateDone {
		t.Fatal("action not completed")
	}
}

func TestEngineSingleComputeAction(t *testing.T) {
	// 100 flops of work on a 10 flop/s CPU → 10 s.
	e := NewEngine([]float64{10})
	e.Add(&Action{Name: "comp", Work: 1, Usage: []Use{{0, 100}}})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 10, 1e-9, "end time")
}

func TestEngineFairSharingDoublesTime(t *testing.T) {
	e := NewEngine([]float64{10})
	var t1, t2 float64
	a := &Action{Name: "a", Work: 1, Usage: []Use{{0, 100}},
		OnComplete: func(e *Engine, _ *Action) { t1 = e.Now() }}
	b := &Action{Name: "b", Work: 1, Usage: []Use{{0, 100}},
		OnComplete: func(e *Engine, _ *Action) { t2 = e.Now() }}
	e.Add(a)
	e.Add(b)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, t1, 20, 1e-9, "first completion")
	almost(t, t2, 20, 1e-9, "second completion")
}

func TestEngineL07EqualProgressSharing(t *testing.T) {
	// L07 semantics: concurrent parallel tasks sharing a bottleneck get
	// equal *progress rates* (the usage amounts are the weights), not
	// equal resource shares. a needs 100 units/rate, b needs 10:
	// 100ρ + 10ρ ≤ 10 → ρ = 1/11, so both complete at t = 11.
	e := NewEngine([]float64{10})
	var ta, tb float64
	e.Add(&Action{Name: "a", Work: 1, Usage: []Use{{0, 100}},
		OnComplete: func(e *Engine, _ *Action) { ta = e.Now() }})
	e.Add(&Action{Name: "b", Work: 1, Usage: []Use{{0, 10}},
		OnComplete: func(e *Engine, _ *Action) { tb = e.Now() }})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, tb, 11, 1e-9, "small action end")
	almost(t, ta, 11, 1e-9, "large action end")
}

func TestEngineDelayThenWork(t *testing.T) {
	e := NewEngine([]float64{10})
	e.Add(&Action{Name: "x", Delay: 1, Work: 1, Usage: []Use{{0, 10}}})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-9, "end time")
}

func TestEngineCallbackChaining(t *testing.T) {
	// A dependency chain built via callbacks: t0 → t1 → t2, 1 s each.
	e := NewEngine([]float64{1})
	mk := func(name string, next *Action) *Action {
		return &Action{Name: name, Work: 1, Usage: []Use{{0, 1}},
			OnComplete: func(e *Engine, _ *Action) {
				if next != nil {
					e.Add(next)
				}
			}}
	}
	t2 := mk("t2", nil)
	t1 := mk("t1", t2)
	t0 := mk("t0", t1)
	e.Add(t0)
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 3, 1e-9, "chain end")
	if len(e.Completed()) != 3 {
		t.Fatalf("completed %d actions, want 3", len(e.Completed()))
	}
}

func TestEngineZeroWorkAction(t *testing.T) {
	e := NewEngine([]float64{1})
	fired := false
	e.Add(&Action{Name: "instant", OnComplete: func(e *Engine, _ *Action) { fired = true }})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 0, 1e-12, "instant end")
	if !fired {
		t.Error("OnComplete not fired for instantaneous action")
	}
}

func TestEngineUnconstrainedWorkCompletes(t *testing.T) {
	// An action with work but no resource usage (e.g. a redistribution
	// whose transfers are all intra-host) must complete right after its
	// delay instead of producing NaN progress.
	e := NewEngine([]float64{1})
	e.Add(&Action{Name: "local-redist", Delay: 0.25, Work: 1, Usage: []Use{}})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 0.25, 1e-9, "unconstrained action end")
}

func TestEngineUsageOf(t *testing.T) {
	e := NewEngine([]float64{10})
	e.Add(&Action{Name: "a", Work: 1, Usage: []Use{{0, 100}}})
	e.Add(&Action{Name: "b", Work: 1, Usage: []Use{{0, 50}}})
	// Equal rates ρ = 10/150; usage = 100ρ + 50ρ = 10 (saturated).
	almost(t, e.UsageOf(0), 10, 1e-9, "saturated usage")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, e.UsageOf(0), 0, 1e-12, "usage after completion")
}

func TestEngineDeadlockDetected(t *testing.T) {
	e := NewEngine([]float64{0})
	e.Add(&Action{Name: "starved", Work: 1, Usage: []Use{{0, 1}}})
	if _, err := e.Run(); err == nil {
		t.Fatal("starved action did not produce an error")
	}
}

func TestEngineAddPanics(t *testing.T) {
	e := NewEngine([]float64{1})
	a := Fixed("once", 1)
	e.Add(a)
	assertPanics(t, "double add", func() { e.Add(a) })
	assertPanics(t, "bad resource", func() {
		e.Add(&Action{Name: "bad", Work: 1, Usage: []Use{{7, 1}}})
	})
	assertPanics(t, "negative usage", func() {
		e.Add(&Action{Name: "bad", Work: 1, Usage: []Use{{0, -1}}})
	})
	assertPanics(t, "resource listed twice", func() {
		e.Add(&Action{Name: "bad", Work: 1, Usage: []Use{{0, 1}, {0, 2}}})
	})
	assertPanics(t, "negative delay", func() { e.Add(&Action{Name: "neg", Delay: -1}) })
	assertPanics(t, "negative duration", func() { Fixed("neg", -1) })
}

func assertPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func testNet(t *testing.T) *Net {
	t.Helper()
	n, err := NewNet(platform.Bayreuth())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetResourceLayout(t *testing.T) {
	n := testNet(t)
	caps := n.Capacities()
	if len(caps) != 96 { // 32 CPUs + 32 up + 32 down, no backplane
		t.Fatalf("capacity vector has %d entries, want 96", len(caps))
	}
	if caps[n.CPU(0)] != 250e6 {
		t.Errorf("CPU capacity = %g", caps[n.CPU(0)])
	}
	if caps[n.Uplink(5)] != 125e6 || caps[n.Downlink(31)] != 125e6 {
		t.Error("link capacities wrong")
	}
}

func TestNetBackplane(t *testing.T) {
	c := platform.Bayreuth()
	c.BackplaneBandwidth = 4e9
	n, err := NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	caps := n.Capacities()
	if len(caps) != 97 {
		t.Fatalf("capacity vector has %d entries, want 97", len(caps))
	}
	if !n.HasBackplane() || caps[n.Backplane()] != 4e9 {
		t.Error("backplane not modelled")
	}
}

func TestPtaskPureComputation(t *testing.T) {
	n := testNet(t)
	e := n.NewEngine()
	// 2·500³ flops over 4 hosts at 250 MFlop/s → 0.25e9/250e6 ... compute:
	// per host 2*500^3/4 = 62.5e6 flops → 0.25 s.
	p := 4
	comp := make([]float64, p)
	for i := range comp {
		comp[i] = 2 * 500 * 500 * 500 / float64(p)
	}
	e.Add(n.Ptask("mm", []int{0, 1, 2, 3}, comp, nil))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 0.25, 1e-9, "ptask end")
}

func TestPtaskRedistribution(t *testing.T) {
	n := testNet(t)
	e := n.NewEngine()
	// Host 0 sends 125 MB to host 1: 1 s at 125 MB/s + 200 µs latency.
	bytes := [][]float64{{0, 125e6}, {0, 0}}
	e.Add(n.Ptask("redist", []int{0, 1}, nil, bytes))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1+2*100e-6, 1e-9, "redistribution end")
}

func TestPtaskUplinkContention(t *testing.T) {
	n := testNet(t)
	e := n.NewEngine()
	// Host 0 sends 125 MB to hosts 1 and 2 in one ptask: both flows share
	// host 0's uplink → 2 s (plus latency).
	bytes := [][]float64{{0, 125e6, 125e6}, {0, 0, 0}, {0, 0, 0}}
	e.Add(n.Ptask("fanout", []int{0, 1, 2}, nil, bytes))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2+2*100e-6, 1e-9, "fan-out end")
}

func TestTwoPtasksContendOnSharedLink(t *testing.T) {
	n := testNet(t)
	e := n.NewEngine()
	// Two separate transfers into host 2's downlink: fair sharing halves
	// the bandwidth, both finish at ~2 s.
	e.Add(n.Ptask("a", []int{0, 2}, nil, [][]float64{{0, 125e6}, {0, 0}}))
	e.Add(n.Ptask("b", []int{1, 2}, nil, [][]float64{{0, 125e6}, {0, 0}}))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2+2*100e-6, 1e-6, "contended end")
}

func TestPtaskCompAndCommOverlap(t *testing.T) {
	n := testNet(t)
	e := n.NewEngine()
	// L07: computation and communication progress in lockstep; the action
	// duration is the max of both components (here comm: 2 s > comp 1 s).
	comp := []float64{250e6, 250e6}          // 1 s each alone
	bytes := [][]float64{{0, 250e6}, {0, 0}} // 2 s alone
	e.Add(n.Ptask("mixed", []int{0, 1}, comp, bytes))
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2+2*100e-6, 1e-9, "mixed ptask end")
}

func TestLoneActionTimeMatchesEngine(t *testing.T) {
	n := testNet(t)
	comp := []float64{1e9, 1e9, 1e9}
	bytes := [][]float64{{0, 32e6, 0}, {0, 0, 32e6}, {32e6, 0, 0}}
	a := n.Ptask("x", []int{0, 1, 2}, comp, bytes)
	want := n.LoneActionTime(a)
	e := n.NewEngine()
	e.Add(a)
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, want, 1e-9, "lone action prediction")
}

func TestIntraHostTransferFree(t *testing.T) {
	n := testNet(t)
	a := n.Ptask("self", []int{0, 0}, nil, [][]float64{{0, 1e9}, {0, 0}})
	if len(a.Usage) != 0 {
		t.Errorf("intra-host transfer consumed resources: %v", a.Usage)
	}
}

// TestResetUnpinsActions pins the memory hygiene of the recycle lifecycle:
// after Reset, none of the engine's internal storage — including the spare
// capacity of the event-loop buffers and the solver scratch — may still
// reference actions from the previous run, or a parked pooled engine would
// pin them (and everything their OnComplete closures capture) indefinitely.
func TestResetUnpinsActions(t *testing.T) {
	e := NewEngine([]float64{10, 10, 10})
	for i := 0; i < 8; i++ {
		e.Add(&Action{Name: "a", Work: 1, Usage: []Use{{i % 2, 1}}})
	}
	e.Add(&Action{Name: "lone", Work: 2, Usage: []Use{{2, 1}}}) // so the sharing list fills too
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset(nil)
	for name, buf := range map[string][]*Action{
		"live": e.live, "done": e.done, "nextLive": e.nextLive, "finished": e.finished,
	} {
		full := buf[:cap(buf)]
		for i, a := range full {
			if a != nil {
				t.Errorf("%s[%d] still references an action after Reset", name, i)
			}
		}
	}
	for name, buf := range map[string][]*maxminVar{"vars": e.vars, "sharing": e.sharing} {
		for i, v := range buf[:cap(buf)] {
			if v != nil {
				t.Errorf("%s[%d] still references a solver variable after Reset", name, i)
			}
		}
	}
	for i, v := range e.sol.unfixed[:cap(e.sol.unfixed)] {
		if v != nil {
			t.Errorf("sol.unfixed[%d] still references a solver variable after Reset", i)
		}
	}
	// The per-resource split marks outlive Reset, so they may hold no
	// pointer at all: a resource's owner is a live-list index.
	if len(e.marks) == 0 {
		t.Error("the run left no split marks to check")
	}
	mark := reflect.TypeOf(resMark{})
	for i := 0; i < mark.NumField(); i++ {
		if f := mark.Field(i); f.Type.Kind() != reflect.Int32 && f.Type.Kind() != reflect.Uint32 {
			t.Errorf("resMark.%s is a %s; marks are kept across Reset and must pin nothing", f.Name, f.Type)
		}
	}
}

// TestResetRestoresSolverInvariant simulates the state a panicked solve
// leaves behind — nonzero weights and saturation marks with no touched
// record — and checks that Reset restores the zeroed-scratch invariant, so
// a pooled engine recovered from a panic cannot silently skip capacity
// constraints on its next run.
func TestResetRestoresSolverInvariant(t *testing.T) {
	e := NewEngine([]float64{10, 10})
	e.Add(&Action{Name: "a", Work: 1, Usage: []Use{{0, 2}, {1, 1}}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.sol.weight[1] = 3.5 // what an aborted round would leave
	e.sol.saturated[0] = true
	e.Reset(nil)
	for r := range e.sol.weight {
		if e.sol.weight[r] != 0 || e.sol.saturated[r] {
			t.Fatalf("resource %d: weight=%g saturated=%v after Reset, want zeroed",
				r, e.sol.weight[r], e.sol.saturated[r])
		}
	}
	// The engine still solves correctly afterwards.
	a := &Action{Name: "b", Work: 1, Usage: []Use{{1, 2}}}
	e.Add(a)
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 0.2, 1e-12, "post-reset solve")
	_ = a
}
