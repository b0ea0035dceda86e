package simgrid

// This file keeps the pre-selective solveRates — one solve over every
// running action at every event — as the oracle engine, and checks the
// selective solve against it bit for bit on scenarios built to hit the
// solver's tie rule: lone actions whose rates equal a sharing block's round
// share, sit one ulp from it, or sit just inside or just outside
// share·(1+1e-12) of it. Random scenarios almost never produce such ties.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// globalSolveRates is solveRates as it was before the selective solve: every
// running action goes through one solve at every event. (Rates then lived
// on the Action and were copied back; they now live on its variable.)
func (e *Engine) globalSolveRates() {
	if e.fresh {
		return
	}
	e.vars = e.vars[:0]
	for _, a := range e.live {
		if a.delayLeft > 0 || a.remaining <= workEps {
			a.v.rate = 0
			continue
		}
		e.vars = append(e.vars, &a.v)
	}
	e.sol.solve(e.vars, e.capacity)
	e.fresh = true
}

// tieScenario describes one engineered run: capacities and a recipe for the
// actions, built afresh for each engine so the two runs share nothing.
type tieScenario struct {
	caps    []float64
	actions []tieAction
}

type tieAction struct {
	delay, work, bound float64
	usage              []Use
	then               int // index of an action to add when this one completes, or -1
}

func (sc *tieScenario) build() ([]*Action, []*Action) {
	acts := make([]*Action, len(sc.actions))
	for i, d := range sc.actions {
		acts[i] = &Action{Name: fmt.Sprintf("a%d", i), Delay: d.delay, Work: d.work,
			Bound: d.bound, Usage: d.usage}
	}
	var roots []*Action
	added := make([]bool, len(acts))
	for i, d := range sc.actions {
		if d.then >= 0 && !added[d.then] {
			next := acts[d.then]
			added[d.then] = true
			acts[i].OnComplete = func(e *Engine, _ *Action) { e.Add(next) }
		}
	}
	for i, a := range acts {
		if !added[i] {
			roots = append(roots, a)
		}
	}
	return acts, roots
}

// tieKinds are the placements of a lone rate relative to a base share.
const tieKinds = 8

// placeTie returns a rate at the given placement relative to base: equal,
// one ulp above or below, inside share·(1+1e-12) above or below, the first
// value just outside that tolerance above or below, or far away. ulps then
// walks the result that many ulps further.
func placeTie(base float64, kind int, ulps int, r *rand.Rand) float64 {
	const tol = 1 + 1e-12
	var v float64
	switch kind % tieKinds {
	case 0:
		v = base
	case 1:
		v = math.Nextafter(base, math.Inf(1))
	case 2:
		v = math.Nextafter(base, 0)
	case 3: // the very edge of the tolerance above: base < v <= base·tol
		v = base * tol
	case 4: // just outside above: the first v with v > base·tol
		v = math.Nextafter(base*tol, math.Inf(1))
	case 5: // inside below: v < base <= v·tol
		v = base * (1 - 0.5e-12)
	case 6: // just outside below: the largest v with v·tol < base
		v = base / tol
		for v*tol >= base {
			v = math.Nextafter(v, 0)
		}
	default:
		v = base * (0.5 + r.Float64())
	}
	for ; ulps > 0; ulps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		v = math.Nextafter(v, 0)
	}
	return v
}

// genTieScenario builds a sharing block on a few shared resources, solves it
// alone to learn its round shares, and then adds lone actions on private
// resources whose rates are placed against those shares (and against each
// other) by placeTie. The first lone action's placement comes from kind and
// ulps, the rest from r. Some actions are delayed, bounded, unconstrained,
// degenerate or released by a completion, so every engine path runs.
func genTieScenario(r *rand.Rand, kind int, ulps int) *tieScenario {
	sc := &tieScenario{}
	nShared := 1 + r.Intn(3)
	for i := 0; i < nShared; i++ {
		sc.caps = append(sc.caps, 0.5+10*r.Float64())
	}
	pow2 := func() float64 { return math.Ldexp(1, r.Intn(7)-3) }
	add := func(d tieAction) int {
		d.then = -1
		sc.actions = append(sc.actions, d)
		return len(sc.actions) - 1
	}

	// The sharing block: every member uses resource 0, plus a random subset
	// of the other shared resources.
	nBlock := 2 + r.Intn(4)
	var block []*maxminVar
	for i := 0; i < nBlock; i++ {
		usage := []Use{{0, 0.1 + 5*r.Float64()}}
		for res := 1; res < nShared; res++ {
			if r.Intn(2) == 0 {
				usage = append(usage, Use{res, 0.1 + 5*r.Float64()})
			}
		}
		add(tieAction{work: 0.5 + r.Float64(), usage: usage})
		v := &maxminVar{}
		v.setUsage(usage)
		block = append(block, v)
	}
	var s solver
	s.solve(block, sc.caps)
	bases := append([]float64(nil), s.rounds...)

	// Lone actions, each on one to three private resources; the first one
	// sets the rate, the others are slacker.
	nLone := 1 + r.Intn(4)
	for i := 0; i < nLone; i++ {
		base := bases[r.Intn(len(bases))]
		k, u := r.Intn(tieKinds), r.Intn(3)-1
		if i == 0 {
			k, u = kind, ulps
		}
		rate := placeTie(base, k, u, r)
		bases = append(bases, rate) // later lone actions may tie with this one
		var usage []Use
		for j := 0; j < 1+r.Intn(3); j++ {
			amount := pow2() // capacity = rate·amount, so capacity/amount = rate exactly
			c := rate * amount
			if j > 0 {
				c *= 1 + r.Float64()
			}
			usage = append(usage, Use{len(sc.caps), amount})
			sc.caps = append(sc.caps, c)
		}
		r.Shuffle(len(usage), func(a, b int) { usage[a], usage[b] = usage[b], usage[a] })
		add(tieAction{work: 0.5 + r.Float64(), usage: usage})
	}

	// Extras on fresh resources or the shared ones.
	for i := r.Intn(4); i > 0; i-- {
		switch r.Intn(6) {
		case 0: // delayed lone action
			sc.caps = append(sc.caps, 0.5+10*r.Float64())
			add(tieAction{delay: r.Float64(), work: 1, usage: []Use{{len(sc.caps) - 1, pow2()}}})
		case 1: // bounded: forces the global solve while it runs
			add(tieAction{work: 1, bound: 0.05 + r.Float64(), usage: []Use{{r.Intn(len(sc.caps)), 1}}})
		case 2: // unconstrained
			add(tieAction{delay: r.Float64(), work: 1})
		case 3: // degenerate
			add(tieAction{})
		case 4: // joins the block later, released by a completion
			j := add(tieAction{work: 0.5 + r.Float64(), usage: []Use{{0, 0.1 + 5*r.Float64()}}})
			sc.actions[r.Intn(j)].then = j
		default: // a pure delay
			add(tieAction{delay: 2 * r.Float64()})
		}
	}
	return sc
}

// compareSelective runs the scenario on a selective engine and on the
// oracle engine in lock step, comparing every rate at every event and every
// completion time, bit for bit. The engines are reused through Reset. It
// returns the selective engine's count of global solves.
func compareSelective(sel, orc *Engine, sc *tieScenario) (int, error) {
	selActs, selRoots := sc.build()
	orcActs, orcRoots := sc.build()
	sel.Reset(sc.caps)
	orc.Reset(sc.caps)
	sel.globalSolves = 0
	for i := range selRoots {
		sel.Add(selRoots[i])
		orc.Add(orcRoots[i])
	}
	for events := 0; len(sel.live) > 0 || len(orc.live) > 0; events++ {
		if len(sel.live) != len(orc.live) || sel.now != orc.now {
			return sel.globalSolves, fmt.Errorf("event %d: %d live at t=%v, oracle %d at t=%v",
				events, len(sel.live), sel.now, len(orc.live), orc.now)
		}
		sel.solveRates()
		orc.globalSolveRates()
		for i, a := range sel.live {
			if b := orc.live[i]; math.Float64bits(a.Rate()) != math.Float64bits(b.Rate()) {
				return sel.globalSolves, fmt.Errorf("event %d: %s rate %v (%#x), oracle %s %v (%#x)",
					events, a.Name, a.Rate(), math.Float64bits(a.Rate()), b.Name, b.Rate(), math.Float64bits(b.Rate()))
			}
		}
		errSel, errOrc := sel.step(), orc.step()
		if (errSel == nil) != (errOrc == nil) {
			return sel.globalSolves, fmt.Errorf("event %d: step error %v, oracle %v", events, errSel, errOrc)
		}
		if errSel != nil {
			return sel.globalSolves, nil // both deadlocked at the same event
		}
	}
	for i := range selActs {
		a, b := selActs[i], orcActs[i]
		if a.State() != b.State() || math.Float64bits(a.FinishedAt()) != math.Float64bits(b.FinishedAt()) {
			return sel.globalSolves, fmt.Errorf("%s: state %v finished at %v, oracle %v at %v",
				a.Name, a.State(), a.FinishedAt(), b.State(), b.FinishedAt())
		}
	}
	return sel.globalSolves, nil
}

// TestSelectiveSolveMatchesGlobalQuick differentially checks the selective
// solve against the every-event global solve on engineered near-tie
// scenarios, and that both of its branches ran: some scenarios must have
// fallen back to a global solve and some must have kept every lone rate.
func TestSelectiveSolveMatchesGlobalQuick(t *testing.T) {
	sel, orc := NewEngine(nil), NewEngine(nil)
	fellBack, kept := 0, 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := genTieScenario(r, r.Intn(tieKinds), r.Intn(5)-2)
		global, err := compareSelective(sel, orc, sc)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if global > 0 {
			fellBack++
		} else {
			kept++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if fellBack == 0 || kept == 0 {
		t.Errorf("%d scenarios fell back to a global solve and %d did not; the generator must produce both", fellBack, kept)
	}
}

// FuzzSelectiveSolve is the same differential check with the fuzzer steering
// the first lone action's placement (kind) and its ulp offset around it.
func FuzzSelectiveSolve(f *testing.F) {
	for kind := 0; kind < tieKinds; kind++ {
		f.Add(int64(kind), uint8(kind), int8(0))
		f.Add(int64(100+kind), uint8(kind), int8(1))
		f.Add(int64(200+kind), uint8(kind), int8(-1))
	}
	sel, orc := NewEngine(nil), NewEngine(nil)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, ulps int8) {
		r := rand.New(rand.NewSource(seed))
		if _, err := compareSelective(sel, orc, genTieScenario(r, int(kind), int(ulps))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCoupledTieRule pins the tie check on hand-placed values: equal values
// never couple, distinct values within share·(1+1e-12) always do, and two
// round shares of the sharing solve may tie with each other freely.
func TestCoupledTieRule(t *testing.T) {
	s := 0.1 // a variable: a constant product would be rounded once, exactly
	edge := s * (1 + 1e-12)
	for _, c := range []struct {
		lone, rounds []float64
		want         bool
	}{
		{[]float64{s}, []float64{s}, false},
		{[]float64{s, s}, nil, false},
		{[]float64{math.Nextafter(s, 1)}, []float64{s}, true},
		{[]float64{s}, []float64{math.Nextafter(s, 1)}, true},
		{[]float64{edge}, []float64{s}, true},
		{[]float64{math.Nextafter(edge, 1)}, []float64{s}, false},
		{[]float64{s, edge}, nil, true},
		{[]float64{s, math.Nextafter(edge, 1)}, nil, false},
		{[]float64{1}, []float64{s, math.Nextafter(s, 1)}, false},
		{[]float64{s}, []float64{s, math.Nextafter(s, 1)}, true},
		{[]float64{s}, []float64{math.Nextafter(s, 0), s}, true},
		{[]float64{2, 1, 3}, []float64{2.5, 0.5}, false},
	} {
		lone := append([]float64(nil), c.lone...)
		rounds := append([]float64(nil), c.rounds...)
		if got := coupled(lone, rounds); got != c.want {
			t.Errorf("coupled(%v, %v) = %v, want %v", c.lone, c.rounds, got, c.want)
		}
	}
}

// TestSplitSurvivesStampWrap: when the split stamp wraps, the marks are
// cleared, so stale marks left by the first split of an earlier run cannot
// make a lone action look shared.
func TestSplitSurvivesStampWrap(t *testing.T) {
	e := NewEngine([]float64{1, 1})
	e.Add(&Action{Name: "x", Work: 1, Usage: []Use{{0, 1}}})
	e.Add(&Action{Name: "y", Work: 1, Usage: []Use{{1, 1}}})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset(nil)
	e.stamp = math.MaxUint32 // the next split wraps to stamp 1, the first run's
	a := &Action{Name: "lone", Work: 1, Usage: []Use{{1, 1}}}
	b := &Action{Name: "other", Work: 1, Usage: []Use{{0, 1}}}
	e.Add(b)
	e.Add(a)
	e.solveRates()
	if e.stamp != 1 || a.v.shared || b.v.shared {
		t.Fatalf("after the wrap: stamp %d, shared %v/%v, want 1 and both lone", e.stamp, a.v.shared, b.v.shared)
	}
}

// TestGlobalSolvesPublishedOncePerRun: a run that falls back (a bounded
// action) adds its tally to the counter when Run returns, and the engine's
// own tally restarts.
func TestGlobalSolvesPublishedOncePerRun(t *testing.T) {
	e := NewEngine([]float64{1, 1})
	e.Add(&Action{Name: "bounded", Work: 1, Bound: 0.5, Usage: []Use{{0, 1}}})
	e.Add(&Action{Name: "lone", Work: 1, Usage: []Use{{1, 1}}})
	before := globalSolvesTotal.Value()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := globalSolvesTotal.Value() - before; got != 2 || e.globalSolves != 0 {
		t.Errorf("counter moved by %d, engine tally %d; want 2 and 0", got, e.globalSolves)
	}
}

// TestNegativeCapacityStallsAsBefore: a negative capacity makes solve's tie
// rule saturate nothing, so the solver panics as stalled. A lone action on
// such a resource must take the same path rather than run backwards in time
// at a negative cached rate.
func TestNegativeCapacityStallsAsBefore(t *testing.T) {
	for name, solve := range map[string]func(*Engine){
		"selective": (*Engine).solveRates,
		"global":    (*Engine).globalSolveRates,
	} {
		e := NewEngine([]float64{-1})
		e.Add(&Action{Name: "lone", Work: 1, Usage: []Use{{0, 1}}})
		assertPanics(t, name+" solve on a negative capacity", func() { solve(e) })
	}
}
