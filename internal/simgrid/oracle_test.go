package simgrid

// This file keeps the pre-optimization solver and event loop — the original
// map-based implementations — as a test-only oracle, and differentially
// checks the sparse allocation-free solver and the recycled engine against
// them on randomized instances. Any divergence in rates or completion times
// is a regression in the optimized core, not a modelling change.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// oracleVar is the original solver variable: dense map-keyed usage.
type oracleVar struct {
	usage map[int]float64
	bound float64
	rate  float64
	fixed bool
}

// oracleSolveMaxMin is the original bottleneck solver, verbatim: fresh
// weight maps per round, map-keyed usage vectors.
func oracleSolveMaxMin(vars []*oracleVar, capacity []float64) {
	remaining := append([]float64(nil), capacity...)
	for _, v := range vars {
		v.rate = 0
		v.fixed = len(v.usage) == 0
		if v.fixed && v.bound > 0 {
			v.rate = v.bound
		} else if v.fixed {
			v.rate = math.Inf(1)
		}
	}

	for {
		weight := make(map[int]float64)
		nUnfixed := 0
		for _, v := range vars {
			if v.fixed {
				continue
			}
			nUnfixed++
			for r, u := range v.usage {
				weight[r] += u
			}
		}
		if nUnfixed == 0 {
			return
		}

		share := math.Inf(1)
		for r, w := range weight {
			if w <= 0 {
				continue
			}
			s := remaining[r] / w
			if s < share {
				share = s
			}
		}

		bounded := false
		for _, v := range vars {
			if v.fixed || v.bound <= 0 || v.bound > share {
				continue
			}
			v.rate = v.bound
			v.fixed = true
			bounded = true
			for r, u := range v.usage {
				remaining[r] -= u * v.rate
				if remaining[r] < 0 {
					remaining[r] = 0
				}
			}
		}
		if bounded {
			continue
		}

		if math.IsInf(share, 1) {
			for _, v := range vars {
				if !v.fixed {
					v.rate = math.Inf(1)
					v.fixed = true
				}
			}
			return
		}

		saturated := make(map[int]bool)
		for r, w := range weight {
			if w <= 0 {
				continue
			}
			if remaining[r]/w <= share*(1+1e-12) {
				saturated[r] = true
			}
		}
		progressed := false
		for _, v := range vars {
			if v.fixed {
				continue
			}
			hit := false
			for r := range v.usage {
				if saturated[r] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			v.rate = share
			v.fixed = true
			progressed = true
			for r, u := range v.usage {
				remaining[r] -= u * v.rate
				if remaining[r] < 0 {
					remaining[r] = 0
				}
			}
		}
		if !progressed {
			panic("oracle solver stalled")
		}
	}
}

// oracleAction is one activity of the reference event loop.
type oracleAction struct {
	delay, work float64
	usage       map[int]float64
	bound       float64

	remaining, delayLeft, rate float64
	finishedAt                 float64
	done                       bool
}

// oracleRun is the original engine loop, verbatim minus callbacks: solve
// from scratch at every event, advance to the earliest completion, retire.
// It returns the final time, or ok=false on deadlock.
func oracleRun(capacity []float64, actions []*oracleAction) (float64, bool) {
	now := 0.0
	var live []*oracleAction
	for _, a := range actions {
		a.remaining = a.work
		a.delayLeft = a.delay
		if a.delayLeft <= 0 && a.remaining <= workEps {
			a.delayLeft = 0
			a.remaining = 0
		}
		live = append(live, a)
	}
	for len(live) > 0 {
		// Solve rates of runnable actions.
		var vars []*oracleVar
		var runnable []*oracleAction
		for _, a := range live {
			if a.delayLeft > 0 || a.remaining <= workEps {
				a.rate = 0
				continue
			}
			v := &oracleVar{usage: a.usage, bound: a.bound}
			vars = append(vars, v)
			runnable = append(runnable, a)
		}
		oracleSolveMaxMin(vars, capacity)
		for i, a := range runnable {
			a.rate = vars[i].rate
		}

		next := math.Inf(1)
		for _, a := range live {
			var t float64
			switch {
			case a.delayLeft > 0:
				t = a.delayLeft
			case a.remaining <= workEps:
				t = 0
			case a.rate <= 0:
				t = math.Inf(1)
			default:
				t = a.remaining / a.rate
			}
			if t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			return now, false
		}

		now += next
		horizon := next * (1 + timeEps)
		var still []*oracleAction
		for _, a := range live {
			if a.delayLeft > 0 {
				if a.delayLeft <= horizon {
					a.delayLeft = 0
					if a.remaining <= workEps {
						a.done = true
						a.finishedAt = now
						continue
					}
				} else {
					a.delayLeft -= next
				}
				still = append(still, a)
				continue
			}
			if math.IsInf(a.rate, 1) {
				a.remaining = 0
			} else {
				a.remaining -= a.rate * next
			}
			if a.remaining <= a.work*timeEps+workEps {
				a.done = true
				a.finishedAt = now
			} else {
				still = append(still, a)
			}
		}
		live = still
	}
	return now, true
}

// randomUsage draws a sparse usage map: mostly positive entries over a
// random resource subset, sometimes empty (an unconstrained action).
func randomUsage(r *rand.Rand, nRes int, allowEmpty bool) map[int]float64 {
	usage := make(map[int]float64)
	for rr := 0; rr < nRes; rr++ {
		if r.Float64() < 0.5 {
			usage[rr] = 0.1 + 5*r.Float64()
		}
	}
	if len(usage) == 0 && !allowEmpty {
		usage[r.Intn(nRes)] = 1
	}
	return usage
}

// sameRate compares solver outputs, treating +Inf as equal to +Inf. The two
// implementations perform the same floating-point operations in the same
// order, so the match is exact, not approximate.
func sameRate(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return a == b
}

// TestSolverMatchesOracleQuick differentially checks the sparse solver
// against the original map-based implementation on randomized instances:
// bounded and unbounded variables, zero-usage (unconstrained) variables,
// dead (zero-capacity) resources.
func TestSolverMatchesOracleQuick(t *testing.T) {
	var s solver // one reused solver across all instances, like an engine's
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRes := 1 + r.Intn(6)
		nVar := r.Intn(24)
		caps := make([]float64, nRes)
		for i := range caps {
			caps[i] = 0.5 + 10*r.Float64()
			if r.Float64() < 0.05 {
				caps[i] = 0 // dead resource
			}
		}
		vars := make([]*maxminVar, nVar)
		ovars := make([]*oracleVar, nVar)
		for i := 0; i < nVar; i++ {
			usage := randomUsage(r, nRes, true)
			bound := 0.0
			if r.Float64() < 0.3 {
				bound = 0.05 + 3*r.Float64()
			}
			vars[i] = mmVar(usage, bound)
			ovars[i] = &oracleVar{usage: usage, bound: bound}
		}
		s.solve(vars, caps)
		oracleSolveMaxMin(ovars, caps)
		for i := range vars {
			if !sameRate(vars[i].rate, ovars[i].rate) {
				t.Logf("seed %d: var %d rate = %g, oracle %g", seed, i, vars[i].rate, ovars[i].rate)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEngineMatchesOracleQuick differentially checks full engine runs —
// completion times and final time — against the reference event loop on
// randomized action sets: delays, bounds, unconstrained actions and
// degenerate zero-work actions. The engine is reused across instances via
// Reset, so this also pins that the recycle lifecycle cannot leak state
// between runs.
func TestEngineMatchesOracleQuick(t *testing.T) {
	e := NewEngine(nil)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRes := 1 + r.Intn(5)
		nAct := 1 + r.Intn(12)
		caps := make([]float64, nRes)
		for i := range caps {
			caps[i] = 0.5 + 10*r.Float64()
		}
		actions := make([]*Action, nAct)
		oracle := make([]*oracleAction, nAct)
		for i := 0; i < nAct; i++ {
			var delay, work float64
			var usage map[int]float64
			switch r.Intn(4) {
			case 0: // pure delay (a Fixed action)
				delay = 5 * r.Float64()
			case 1: // degenerate: zero delay, zero work
			default:
				delay = 2 * r.Float64() * float64(r.Intn(2))
				work = 1
				usage = randomUsage(r, nRes, false)
			}
			bound := 0.0
			if usage != nil && r.Float64() < 0.25 {
				bound = 0.05 + 2*r.Float64()
			}
			actions[i] = &Action{Name: "a", Delay: delay, Work: work, Usage: usageVec(usage), Bound: bound}
			oracle[i] = &oracleAction{delay: delay, work: work, usage: usage, bound: bound}
		}

		e.Reset(caps)
		for _, a := range actions {
			e.Add(a)
		}
		end, err := e.Run()
		wantEnd, ok := oracleRun(caps, oracle)
		if (err == nil) != ok {
			t.Logf("seed %d: engine err = %v, oracle ok = %v", seed, err, ok)
			return false
		}
		if err != nil {
			return true // both deadlocked at the same point
		}
		if end != wantEnd {
			t.Logf("seed %d: end = %g, oracle %g", seed, end, wantEnd)
			return false
		}
		for i := range actions {
			if actions[i].State() != StateDone || !oracle[i].done {
				t.Logf("seed %d: action %d not completed on both sides", seed, i)
				return false
			}
			if actions[i].FinishedAt() != oracle[i].finishedAt {
				t.Logf("seed %d: action %d finished at %g, oracle %g",
					seed, i, actions[i].FinishedAt(), oracle[i].finishedAt)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// oracleFillPtask is the original map-based FillPtask, verbatim: dense
// matrix in, map-keyed usage and the route latency out.
func oracleFillPtask(n *Net, hosts []int, comp []float64, bytes [][]float64) (map[int]float64, float64) {
	usage := make(map[int]float64)
	latency := 0.0
	for i, h := range hosts {
		if comp != nil && comp[i] > 0 {
			usage[n.CPU(h)] += comp[i]
		}
		if bytes == nil {
			continue
		}
		for j, b := range bytes[i] {
			if b <= 0 || i == j {
				continue
			}
			dst := hosts[j]
			if h == dst {
				continue
			}
			usage[n.Uplink(h)] += b
			usage[n.Downlink(dst)] += b
			if n.HasBackplane() {
				usage[n.Backplane()] += b
			}
			if l := n.RouteLatency(h, dst); l > latency {
				latency = l
			}
		}
	}
	return usage, latency
}

// TestFillMatchesOracleQuick differentially checks both fill forms — the
// dense matrix and its row-major transfer list — against the original on
// randomized parallel tasks: hosts in any order and repeated (same-host
// ranks), missing computation or communication, zero and negative cells,
// diagonal cells, with and without a backplane. Per-resource sums must add
// the same terms in the same order, so amounts and delay match exactly, and
// the emitted vector must be sorted with no zero entries. One recycled
// action takes every fill, so stale entries from a larger task would show.
func TestFillMatchesOracleQuick(t *testing.T) {
	nets := []*Net{testNet(t)}
	c := nets[0].Cluster
	c.BackplaneBandwidth = 0
	noBackplane, err := NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, noBackplane)
	var dense, sparse Action
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := nets[r.Intn(len(nets))]
		p := 1 + r.Intn(8)
		hosts := make([]int, p)
		for i := range hosts {
			hosts[i] = r.Intn(n.Cluster.Nodes)
		}
		var comp []float64
		if r.Float64() < 0.7 {
			comp = make([]float64, p)
			for i := range comp {
				comp[i] = float64(r.Intn(3)) * (1 + r.Float64()) * 1e9 // a third are zero
			}
		}
		var bytes [][]float64
		var transfers []Transfer
		if r.Float64() < 0.8 {
			bytes = make([][]float64, p)
			for i := range bytes {
				bytes[i] = make([]float64, p)
				for j := range bytes[i] {
					switch r.Intn(4) {
					case 0:
						bytes[i][j] = (0.1 + r.Float64()) * 1e7
					case 1:
						bytes[i][j] = -1
					}
					if bytes[i][j] != 0 {
						transfers = append(transfers, Transfer{Src: i, Dst: j, Bytes: bytes[i][j]})
					}
				}
			}
		}
		want, wantDelay := oracleFillPtask(n, hosts, comp, bytes)
		n.FillPtask(&dense, hosts, comp, bytes)
		n.FillTransfers(&sparse, hosts, comp, transfers)
		for name, a := range map[string]*Action{"dense": &dense, "sparse": &sparse} {
			if a.Delay != wantDelay || a.Work != 1 || len(a.Usage) != len(want) {
				t.Logf("seed %d %s: delay %g work %g with %d entries, oracle delay %g with %d",
					seed, name, a.Delay, a.Work, len(a.Usage), wantDelay, len(want))
				return false
			}
			for k, u := range a.Usage {
				if u.Amount != want[u.Res] || u.Amount == 0 || (k > 0 && a.Usage[k-1].Res >= u.Res) {
					t.Logf("seed %d %s: entry %d = %+v, oracle amount %g (vector %v)", seed, name, k, u, want[u.Res], a.Usage)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFillTransfersRejectsMalformedLists pins the input checks of the sparse
// form: ranks outside the host list and any departure from row-major order
// (which would change the order terms are summed in) panic.
func TestFillTransfersRejectsMalformedLists(t *testing.T) {
	n := testNet(t)
	hosts := []int{0, 1, 2}
	for what, transfers := range map[string][]Transfer{
		"source rank out of range":      {{Src: 3, Dst: 0, Bytes: 1}},
		"negative source rank":          {{Src: -1, Dst: 0, Bytes: 1}},
		"destination rank out of range": {{Src: 0, Dst: 3, Bytes: 1}},
		"rows out of order":             {{Src: 1, Dst: 0, Bytes: 1}, {Src: 0, Dst: 1, Bytes: 1}},
		"columns out of order":          {{Src: 0, Dst: 2, Bytes: 1}, {Src: 0, Dst: 1, Bytes: 1}},
		"duplicate cell":                {{Src: 0, Dst: 1, Bytes: 1}, {Src: 0, Dst: 1, Bytes: 1}},
	} {
		assertPanics(t, what, func() { n.FillTransfers(&Action{Name: "bad"}, hosts, nil, transfers) })
	}
	assertPanics(t, "comp length", func() { n.FillTransfers(&Action{Name: "bad"}, hosts, []float64{1}, nil) })
}
