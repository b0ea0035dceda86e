package simgrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// usageVec lists a usage map as a vector, in Go's randomized map order — so
// every test built on it also exercises setUsage's sorting.
func usageVec(usage map[int]float64) []Use {
	if usage == nil {
		return nil
	}
	vec := make([]Use, 0, len(usage))
	for r, u := range usage {
		vec = append(vec, Use{Res: r, Amount: u})
	}
	return vec
}

// mmVar builds a sparse solver variable from a usage map, the way Engine.Add
// does for actions.
func mmVar(usage map[int]float64, bound float64) *maxminVar {
	v := &maxminVar{bound: bound}
	v.setUsage(usageVec(usage))
	return v
}

// solveVars runs a fresh solver over the variables, for tests that exercise
// the algorithm outside an engine.
func solveVars(vars []*maxminVar, capacity []float64) {
	var s solver
	s.solve(vars, capacity)
}

func rates(vars []*maxminVar) []float64 {
	out := make([]float64, len(vars))
	for i, v := range vars {
		out[i] = v.rate
	}
	return out
}

func TestMaxMinSingleVariable(t *testing.T) {
	v := mmVar(map[int]float64{0: 2}, 0)
	solveVars([]*maxminVar{v}, []float64{10})
	if v.rate != 5 {
		t.Errorf("rate = %g, want 5", v.rate)
	}
}

func TestMaxMinEqualSharing(t *testing.T) {
	a := mmVar(map[int]float64{0: 1}, 0)
	b := mmVar(map[int]float64{0: 1}, 0)
	solveVars([]*maxminVar{a, b}, []float64{10})
	if a.rate != 5 || b.rate != 5 {
		t.Errorf("rates = %v, want [5 5]", rates([]*maxminVar{a, b}))
	}
}

func TestMaxMinWeightedSharing(t *testing.T) {
	// Variable a uses 3 units per rate, b uses 1: fair rates equalize at
	// C/Σw = 12/4 = 3.
	a := mmVar(map[int]float64{0: 3}, 0)
	b := mmVar(map[int]float64{0: 1}, 0)
	solveVars([]*maxminVar{a, b}, []float64{12})
	if a.rate != 3 || b.rate != 3 {
		t.Errorf("rates = %v, want [3 3]", rates([]*maxminVar{a, b}))
	}
}

func TestMaxMinTwoBottlenecks(t *testing.T) {
	// a alone on resource 0 (cap 10); a and b share resource 1 (cap 4).
	// Resource 1 is the bottleneck for both: each gets 2; a's resource 0
	// does not constrain it further.
	a := mmVar(map[int]float64{0: 1, 1: 1}, 0)
	b := mmVar(map[int]float64{1: 1}, 0)
	solveVars([]*maxminVar{a, b}, []float64{10, 4})
	if a.rate != 2 || b.rate != 2 {
		t.Errorf("rates = %v, want [2 2]", rates([]*maxminVar{a, b}))
	}
}

func TestMaxMinProgressiveFilling(t *testing.T) {
	// Classic: flows a (link0+link1), b (link0), c (link1); caps 1, 2.
	// link0: a+b ≤ 1 → fair 0.5 each; link1 then gives c = 2-0.5 = 1.5.
	a := mmVar(map[int]float64{0: 1, 1: 1}, 0)
	b := mmVar(map[int]float64{0: 1}, 0)
	c := mmVar(map[int]float64{1: 1}, 0)
	solveVars([]*maxminVar{a, b, c}, []float64{1, 2})
	want := []float64{0.5, 0.5, 1.5}
	got := rates([]*maxminVar{a, b, c})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("rates = %v, want %v", got, want)
			break
		}
	}
}

func TestMaxMinBound(t *testing.T) {
	// b is bounded below its fair share; a picks up the slack.
	a := mmVar(map[int]float64{0: 1}, 0)
	b := mmVar(map[int]float64{0: 1}, 1)
	solveVars([]*maxminVar{a, b}, []float64{10})
	if b.rate != 1 {
		t.Errorf("bounded rate = %g, want 1", b.rate)
	}
	if a.rate != 9 {
		t.Errorf("unbounded rate = %g, want 9", a.rate)
	}
}

func TestMaxMinNoUsage(t *testing.T) {
	v := mmVar(nil, 3)
	solveVars([]*maxminVar{v}, []float64{1})
	if v.rate != 3 {
		t.Errorf("rate = %g, want bound 3", v.rate)
	}
}

func TestMaxMinZeroCapacity(t *testing.T) {
	v := mmVar(map[int]float64{0: 1}, 0)
	solveVars([]*maxminVar{v}, []float64{0})
	if v.rate != 0 {
		t.Errorf("rate = %g, want 0 on dead resource", v.rate)
	}
}

func TestSetUsageSortsAndDropsZeros(t *testing.T) {
	v := mmVar(map[int]float64{7: 1, 0: 2, 3: 0, 5: 4}, 0)
	wantRes := []int{0, 5, 7}
	wantUse := []float64{2, 4, 1}
	if len(v.res) != len(wantRes) {
		t.Fatalf("res = %v, want %v", v.res, wantRes)
	}
	for i := range wantRes {
		if v.res[i] != wantRes[i] || v.use[i] != wantUse[i] {
			t.Fatalf("sparse form = %v/%v, want %v/%v", v.res, v.use, wantRes, wantUse)
		}
	}
	// Reloading reuses the backing arrays and resorts.
	before := &v.res[0]
	v.setUsage([]Use{{2, 1}, {1, 3}})
	if &v.res[0] != before {
		t.Error("setUsage reallocated its backing array on reload")
	}
	if v.res[0] != 1 || v.res[1] != 2 || v.use[0] != 3 || v.use[1] != 1 {
		t.Errorf("reloaded sparse form = %v/%v, want [1 2]/[3 1]", v.res, v.use)
	}
}

// TestSolverScratchReuse pins the allocation-free steady state: after a warm-up
// solve, repeated solves of same-shape problems must not allocate.
func TestSolverScratchReuse(t *testing.T) {
	var s solver
	vars := []*maxminVar{
		mmVar(map[int]float64{0: 1, 1: 2}, 0),
		mmVar(map[int]float64{1: 1}, 1.5),
		mmVar(map[int]float64{0: 3, 2: 1}, 0),
	}
	caps := []float64{4, 6, 8}
	s.solve(vars, caps) // warm-up grows the scratch
	allocs := testing.AllocsPerRun(100, func() { s.solve(vars, caps) })
	if allocs != 0 {
		t.Errorf("steady-state solve allocates %.1f objects per run, want 0", allocs)
	}
}

// Properties: feasibility (no constraint violated), and at least one tight
// constraint or bound per variable (Pareto efficiency indicator).
func TestMaxMinPropertiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nRes := 1 + r.Intn(5)
		nVar := 1 + r.Intn(8)
		caps := make([]float64, nRes)
		for i := range caps {
			caps[i] = 0.5 + 10*r.Float64()
		}
		vars := make([]*maxminVar, nVar)
		usages := make([]map[int]float64, nVar)
		for i := range vars {
			usage := make(map[int]float64)
			for rr := 0; rr < nRes; rr++ {
				if r.Float64() < 0.6 {
					usage[rr] = 0.1 + 3*r.Float64()
				}
			}
			if len(usage) == 0 {
				usage[r.Intn(nRes)] = 1
			}
			bound := 0.0
			if r.Float64() < 0.3 {
				bound = 0.1 + 2*r.Float64()
			}
			vars[i] = mmVar(usage, bound)
			usages[i] = usage
		}
		solveVars(vars, caps)

		// Feasibility.
		used := make([]float64, nRes)
		for i, v := range vars {
			if v.rate < 0 {
				return false
			}
			if v.bound > 0 && v.rate > v.bound*(1+1e-9) {
				return false
			}
			for rr, u := range usages[i] {
				used[rr] += u * v.rate
			}
		}
		for rr := range caps {
			if used[rr] > caps[rr]*(1+1e-9) {
				return false
			}
		}
		// Efficiency: every variable is limited by a saturated resource or
		// its own bound.
		for i, v := range vars {
			if v.bound > 0 && v.rate >= v.bound*(1-1e-9) {
				continue
			}
			limited := false
			for rr := range usages[i] {
				if used[rr] >= caps[rr]*(1-1e-6) {
					limited = true
					break
				}
			}
			if !limited {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
