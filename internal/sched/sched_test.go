package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/testutil"
)

// amdahl is an imperfect-speedup cost model: t(τ,p) = W/p + 0.05·W·(p−1)/32,
// so efficiency decays with p and over-allocation is possible.
func amdahl(t *dag.Task, p int) float64 {
	w := t.Flops() / 250e6
	return w/float64(p) + 0.05*w*float64(p-1)/32
}

// perfect is an ideal-speedup cost model.
func perfect(t *dag.Task, p int) float64 {
	return t.Flops() / 250e6 / float64(p)
}

// allocation runs an algorithm's allocation phase on a fresh scratch.
func allocation(algo Algorithm, g *dag.Graph, clusterSize int, cost dag.CostFunc) []int {
	sc := NewScratch()
	sc.Bind(g, clusterSize, cost)
	alloc, err := sc.allocate(algo)
	if err != nil {
		panic(err)
	}
	return append([]int(nil), alloc...)
}

// mapAlloc runs the shared mapping phase on a given allocation.
func mapAlloc(g *dag.Graph, alloc []int, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) *Schedule {
	sc := NewScratch()
	sc.Bind(g, clusterSize, cost)
	return sc.mapInto(alloc, comm).Clone()
}

// mapAllocHetero runs the heterogeneous mapping phase on a given allocation.
func mapAllocHetero(g *dag.Graph, alloc []int, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) *Schedule {
	sc := NewScratch()
	sc.Bind(g, c.Nodes, cost)
	return sc.mapHetero(alloc, c, comm).Clone()
}

func chain(k int) *dag.Graph {
	g := dag.New("chain")
	prev := -1
	for i := 0; i < k; i++ {
		t := g.AddTask(dag.KernelMul, 500)
		if prev >= 0 {
			g.AddEdge(prev, t.ID)
		}
		prev = t.ID
	}
	return g
}

func fork(k int) *dag.Graph {
	g := dag.New("fork")
	root := g.AddTask(dag.KernelMul, 500)
	sink := g.AddTask(dag.KernelMul, 500)
	for i := 0; i < k; i++ {
		t := g.AddTask(dag.KernelMul, 500)
		g.AddEdge(root.ID, t.ID)
		g.AddEdge(t.ID, sink.ID)
	}
	return g
}

func TestCPAAllocatesChainWide(t *testing.T) {
	// A pure chain is all critical path: CPA grows allocations until
	// T_CP ≤ T_A. With perfect speedup T_A is constant while T_CP shrinks,
	// so tasks end up with substantial allocations.
	g := chain(4)
	alloc := allocation(CPA{}, g, 32, perfect)
	for i, a := range alloc {
		if a < 2 {
			t.Errorf("chain task %d allocated %d, want ≥ 2", i, a)
		}
	}
}

func TestCPAAllocationBounds(t *testing.T) {
	g := fork(6)
	alloc := allocation(CPA{}, g, 8, amdahl)
	for i, a := range alloc {
		if a < 1 || a > 8 {
			t.Errorf("task %d allocated %d, outside [1,8]", i, a)
		}
	}
}

func TestCPAStopsAtAreaBalance(t *testing.T) {
	g := fork(6)
	alloc := allocation(CPA{}, g, 32, amdahl)
	tcp := g.CriticalPathLength(alloc, amdahl, nil)
	ta := g.AverageArea(alloc, amdahl, 32)
	// Either balance was reached or no task could grow further.
	if tcp > ta {
		grew := false
		for _, a := range alloc {
			if a < 32 {
				grew = true
			}
		}
		if grew {
			// With the amdahl model marginal gain can go negative, which
			// also legitimately stops the loop; verify that is the case.
			cp := g.CriticalPath(alloc, amdahl, nil)
			for _, id := range cp {
				task := g.Task(id)
				a := alloc[id]
				gain := amdahl(task, a)/float64(a) - amdahl(task, a+1)/float64(a+1)
				if gain > 0 && a < 32 {
					t.Errorf("CPA stopped early: task %d could still gain %g", id, gain)
				}
			}
		}
	}
}

func TestHCPAEfficiencyFloor(t *testing.T) {
	g := fork(4)
	alloc := allocation(HCPA{}, g, 32, amdahl)
	for i, a := range alloc {
		if a == 1 {
			continue
		}
		task := g.Task(i)
		eff := amdahl(task, 1) / (float64(a) * amdahl(task, a))
		if eff < 0.5-1e-9 {
			t.Errorf("task %d at p=%d has efficiency %g < 0.5", i, a, eff)
		}
	}
}

func TestHCPAAllocatesNoMoreThanCPA(t *testing.T) {
	g := fork(6)
	cpa := allocation(CPA{}, g, 32, amdahl)
	hcpa := allocation(HCPA{}, g, 32, amdahl)
	totalCPA, totalHCPA := 0, 0
	for i := range cpa {
		totalCPA += cpa[i]
		totalHCPA += hcpa[i]
	}
	if totalHCPA > totalCPA {
		t.Errorf("HCPA total allocation %d exceeds CPA's %d", totalHCPA, totalCPA)
	}
}

func TestMCPALevelBound(t *testing.T) {
	g := fork(6)
	alloc := allocation(MCPA{}, g, 8, perfect)
	levels, nLevels := g.Levels()
	sums := make([]int, nLevels)
	widths := make([]int, nLevels)
	for id, l := range levels {
		sums[l] += alloc[id]
		widths[l]++
	}
	for l, sum := range sums {
		bound := 8
		if widths[l] > bound {
			bound = widths[l] // every task holds ≥ 1 processor
		}
		if sum > bound {
			t.Errorf("level %d total allocation %d exceeds bound %d", l, sum, bound)
		}
	}
}

func TestAlgorithmsDiffer(t *testing.T) {
	// Across wide DAGs with imperfect speedup the three algorithms must
	// not always produce identical allocations.
	differs := false
	for seed := int64(0); seed < 10 && !differs; seed++ {
		g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: seed})
		cpa := allocation(CPA{}, g, 16, amdahl)
		hcpa := allocation(HCPA{}, g, 16, amdahl)
		mcpa := allocation(MCPA{}, g, 16, amdahl)
		if !equalInts(cpa, hcpa) || !equalInts(cpa, mcpa) {
			differs = true
		}
	}
	if !differs {
		t.Error("CPA, HCPA and MCPA produced identical allocations on all 10 seeds")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBaselines(t *testing.T) {
	g := fork(3)
	seq := allocation(Sequential{}, g, 16, perfect)
	for _, a := range seq {
		if a != 1 {
			t.Errorf("SEQ allocated %d, want 1", a)
		}
	}
	dp := allocation(DataParallel{}, g, 16, perfect)
	for _, a := range dp {
		if a != 16 {
			t.Errorf("DATAPAR allocated %d, want 16", a)
		}
	}
	fx := allocation(Fixed{P: 64}, g, 16, perfect)
	for _, a := range fx {
		if a != 16 {
			t.Errorf("FIXED{64} allocated %d on a 16-node cluster, want 16", a)
		}
	}
	fx0 := allocation(Fixed{P: 0}, g, 16, perfect)
	if fx0[0] != 1 {
		t.Errorf("FIXED{0} allocated %d, want 1", fx0[0])
	}
}

func TestMappingChainIsSequential(t *testing.T) {
	g := chain(3)
	alloc := []int{1, 1, 1}
	s := mapAlloc(g, alloc, 4, perfect, nil)
	// Each chain task starts when its predecessor finishes.
	for i := 1; i < 3; i++ {
		if math.Abs(s.EstStart[i]-s.EstFinish[i-1]) > 1e-9 {
			t.Errorf("chain task %d starts at %g, want %g", i, s.EstStart[i], s.EstFinish[i-1])
		}
	}
}

func TestMappingIndependentTasksRunInParallel(t *testing.T) {
	g := dag.New("indep")
	g.AddTask(dag.KernelMul, 500)
	g.AddTask(dag.KernelMul, 500)
	s := mapAlloc(g, []int{1, 1}, 4, perfect, nil)
	if s.EstStart[0] != 0 || s.EstStart[1] != 0 {
		t.Errorf("independent tasks start at %g and %g, want both 0",
			s.EstStart[0], s.EstStart[1])
	}
	if s.Hosts[0][0] == s.Hosts[1][0] {
		t.Error("parallel tasks share a host")
	}
}

func TestMappingSerializesOnScarceProcessors(t *testing.T) {
	g := dag.New("scarce")
	g.AddTask(dag.KernelMul, 500)
	g.AddTask(dag.KernelMul, 500)
	s := mapAlloc(g, []int{2, 2}, 2, perfect, nil)
	// Only 2 processors: tasks must serialize.
	first, second := 0, 1
	if s.EstStart[1] < s.EstStart[0] {
		first, second = 1, 0
	}
	if math.Abs(s.EstStart[second]-s.EstFinish[first]) > 1e-9 {
		t.Errorf("second task starts at %g, want %g", s.EstStart[second], s.EstFinish[first])
	}
}

func TestMappingCommDelaysStart(t *testing.T) {
	g := chain(2)
	comm := func(src, dst *dag.Task, ps, pd int) float64 { return 1.5 }
	s := mapAlloc(g, []int{1, 1}, 4, perfect, comm)
	want := s.EstFinish[0] + 1.5
	if math.Abs(s.EstStart[1]-want) > 1e-9 {
		t.Errorf("successor starts at %g, want %g", s.EstStart[1], want)
	}
}

func TestBuildProducesValidSchedules(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 11})
	for _, algo := range []Algorithm{CPA{}, HCPA{}, MCPA{}, Sequential{}, DataParallel{}} {
		s, err := Build(algo, g, c.Nodes, cost, comm)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if s.EstMakespan() <= 0 {
			t.Errorf("%s: non-positive makespan", algo.Name())
		}
		if s.Algorithm != algo.Name() {
			t.Errorf("schedule algorithm label = %q", s.Algorithm)
		}
	}
}

func TestBuildRejectsEmptyGraph(t *testing.T) {
	if _, err := Build(CPA{}, dag.New("empty"), 4, perfect, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// unknownAlgo is an Algorithm no scheduler implements.
type unknownAlgo struct{}

func (unknownAlgo) Name() string { return "UNKNOWN" }

// TestBuildRejectsUnknownInputs: an algorithm the scratch does not
// implement, and a cluster other than the one the scratch was bound to, are
// errors.
func TestBuildRejectsUnknownInputs(t *testing.T) {
	g := chain(3)
	if _, err := Build(unknownAlgo{}, g, 4, perfect, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
	sc := NewScratch()
	sc.Bind(g, 4, perfect)
	if _, err := sc.BuildOn(HCPA{}, twoSpeedCluster(8), nil); err == nil {
		t.Error("cluster of 8 accepted by a scratch bound to 4 processors")
	}
}

// TestOrderSortsByStart checks Order against the stable sort it replaced —
// start, then ID, on schedules full of equal starts — and that the result
// slice is its only allocation.
func TestOrderSortsByStart(t *testing.T) {
	stable := func(s *Schedule) []int {
		order := make([]int, len(s.Alloc))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ta, tb := s.EstStart[order[a]], s.EstStart[order[b]]
			if ta != tb {
				return ta < tb
			}
			return order[a] < order[b]
		})
		return order
	}
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	wide := dag.MustGenerate(dag.GenParams{Tasks: 60, InputMatrices: 16, AddRatio: 0.5, N: 2000, Seed: 4})
	scheds := []*Schedule{
		mapAlloc(chain(3), []int{1, 1, 1}, 4, perfect, nil),
		mapAlloc(fork(12), []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 4, perfect, nil),
	}
	for _, algo := range []Algorithm{Sequential{}, HCPA{}} {
		s, err := Build(algo, wide, c.Nodes, perfmodel.CostFunc(model), perfmodel.CommFunc(model, c))
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	for _, s := range scheds {
		if got, want := s.Order(), stable(s); !equalInts(got, want) {
			t.Errorf("%s: Order = %v, stable sort gives %v", s.Graph.Name, got, want)
		}
	}
	if testutil.RaceEnabled {
		return // allocation counts are inflated by race instrumentation
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = scheds[3].Order() }); allocs != 1 {
		t.Errorf("Order allocates %.1f times per call, want 1 (the result)", allocs)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := dag.New("x")
	g.AddTask(dag.KernelMul, 100)
	g.AddTask(dag.KernelMul, 100)
	s := &Schedule{
		Algorithm: "bogus",
		Graph:     g,
		Alloc:     []int{1, 1},
		Hosts:     [][]int{{0}, {0}}, // same host, overlapping times
		EstStart:  []float64{0, 0.5},
		EstFinish: []float64{1, 1.5},
	}
	if err := s.Validate(4); err == nil {
		t.Fatal("overlapping host use not detected")
	}
}

func TestValidateCatchesPrecedenceViolation(t *testing.T) {
	g := chain(2)
	s := &Schedule{
		Algorithm: "bogus",
		Graph:     g,
		Alloc:     []int{1, 1},
		Hosts:     [][]int{{0}, {1}},
		EstStart:  []float64{0, 0.2},
		EstFinish: []float64{1, 1.2}, // successor starts before pred ends
	}
	if err := s.Validate(4); err == nil {
		t.Fatal("precedence violation not detected")
	}
}

// Property: every algorithm on every random DAG yields a schedule that
// passes validation under the analytic model.
func TestSchedulesValidQuick(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	algos := []Algorithm{CPA{}, HCPA{}, MCPA{}}
	prop := func(seed int64, aIdx uint8) bool {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: seed,
		})
		algo := algos[int(aIdx)%len(algos)]
		s, err := Build(algo, g, c.Nodes, cost, comm)
		if err != nil {
			return false
		}
		return s.Validate(c.Nodes) == nil
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestByNameRoundTrip holds the name table to its schedulers: ByName
// resolves every listed name to the algorithm of that Name, in the order
// specs list them, each of which a bound scratch builds, and rejects any
// other name.
func TestByNameRoundTrip(t *testing.T) {
	want := []string{"CPA", "HCPA", "MCPA", "MHEFT", "SEQ", "DATAPAR"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	c := platform.Bayreuth()
	sc := NewScratch()
	sc.Bind(chain(3), c.Nodes, perfect)
	for _, name := range want {
		algo, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if algo.Name() != name {
			t.Errorf("ByName(%q) is %q", name, algo.Name())
		}
		if _, err := sc.BuildOn(algo, c, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"", "M-HEFT", "FIXED", "hcpa"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}
