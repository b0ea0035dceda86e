package tgrid

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

// flatTiming gives every task a fixed kernel time and startup, and every
// redistribution a fixed overhead, for analytically checkable replays.
type flatTiming struct {
	startup, kernel, redist float64
}

func (f flatTiming) TaskStartup(task *dag.Task, p int) float64 { return f.startup }
func (f flatTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	return f.kernel, nil, nil
}
func (f flatTiming) RedistOverhead(pSrc, pDst int) float64 { return f.redist }

func testNet(t *testing.T) *simgrid.Net {
	t.Helper()
	n, err := simgrid.NewNet(platform.Bayreuth())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func chainSchedule(t *testing.T, k int) *sched.Schedule {
	t.Helper()
	g := dag.New("chain")
	prev := -1
	for i := 0; i < k; i++ {
		task := g.AddTask(dag.KernelNoop, 0)
		task.N = 64 // give it a matrix so redistributions are non-trivial
		task.Kernel = dag.KernelMul
		if prev >= 0 {
			g.AddEdge(prev, task.ID)
		}
		prev = task.ID
	}
	return build(t, sched.Sequential{}, g, 32)
}

// build schedules g on a cluster of the given size under a unit cost model.
func build(t *testing.T, algo sched.Algorithm, g *dag.Graph, clusterSize int) *sched.Schedule {
	t.Helper()
	cost := func(task *dag.Task, p int) float64 { return 1 }
	s, err := sched.Build(algo, g, clusterSize, cost, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunChainTiming(t *testing.T) {
	net := testNet(t)
	s := chainSchedule(t, 3)
	res, err := Run(net, s, flatTiming{startup: 0.5, kernel: 2, redist: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Each task: 0.5 startup + 2 kernel; between tasks: 0.1 redist
	// overhead + transfer of a 64×64 matrix (32 KB at 125 MB/s ≈ 0.26 ms;
	// only if hosts differ — with 1-proc tasks mapping reuses earliest
	// host, transfers may be local). Expected ≥ 3·2.5 + 2·0.1.
	min := 3*2.5 + 2*0.1
	if res.Makespan < min-1e-9 {
		t.Errorf("makespan = %g, want ≥ %g", res.Makespan, min)
	}
	if res.Makespan > min+0.1 {
		t.Errorf("makespan = %g, unexpectedly far above %g", res.Makespan, min)
	}
	// Task windows ordered.
	for i := 1; i < 3; i++ {
		if res.TaskStart[i] < res.TaskFinish[i-1] {
			t.Errorf("task %d starts at %g before predecessor finished at %g",
				i, res.TaskStart[i], res.TaskFinish[i-1])
		}
	}
	// Redistributions recorded per edge, in edge order.
	if want := [][2]int{{0, 1}, {1, 2}}; !slices.Equal(res.Edges, want) {
		t.Errorf("recorded edges %v, want %v", res.Edges, want)
	}
	if d := res.RedistFinish[0] - res.RedistStart[0]; d < 0.1-1e-9 {
		t.Errorf("redist(0,1) = %g, want ≥ 0.1", d)
	}
}

func TestRunRecordsBreakdown(t *testing.T) {
	net := testNet(t)
	s := chainSchedule(t, 3)
	res, err := Run(net, s, flatTiming{startup: 0.5, kernel: 2, redist: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.TaskStartupDur {
		almost(t, res.TaskStartupDur[id], 0.5, 1e-12, "startup duration")
		almost(t, res.KernelDuration(id), 2, 1e-9, "kernel duration")
	}
	b := res.Breakdown()
	almost(t, b.Startup, 1.5, 1e-9, "total startup")
	almost(t, b.Kernel, 6, 1e-9, "total kernel")
	almost(t, b.RedistOverhead, 0.2, 1e-9, "total redistribution overhead")
	if b.RedistTransfer < 0 {
		t.Errorf("negative transfer time %g", b.RedistTransfer)
	}
}

func TestRunIndependentTasksOverlap(t *testing.T) {
	net := testNet(t)
	g := dag.New("par")
	g.AddTask(dag.KernelMul, 64)
	g.AddTask(dag.KernelMul, 64)
	s := build(t, sched.Sequential{}, g, 32)
	res, err := Run(net, s, flatTiming{kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.Makespan, 3, 1e-9, "parallel makespan")
}

func TestRunHostExclusivitySerializes(t *testing.T) {
	net := testNet(t)
	g := dag.New("two-on-one")
	g.AddTask(dag.KernelMul, 64)
	g.AddTask(dag.KernelMul, 64)
	// Both tasks on all 32 hosts: they must serialize.
	s := build(t, sched.DataParallel{}, g, 32)
	res, err := Run(net, s, flatTiming{kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.Makespan, 6, 1e-9, "serialized makespan")
}

func TestRunWithAnalyticModelMatchesLoneEstimates(t *testing.T) {
	c := platform.Bayreuth()
	net := testNet(t)
	model := perfmodel.NewAnalytic(c)
	g := dag.New("single")
	g.AddTask(dag.KernelMul, 2000)
	cost := perfmodel.CostFunc(model)
	s, err := sched.Build(sched.Fixed{P: 4}, g, 32, cost, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, s, ModelTiming{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.Makespan, model.TaskTime(g.Task(0), 4), 1e-6, "analytic single-task replay")
}

func TestRunRejectsInvalidSchedule(t *testing.T) {
	net := testNet(t)
	g := dag.New("bad")
	g.AddTask(dag.KernelMul, 64)
	s := &sched.Schedule{
		Algorithm: "bogus",
		Graph:     g,
		Alloc:     []int{40}, // more than the cluster has
		Hosts:     [][]int{make([]int, 40)},
		EstStart:  []float64{0},
		EstFinish: []float64{1},
	}
	if _, err := Run(net, s, flatTiming{}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

func TestRunDiamondRedistributionsContend(t *testing.T) {
	// A diamond where both branches redistribute large matrices into the
	// sink at the same time: transfers share the network, so the replay
	// must finish later than a single-transfer lower bound.
	net := testNet(t)
	g := dag.New("diamond")
	a := g.AddTask(dag.KernelMul, 2000)
	b := g.AddTask(dag.KernelMul, 2000)
	c := g.AddTask(dag.KernelMul, 2000)
	d := g.AddTask(dag.KernelMul, 2000)
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(a.ID, c.ID)
	g.AddEdge(b.ID, d.ID)
	g.AddEdge(c.ID, d.ID)
	s := build(t, sched.Sequential{}, g, 4)
	res, err := Run(net, s, flatTiming{kernel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 3 {
		t.Errorf("makespan = %g, expected > 3 (kernel chain) due to transfers", res.Makespan)
	}
	for i, e := range res.Edges {
		if res.RedistFinish[i] <= res.RedistStart[i] {
			t.Errorf("edge %v redistribution has non-positive duration", e)
		}
	}
}

func TestModelTimingAdaptsAnalytic(t *testing.T) {
	model := perfmodel.NewAnalytic(platform.Bayreuth())
	mt := ModelTiming{Model: model}
	task := &dag.Task{Kernel: dag.KernelMul, N: 2000}
	fixed, comp, _ := mt.TaskWork(task, []int{0, 1, 2, 3})
	if comp == nil {
		t.Fatal("analytic model should produce a parallel-task description")
	}
	if fixed != 0 {
		t.Errorf("fixed = %g alongside ptask description", fixed)
	}
	if mt.TaskStartup(task, 4) != 0 {
		t.Error("analytic startup should be 0")
	}
}

func TestModelTimingAdaptsEmpirical(t *testing.T) {
	model := perfmodel.PaperEmpirical()
	mt := ModelTiming{Model: model}
	task := &dag.Task{Kernel: dag.KernelMul, N: 2000}
	fixed, comp, bytes := mt.TaskWork(task, []int{0, 1, 2, 3})
	if comp != nil || bytes != nil {
		t.Fatal("empirical model should produce fixed durations")
	}
	almost(t, fixed, model.TaskTime(task, 4), 1e-12, "empirical fixed duration")
}

// TestBreakdownDeterministic: Breakdown sums the edges in Edges order, so
// repeated calls on one Result agree to the bit, and equal that in-order sum.
func TestBreakdownDeterministic(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.PaperEmpirical() // non-zero redistribution overheads
	g := dag.MustGenerate(dag.GenParams{Tasks: 40, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 12})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, perfmodel.CostFunc(model), perfmodel.CommFunc(model, c))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(testNet(t), s, ModelTiming{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	var overhead, transfer float64
	for i := range res.Edges {
		overhead += res.RedistOverheadDur[i]
		transfer += res.RedistFinish[i] - res.RedistStart[i] - res.RedistOverheadDur[i]
	}
	if len(res.Edges) < 20 {
		t.Fatalf("only %d edges; the sum order would hardly matter", len(res.Edges))
	}
	for i := 0; i < 100; i++ {
		b := res.Breakdown()
		if math.Float64bits(b.RedistOverhead) != math.Float64bits(overhead) ||
			math.Float64bits(b.RedistTransfer) != math.Float64bits(transfer) {
			t.Fatalf("call %d: (%v, %v) != in-order sums (%v, %v)", i, b.RedistOverhead, b.RedistTransfer, overhead, transfer)
		}
	}
}
