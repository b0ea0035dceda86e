package tgrid_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/testutil"
	"repro/internal/tgrid"
)

// fittedModels returns the paper's three simulator models for the Bayreuth
// environment, the measured two fitted the way experiments.NewLab fits them.
func fittedModels(t *testing.T) []perfmodel.Model {
	t.Helper()
	em, err := cluster.NewEmulator(cluster.Bayreuth(), 42)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.BuildProfileModel(em, profiler.DefaultProfileOptions())
	if err != nil {
		t.Fatal(err)
	}
	emp, err := profiler.BuildEmpiricalModel(em, profiler.DefaultEmpiricalOptions())
	if err != nil {
		t.Fatal(err)
	}
	return []perfmodel.Model{perfmodel.NewAnalytic(platform.Bayreuth()), prof, emp}
}

// testNets returns three 32-node layouts: the Bayreuth star, the same star
// behind a contended backplane, and a two-speed heterogeneous cluster.
func testNets(t *testing.T) map[string]*simgrid.Net {
	t.Helper()
	star := platform.Bayreuth()
	backplane := star
	backplane.BackplaneBandwidth = 2 * star.LinkBandwidth
	powers := make([]float64, star.Nodes)
	for i := range powers {
		powers[i] = star.NodePower * float64(1+i%2)
	}
	nets := map[string]*simgrid.Net{}
	for name, c := range map[string]platform.Cluster{
		"star":      star,
		"backplane": backplane,
		"hetero":    platform.NewHeterogeneous("two-speed", powers, star.LinkBandwidth, star.LinkLatency),
	} {
		net, err := simgrid.NewNet(c)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = net
	}
	return nets
}

func buildAll(t *testing.T, g *dag.Graph, nodes int, m perfmodel.Model, c platform.Cluster) []*sched.Schedule {
	t.Helper()
	cost, comm := perfmodel.CostFunc(m), perfmodel.CommFunc(m, c)
	var out []*sched.Schedule
	for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}} {
		s, err := sched.Build(algo, g, nodes, cost, comm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	s, err := sched.MHEFT{}.Build(g, nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, s)
}

// sameResult asserts bitwise equality of two execution records.
func sameResult(t *testing.T, ctx string, got, want *tgrid.Result) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		t.Fatalf("%s: makespan %v != oracle %v", ctx, got.Makespan, want.Makespan)
	case !same(got.TaskStart, want.TaskStart) || !same(got.TaskFinish, want.TaskFinish) ||
		!same(got.TaskStartupDur, want.TaskStartupDur):
		t.Fatalf("%s: task windows differ from the oracle's", ctx)
	case !slices.Equal(got.Edges, want.Edges):
		t.Fatalf("%s: edges %v != oracle %v", ctx, got.Edges, want.Edges)
	case !same(got.RedistStart, want.RedistStart) || !same(got.RedistFinish, want.RedistFinish) ||
		!same(got.RedistOverheadDur, want.RedistOverheadDur):
		t.Fatalf("%s: redistribution windows differ from the oracle's", ctx)
	}
}

// TestRunMatchesOracle pins Run, now a replay on a pooled replayer, to the
// closure-and-map body it replaced: the whole Result — every task window,
// edge window, edge overhead and the makespan — bit for bit, over the Table I
// suite × {CPA, HCPA, MCPA, MHEFT} × {analytic, profile, empirical} on three
// net layouts.
func TestRunMatchesOracle(t *testing.T) {
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		suite = suite[:6]
	}
	c := platform.Bayreuth()
	nets := testNets(t)
	for _, m := range fittedModels(t) {
		timing := tgrid.ModelTiming{Model: m}
		for _, inst := range suite {
			for _, s := range buildAll(t, inst.Graph, c.Nodes, m, c) {
				for name, net := range nets {
					ctx := fmt.Sprintf("%s %s %s on %s", m.Name(), s.Algorithm, inst.Params.Name(), name)
					want, err := tgrid.RunOracle(net, s, timing)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tgrid.Run(net, s, timing)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, ctx, got, want)
				}
			}
		}
	}
	t.Run("noisy", runMatchesOracleNoisy)
}

// noisyTiming is a seeded, stateful timing in the emulated cluster's
// pattern: a model's startups, fixed kernel durations and redistribution
// overheads, each times a lognormal draw from a private stream. Parallel-task
// descriptions pass through and draw nothing, as Timing's contract requires.
// With a nil stream it is the noiseless twin a replayer binds against.
type noisyTiming struct {
	base tgrid.Timing
	rng  *rand.Rand
}

func (n noisyTiming) noise() float64 {
	if n.rng == nil {
		return 1
	}
	return math.Exp(0.05 * n.rng.NormFloat64())
}

func (n noisyTiming) TaskStartup(task *dag.Task, p int) float64 {
	return n.base.TaskStartup(task, p) * n.noise()
}

func (n noisyTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	fixed, comp, bytes := n.base.TaskWork(task, hosts)
	if comp == nil && bytes == nil {
		fixed *= n.noise()
	}
	return fixed, comp, bytes
}

func (n noisyTiming) RedistOverhead(pSrc, pDst int) float64 {
	return n.base.RedistOverhead(pSrc, pDst) * n.noise()
}

// runMatchesOracleNoisy binds each schedule against the noiseless twin and
// replays it under the noisy timing, the way the emulated cluster executes:
// the Result equals the oracle's under an identically seeded stream, and
// both streams are left at the same position.
func runMatchesOracleNoisy(t *testing.T) {
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	suite = suite[:12]
	c := platform.Bayreuth()
	nets := testNets(t)
	rep := tgrid.NewReplayer()
	for mi, m := range fittedModels(t) {
		base := tgrid.ModelTiming{Model: m}
		for i, inst := range suite {
			for _, s := range buildAll(t, inst.Graph, c.Nodes, m, c) {
				for name, net := range nets {
					ctx := fmt.Sprintf("noisy %s %s %s on %s", m.Name(), s.Algorithm, inst.Params.Name(), name)
					seed := int64(100*mi + i)
					oracle := noisyTiming{base: base, rng: rand.New(rand.NewSource(seed))}
					want, err := tgrid.RunOracle(net, s, oracle)
					if err != nil {
						t.Fatal(err)
					}
					if err := rep.Bind(net, s, noisyTiming{base: base}); err != nil {
						t.Fatal(err)
					}
					noisy := noisyTiming{base: base, rng: rand.New(rand.NewSource(seed))}
					if _, err := rep.Replay(net, tgrid.Unscaled{Timing: noisy}); err != nil {
						t.Fatal(err)
					}
					sameResult(t, ctx, rep.Result(), want)
					if a, b := noisy.rng.Int63(), oracle.rng.Int63(); a != b {
						t.Fatalf("%s: noise streams left at different positions (%d vs %d)", ctx, a, b)
					}
				}
			}
		}
	}
}

// TestMakespanAndTaskWindowMatchRun is the differential guard of the pooled
// path every makespan-only caller takes: over the whole Table I suite ×
// {CPA, HCPA, MCPA, MHEFT} × {analytic, profile, empirical} on three net
// layouts, Makespan equals the oracle Run's makespan and a pooled replayer's
// TaskWindow equals the oracle's per-task start, finish and startup — all
// bit for bit. The loop alternates models, nets and schedule shapes on the
// same pooled replayers, so stale state from an earlier bind would show.
func TestMakespanAndTaskWindowMatchRun(t *testing.T) {
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		suite = suite[:6]
	}
	c := platform.Bayreuth()
	nets := testNets(t)
	for _, m := range fittedModels(t) {
		timing := tgrid.ModelTiming{Model: m}
		for _, inst := range suite {
			for _, s := range buildAll(t, inst.Graph, c.Nodes, m, c) {
				for name, net := range nets {
					want, err := tgrid.RunOracle(net, s, timing)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tgrid.Makespan(net, s, timing)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Makespan {
						t.Fatalf("%s %s %s on %s: Makespan %v != Run %v",
							m.Name(), s.Algorithm, inst.Params.Name(), name, got, want.Makespan)
					}
					rep := tgrid.AcquireReplayer()
					if got, err = rep.Simulate(net, s, timing); err != nil || got != want.Makespan {
						t.Fatalf("%s %s %s on %s: Simulate %v, %v; Run %v",
							m.Name(), s.Algorithm, inst.Params.Name(), name, got, err, want.Makespan)
					}
					for id := range want.TaskStart {
						start, finish, startup := rep.TaskWindow(id)
						if start != want.TaskStart[id] || finish != want.TaskFinish[id] || startup != want.TaskStartupDur[id] {
							t.Fatalf("%s %s %s on %s: task %d window (%v, %v, %v) != Run (%v, %v, %v)",
								m.Name(), s.Algorithm, inst.Params.Name(), name, id, start, finish, startup,
								want.TaskStart[id], want.TaskFinish[id], want.TaskStartupDur[id])
						}
					}
					tgrid.ReleaseReplayer(rep)
				}
			}
		}
	}
}

// TestMakespanRejectsInvalidSchedule: the pooled path validates like Run.
func TestMakespanRejectsInvalidSchedule(t *testing.T) {
	net := testNets(t)["star"]
	g := dag.New("bad")
	g.AddTask(dag.KernelMul, 64)
	s := &sched.Schedule{
		Algorithm: "bogus",
		Graph:     g,
		Alloc:     []int{2},
		Hosts:     [][]int{{3, 3}}, // the same host twice
		EstStart:  []float64{0},
		EstFinish: []float64{1},
	}
	timing := tgrid.ModelTiming{Model: perfmodel.NewAnalytic(platform.Bayreuth())}
	if _, err := tgrid.Makespan(net, s, timing); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// TestRebindAcrossNetsAndTimingKinds is the regression test for stale usage
// in recycled actions: a replayer that bound parallel tasks on a large net
// and is re-bound to fixed-duration tasks on a small one used to keep the
// old usage vectors, and Engine.Add — which validates usage even on pure
// delays — panicked on resource indices the small net does not have.
func TestRebindAcrossNetsAndTimingKinds(t *testing.T) {
	big := platform.Bayreuth()
	small := big.Scaled(8)
	bigNet, err := simgrid.NewNet(big)
	if err != nil {
		t.Fatal(err)
	}
	smallNet, err := simgrid.NewNet(small)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 12, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 5})
	analytic := perfmodel.NewAnalytic(big)
	wide, err := sched.Build(sched.HCPA{}, g, big.Nodes, perfmodel.CostFunc(analytic), perfmodel.CommFunc(analytic, big))
	if err != nil {
		t.Fatal(err)
	}
	fixed := perfmodel.PaperEmpirical()
	narrow, err := sched.Build(sched.HCPA{}, g, small.Nodes, perfmodel.CostFunc(fixed), perfmodel.CommFunc(fixed, small))
	if err != nil {
		t.Fatal(err)
	}

	rep := tgrid.NewReplayer()
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			net    *simgrid.Net
			s      *sched.Schedule
			timing tgrid.Timing
		}{
			{bigNet, wide, tgrid.ModelTiming{Model: analytic}},
			{smallNet, narrow, tgrid.ModelTiming{Model: fixed}},
		} {
			want, err := tgrid.RunOracle(c.net, c.s, c.timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Bind(c.net, c.s, c.timing); err != nil {
				t.Fatal(err)
			}
			got, err := rep.Replay(c.net, tgrid.Unscaled{Timing: c.timing})
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Makespan {
				t.Fatalf("round %d on %d nodes: replay %v != run %v", round, c.net.Cluster.Nodes, got, want.Makespan)
			}
		}
	}
}

// TestBuildAndMakespanAllocFree pins the steady state of the path study,
// campaign and arrival cells run per schedule: a scratch build, then the
// pooled validate + bind + replay, allocate nothing once warm.
func TestBuildAndMakespanAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	net := testNets(t)["star"]
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	g := suite[17].Graph
	for _, m := range fittedModels(t) {
		cost, comm := perfmodel.CostFunc(m), perfmodel.CommFunc(m, c)
		timing := tgrid.Timing(tgrid.ModelTiming{Model: m}) // boxed once per cell, as callers do
		sc := sched.NewScratch()
		cell := func() {
			sc.Bind(g, c.Nodes, cost)
			for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.MCPA{}} {
				s, err := sc.Build(algo, comm)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tgrid.Makespan(net, s, timing); err != nil {
					t.Fatal(err)
				}
			}
		}
		cell() // warm the scratch, the pooled replayer and its caches
		if allocs := testing.AllocsPerRun(50, cell); allocs != 0 {
			t.Errorf("%s: warm build + makespan cell allocates %.1f times per run, want 0", m.Name(), allocs)
		}
	}
}

// TestReplayerRetainedHeapBounded bounds what a pooled replayer keeps alive
// after a scaling-study-shaped pass (the Table I suite × {HCPA, MCPA} on 32,
// 64 and 128 nodes, parallel-task and fixed-duration models alike). Its
// caches hold transfer lists, not dense (pSrc+pDst)² matrices — with those
// the same pass retained tens of megabytes per replayer, and every worker
// parks one in the pool.
func TestReplayerRetainedHeapBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap sizes are inflated by race instrumentation")
	}
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	rep := tgrid.NewReplayer()
	for _, nodes := range []int{32, 64, 128} {
		c := platform.Bayreuth().Scaled(nodes)
		net, err := simgrid.NewNet(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []perfmodel.Model{perfmodel.NewAnalytic(c), perfmodel.PaperEmpirical()} {
			cost, comm := perfmodel.CostFunc(m), perfmodel.CommFunc(m, c)
			for _, inst := range suite {
				for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.MCPA{}} {
					s, err := sched.Build(algo, inst.Graph, nodes, cost, comm)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rep.Simulate(net, s, tgrid.ModelTiming{Model: m}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	runtime.KeepAlive(rep)
	rep = nil
	without := heap()
	const limit = 4 << 20
	if held := int64(with) - int64(without); held > limit {
		t.Errorf("replayer retains %d KB after the pass, want at most %d KB", held>>10, limit>>10)
	} else {
		t.Logf("replayer retains %d KB", held>>10)
	}
}
