package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
)

// sameSchedule asserts exact (bitwise float) equality between two schedules.
func sameSchedule(t *testing.T, ctx string, got, want *Schedule) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q != %q", ctx, got.Algorithm, want.Algorithm)
	}
	n := want.Graph.Len()
	if len(got.Alloc) != n || len(got.Hosts) != n || len(got.EstStart) != n || len(got.EstFinish) != n {
		t.Fatalf("%s: field lengths differ", ctx)
	}
	for i := 0; i < n; i++ {
		if got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("%s: task %d alloc %d != %d", ctx, i, got.Alloc[i], want.Alloc[i])
		}
		if len(got.Hosts[i]) != len(want.Hosts[i]) {
			t.Fatalf("%s: task %d host count differs", ctx, i)
		}
		for j := range got.Hosts[i] {
			if got.Hosts[i][j] != want.Hosts[i][j] {
				t.Fatalf("%s: task %d hosts %v != %v", ctx, i, got.Hosts[i], want.Hosts[i])
			}
		}
		if got.EstStart[i] != want.EstStart[i] || got.EstFinish[i] != want.EstFinish[i] {
			t.Fatalf("%s: task %d window [%g,%g] != [%g,%g]", ctx, i,
				got.EstStart[i], got.EstFinish[i], want.EstStart[i], want.EstFinish[i])
		}
	}
}

// TestScratchBuildMatchesBuild is the differential guard for the scratch
// scheduling path: across a spread of random DAGs, cluster sizes and cost
// models, Scratch.Build must reproduce the allocating two-phase Build it
// replaced (buildOracle) bit-for-bit — same allocations, same host sets, same
// estimated timeline.
func TestScratchBuildMatchesBuild(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	// A perturbed model exercises the cost memo with non-trivial floats.
	pm := &perfmodel.Perturbed{Base: model, P: perfmodel.Perturbation{
		TaskFactor: 1.07, StartupFactor: 1.2, TaskShape: 0.3, Salt: 42,
	}}
	pcost := perfmodel.CostFunc(pm)
	pcomm := perfmodel.CommFunc(pm, c)

	algos := []Algorithm{CPA{}, HCPA{}, HCPA{MinEfficiency: 0.25}, MCPA{}, Sequential{}, DataParallel{}, Fixed{P: 3}}
	sc := NewScratch()
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 6; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks:         6 + int(seed)*5,
			InputMatrices: 2 + int(seed)%7,
			AddRatio:      float64(seed) / 6,
			N:             2000,
			Seed:          seed,
		})
		for _, size := range []int{1 + rng.Intn(4), 16, c.Nodes} {
			for _, algo := range algos {
				for _, m := range []struct {
					name string
					cost dag.CostFunc
					comm dag.CommFunc
				}{{"analytic", cost, comm}, {"perturbed", pcost, pcomm}} {
					want, errW := buildOracle(algo, g, size, m.cost, m.comm)
					sc.Bind(g, size, m.cost)
					got, errG := sc.Build(algo, m.comm)
					if (errW == nil) != (errG == nil) {
						t.Fatalf("dag %d size %d %s %s: error mismatch: %v vs %v",
							seed, size, algo.Name(), m.name, errW, errG)
					}
					if errW != nil {
						continue
					}
					ctx := g.Name + "/" + algo.Name() + "/" + m.name
					sameSchedule(t, ctx, got, want)
				}
			}
		}
	}
	t.Run("large", matchesBuildLarge)
}

// stepProfile is a profile model whose task times are the analytic model's
// at the largest power of two ≤ p, with flat startup and redistribution
// overheads: cost curves with plateaus, so growing a task often leaves its
// cost — and its bottom level — exactly where it was, and parallel branches
// tie on bottom levels and critical-path choices.
func stepProfile(t *testing.T, c platform.Cluster, maxP int) perfmodel.Model {
	t.Helper()
	a := perfmodel.NewAnalytic(c)
	d := perfmodel.NewProfileData()
	for _, k := range []dag.Kernel{dag.KernelMul, dag.KernelAdd} {
		task := &dag.Task{Kernel: k, N: 2000}
		for p := 1; p <= maxP; p++ {
			q := 1
			for q*2 <= p {
				q *= 2
			}
			d.TaskTimes[perfmodel.TaskKey{Kernel: k, N: 2000, P: p}] = a.TaskTime(task, q)
			d.Startup[p] = 0.5
			d.RedistByDst[p] = 0.1
		}
	}
	m, err := perfmodel.NewProfile(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matchesBuildLarge extends TestScratchBuildMatchesBuild to the sizes the
// incremental allocation loop and the kept host queue are for: 100- and
// 200-task DAGs on 32 and 48 processors, under the analytic, perturbed,
// plateaued-profile and empirical models, for the CPA family and M-HEFT.
func matchesBuildLarge(t *testing.T) {
	c := platform.Bayreuth()
	analytic := perfmodel.NewAnalytic(c)
	perturbed := &perfmodel.Perturbed{Base: analytic, P: perfmodel.Perturbation{
		TaskFactor: 1.07, StartupFactor: 1.2, TaskShape: 0.3, Salt: 42,
	}}
	models := []perfmodel.Model{analytic, perturbed, stepProfile(t, c, 48), perfmodel.PaperEmpirical()}
	algos := []Algorithm{CPA{}, HCPA{}, MCPA{}}

	sc := NewScratch()
	for i, tasks := range []int{100, 200} {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: tasks, InputMatrices: 4 + 4*i, AddRatio: 0.5, N: 2000, Seed: int64(tasks),
		})
		for _, size := range []int{32, 48} {
			for _, m := range models {
				cost, comm := perfmodel.CostFunc(m), perfmodel.CommFunc(m, c)
				sc.Bind(g, size, cost)
				for _, algo := range algos {
					ctx := fmt.Sprintf("%s/%d/%s/%s", g.Name, size, m.Name(), algo.Name())
					want, err := buildOracle(algo, g, size, cost, comm)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					got, err := sc.Build(algo, comm)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					sameSchedule(t, ctx, got, want)
				}
				ctx := fmt.Sprintf("%s/%d/%s/MHEFT", g.Name, size, m.Name())
				want, err := mheftOracle(MHEFT{}, g, size, cost, comm)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				got, err := sc.BuildMHEFT(MHEFT{}, comm)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				sameSchedule(t, ctx, got, want)
			}
		}
	}
}

// TestScratchBuildMHEFTMatchesMHEFT does the same for the one-phase M-HEFT
// scheduler against its allocating body (mheftOracle).
func TestScratchBuildMHEFTMatchesMHEFT(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	sc := NewScratch()
	for seed := int64(0); seed < 4; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 8 + int(seed)*6, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 100 + seed,
		})
		for _, m := range []MHEFT{{}, {AllocCap: 4}} {
			want, errW := mheftOracle(m, g, c.Nodes, cost, comm)
			sc.Bind(g, c.Nodes, cost)
			got, errG := sc.BuildMHEFT(m, comm)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("dag %d cap %d: error mismatch: %v vs %v", seed, m.AllocCap, errW, errG)
			}
			if errW != nil {
				continue
			}
			sameSchedule(t, g.Name, got, want)
		}
	}
}

// TestScratchRebind checks that a scratch rebinding across graphs and cost
// functions does not leak memoized costs or cached graph analysis.
func TestScratchRebind(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	double := func(task *dag.Task, p int) float64 { return 2 * cost(task, p) }

	g1 := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 1})
	g2 := dag.MustGenerate(dag.GenParams{Tasks: 14, InputMatrices: 2, AddRatio: 1, N: 2000, Seed: 2})

	sc := NewScratch()
	for round := 0; round < 3; round++ {
		for _, g := range []*dag.Graph{g1, g2} {
			for _, cf := range []dag.CostFunc{cost, double} {
				want, err := buildOracle(HCPA{}, g, c.Nodes, cf, comm)
				if err != nil {
					t.Fatal(err)
				}
				sc.Bind(g, c.Nodes, cf)
				got, err := sc.Build(HCPA{}, comm)
				if err != nil {
					t.Fatal(err)
				}
				sameSchedule(t, g.Name, got, want)
			}
		}
	}
}

// TestScheduleClone checks the deep copy detaches from scratch buffers.
func TestScheduleClone(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 3})

	sc := NewScratch()
	sc.Bind(g, c.Nodes, cost)
	first, err := sc.Build(HCPA{}, comm)
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	ref, err := buildOracle(HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the scratch output with a different algorithm's schedule;
	// the clone must be unaffected.
	if _, err := sc.Build(DataParallel{}, comm); err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "clone", clone, ref)
}
