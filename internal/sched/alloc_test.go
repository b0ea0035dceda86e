package sched

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/testutil"
)

// TestScratchBuildAllocFree pins the tentpole's scheduling claim: once a
// scratch has been warmed on a graph, rebinding it (fresh cost function, new
// memo epoch) and rebuilding every CPA-family algorithm plus M-HEFT
// allocates nothing.
func TestScratchBuildAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	algos := []Algorithm{CPA{}, HCPA{}, MCPA{}, Sequential{}, DataParallel{}}
	for _, tasks := range []int{20, 100} {
		g := dag.MustGenerate(dag.GenParams{Tasks: tasks, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 77})
		sc := NewScratch()
		run := func() {
			sc.Bind(g, c.Nodes, cost)
			for _, algo := range algos {
				if _, err := sc.Build(algo, comm); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sc.BuildMHEFT(MHEFT{}, comm); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch's buffers and per-graph caches
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%d tasks: warm scratch build allocates %.1f times per run, want 0", tasks, allocs)
		}
	}
}
