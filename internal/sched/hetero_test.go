package sched

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

// twoSpeedCluster: half the nodes at the reference speed, half at double.
func twoSpeedCluster(nodes int) platform.Cluster {
	powers := make([]float64, nodes)
	for i := range powers {
		if i < nodes/2 {
			powers[i] = 250e6
		} else {
			powers[i] = 500e6
		}
	}
	return platform.NewHeterogeneous("two-speed", powers, 125e6, 100e-6)
}

func TestBuildHeteroValidSchedules(t *testing.T) {
	c := twoSpeedCluster(16)
	for seed := int64(0); seed < 5; seed++ {
		g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: seed})
		for _, algo := range []Algorithm{CPA{}, HCPA{}, MCPA{}} {
			s, err := BuildHetero(algo, g, c, perfect, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, algo.Name(), err)
			}
			if s.EstMakespan() <= 0 {
				t.Errorf("%s: empty makespan", algo.Name())
			}
		}
	}
}

func TestHeteroMappingPrefersFastNodesWhenFree(t *testing.T) {
	// A single task on an idle two-speed cluster must land on fast nodes.
	c := twoSpeedCluster(8)
	g := dag.New("one")
	g.AddTask(dag.KernelMul, 500)
	s := mapAllocHetero(g, []int{2}, c, perfect, nil)
	for _, h := range s.Hosts[0] {
		if c.PowerOf(h) != 500e6 {
			t.Errorf("task placed on slow host %d while fast hosts idle", h)
		}
	}
}

func TestHeteroMappingSlowsDownOnSlowNodes(t *testing.T) {
	// Force a wide allocation: with more tasks than fast nodes, some run
	// slower; estimated finishes must reflect the slowdown factor.
	c := twoSpeedCluster(4) // 2 slow + 2 fast
	g := dag.New("pair")
	g.AddTask(dag.KernelMul, 500)
	g.AddTask(dag.KernelMul, 500)
	s := mapAllocHetero(g, []int{2, 2}, c, perfect, nil)
	var fast, slow float64
	for id := 0; id < 2; id++ {
		dur := s.EstFinish[id] - s.EstStart[id]
		if c.MinPowerOf(s.Hosts[id]) == 500e6 {
			fast = dur
		} else {
			slow = dur
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("expected one fast and one slow placement, hosts %v", s.Hosts)
	}
	if slow < fast*1.5 {
		t.Errorf("slow placement (%g) not ≈2× fast (%g)", slow, fast)
	}
}

func TestHeteroReducesToHomogeneous(t *testing.T) {
	// On a homogeneous platform the hetero mapping must produce schedules
	// of the same quality as the standard one.
	c := platform.Bayreuth()
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 7})
	alloc := allocation(HCPA{}, g, c.Nodes, amdahl)
	std := mapAlloc(g, alloc, c.Nodes, amdahl, nil)
	het := mapAllocHetero(g, alloc, c, amdahl, nil)
	if het.EstMakespan() > std.EstMakespan()*1.01 {
		t.Errorf("hetero mapping on homogeneous cluster worse: %g vs %g",
			het.EstMakespan(), std.EstMakespan())
	}
}

func TestBuildHeteroRejectsBadInputs(t *testing.T) {
	c := twoSpeedCluster(8)
	if _, err := BuildHetero(CPA{}, dag.New("empty"), c, perfect, nil); err == nil {
		t.Error("empty graph accepted")
	}
	bad := c
	bad.NodePowers = bad.NodePowers[:3]
	g := dag.Chain(2, 100)
	if _, err := BuildHetero(CPA{}, g, bad, perfect, nil); err == nil {
		t.Error("invalid cluster accepted")
	}
}
