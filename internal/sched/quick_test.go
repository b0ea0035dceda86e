package sched_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
)

// This file property-tests the scheduler invariants across random DAGs via
// testing/quick: whatever application the generator produces, every
// algorithm must emit a schedule in which no processor is oversubscribed
// (time-overlapping tasks never share a host), precedence is respected
// (no task starts before its predecessors finish), and every allocation
// stays within [1, cluster size]. Schedule.Validate checks exactly these
// invariants plus the structural ones, and the paper's evaluation pipeline
// leans on them for every simulated and emulated execution.

// quickParams maps testing/quick's raw randomness onto the generator's
// parameter space: 1–24 tasks, the Table I widths and ratios plus edge
// values, small-to-paper matrix sizes.
func quickParams(seed int64, rawTasks, rawWidth, rawRatio, rawSize uint8) dag.GenParams {
	widths := []int{2, 3, 4, 8, 16}
	ratios := []float64{0, 0.25, 0.5, 0.75, 1}
	sizes := []int{64, 500, 2000, 3000}
	return dag.GenParams{
		Tasks:         1 + int(rawTasks)%24,
		InputMatrices: widths[int(rawWidth)%len(widths)],
		AddRatio:      ratios[int(rawRatio)%len(ratios)],
		N:             sizes[int(rawSize)%len(sizes)],
		Seed:          seed,
	}
}

// checkInvariants validates one schedule and re-asserts the three headline
// invariants explicitly, so a future weakening of Schedule.Validate cannot
// silently void the property.
func checkInvariants(t *testing.T, s *sched.Schedule, clusterSize int) bool {
	t.Helper()
	if err := s.Validate(clusterSize); err != nil {
		t.Logf("Validate: %v", err)
		return false
	}
	n := s.Graph.Len()
	for id := 0; id < n; id++ {
		if s.Alloc[id] < 1 || s.Alloc[id] > clusterSize {
			t.Logf("task %d allocated %d processors on a %d-node cluster", id, s.Alloc[id], clusterSize)
			return false
		}
		for _, p := range s.Graph.Task(id).Preds() {
			if s.EstStart[id] < s.EstFinish[p]-1e-9 {
				t.Logf("task %d starts before predecessor %d finishes", id, p)
				return false
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if s.EstStart[a] >= s.EstFinish[b]-1e-9 || s.EstStart[b] >= s.EstFinish[a]-1e-9 {
				continue
			}
			used := make(map[int]bool, len(s.Hosts[a]))
			for _, h := range s.Hosts[a] {
				used[h] = true
			}
			for _, h := range s.Hosts[b] {
				if used[h] {
					t.Logf("tasks %d and %d overlap in time on host %d", a, b, h)
					return false
				}
			}
		}
	}
	return true
}

// TestSchedulerInvariantsQuick sweeps random DAGs through the two-phase
// CPA/HCPA/MCPA builders and the one-phase M-HEFT builder under the
// analytic model on the paper's 32-node platform.
func TestSchedulerInvariantsQuick(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	prop := func(seed int64, rawTasks, rawWidth, rawRatio, rawSize uint8) bool {
		p := quickParams(seed, rawTasks, rawWidth, rawRatio, rawSize)
		g, err := dag.Generate(p)
		if err != nil {
			t.Logf("Generate(%+v): %v", p, err)
			return false
		}
		for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}} {
			s, err := sched.Build(algo, g, c.Nodes, cost, comm)
			if err != nil {
				t.Logf("%s on %s: %v", algo.Name(), p.Name(), err)
				return false
			}
			if !checkInvariants(t, s, c.Nodes) {
				t.Logf("%s violated an invariant on %s", algo.Name(), p.Name())
				return false
			}
		}
		s, err := sched.MHEFT{}.Build(g, c.Nodes, cost, comm)
		if err != nil {
			t.Logf("MHEFT on %s: %v", p.Name(), err)
			return false
		}
		if !checkInvariants(t, s, c.Nodes) {
			t.Logf("MHEFT violated an invariant on %s", p.Name())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHeteroSchedulerInvariantsQuick runs the same property on a two-speed
// heterogeneous platform through BuildHetero (M-HEFT excluded: it is a
// homogeneous-platform scheduler).
func TestHeteroSchedulerInvariantsQuick(t *testing.T) {
	base := platform.Bayreuth()
	powers := make([]float64, base.Nodes)
	for i := range powers {
		powers[i] = base.NodePower
		if i >= base.Nodes/2 {
			powers[i] = base.NodePower * 2
		}
	}
	c := platform.NewHeterogeneous("quick-hetero", powers, base.LinkBandwidth, base.LinkLatency)
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	prop := func(seed int64, rawTasks, rawWidth, rawRatio, rawSize uint8) bool {
		p := quickParams(seed, rawTasks, rawWidth, rawRatio, rawSize)
		g, err := dag.Generate(p)
		if err != nil {
			t.Logf("Generate(%+v): %v", p, err)
			return false
		}
		for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}} {
			s, err := sched.BuildHetero(algo, g, c, cost, comm)
			if err != nil {
				t.Logf("%s on %s: %v", algo.Name(), p.Name(), err)
				return false
			}
			if !checkInvariants(t, s, c.Nodes) {
				t.Logf("%s violated an invariant on %s", algo.Name(), p.Name())
				return false
			}
			if best := s.EstMakespan(); math.IsNaN(best) || best <= 0 {
				t.Logf("%s on %s: estimated makespan %g", algo.Name(), p.Name(), best)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBuildHeteroMatchesOracle is the differential guard of the
// heterogeneous path: on two-speed clusters of 8 to 32 nodes and random DAGs
// from quickParams, BuildHetero and a bound scratch's BuildOn reproduce the
// allocating BuildHetero they replaced bit for bit.
func TestBuildHeteroMatchesOracle(t *testing.T) {
	base := platform.Bayreuth()
	sc := sched.NewScratch()
	prop := func(seed int64, rawTasks, rawWidth, rawRatio, rawSize, rawNodes uint8) bool {
		nodes := 8 << (rawNodes % 3)
		powers := make([]float64, nodes)
		for i := range powers {
			powers[i] = base.NodePower
			if i%3 == 1 {
				powers[i] = base.NodePower * (1.5 + float64(rawNodes%4)/2)
			}
		}
		c := platform.NewHeterogeneous("quick-hetero", powers, base.LinkBandwidth, base.LinkLatency)
		model := perfmodel.NewAnalytic(c)
		cost, comm := perfmodel.CostFunc(model), perfmodel.CommFunc(model, c)
		p := quickParams(seed, rawTasks, rawWidth, rawRatio, rawSize)
		g, err := dag.Generate(p)
		if err != nil {
			t.Logf("Generate(%+v): %v", p, err)
			return false
		}
		sc.Bind(g, c.Nodes, cost)
		for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}, sched.Sequential{}} {
			want, err := sched.BuildHeteroOracle(algo, g, c, cost, comm)
			if err != nil {
				t.Logf("oracle %s on %s: %v", algo.Name(), p.Name(), err)
				return false
			}
			pooled, err := sched.BuildHetero(algo, g, c, cost, comm)
			if err != nil {
				t.Logf("%s on %s: %v", algo.Name(), p.Name(), err)
				return false
			}
			bound, err := sc.BuildOn(algo, c, comm)
			if err != nil {
				t.Logf("BuildOn %s on %s: %v", algo.Name(), p.Name(), err)
				return false
			}
			for _, got := range []*sched.Schedule{pooled, bound} {
				if !sameBits(got, want) {
					t.Logf("%s on %s, %d nodes: schedule differs from the oracle's", algo.Name(), p.Name(), nodes)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether two schedules agree field for field, floats to
// the bit.
func sameBits(a, b *sched.Schedule) bool {
	if a.Algorithm != b.Algorithm || !slices.Equal(a.Alloc, b.Alloc) || len(a.Hosts) != len(b.Hosts) ||
		len(a.EstStart) != len(b.EstStart) || len(a.EstFinish) != len(b.EstFinish) {
		return false
	}
	for i := range a.Hosts {
		if !slices.Equal(a.Hosts[i], b.Hosts[i]) ||
			math.Float64bits(a.EstStart[i]) != math.Float64bits(b.EstStart[i]) ||
			math.Float64bits(a.EstFinish[i]) != math.Float64bits(b.EstFinish[i]) {
			return false
		}
	}
	return true
}
