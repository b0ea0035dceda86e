package tgrid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// Replay invariants over random DAGs and algorithms: precedence respected,
// host exclusivity maintained, redistributions nested between producer and
// consumer.
func TestRunInvariantsQuick(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	algos := []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}}

	prop := func(seed int64, aIdx uint8) bool {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: seed,
		})
		algo := algos[int(aIdx)%len(algos)]
		s, err := sched.Build(algo, g, c.Nodes, cost, comm)
		if err != nil {
			return false
		}
		res, err := Run(net, s, ModelTiming{Model: model})
		if err != nil {
			return false
		}
		// Precedence: a task starts only after all its redistributions,
		// and every edge is redistributed once.
		if len(res.Edges) != g.EdgeCount() {
			return false
		}
		for i, e := range res.Edges {
			if res.TaskStart[e[1]] < res.RedistFinish[i]-1e-9 {
				return false
			}
			if res.RedistStart[i] < res.TaskFinish[e[0]]-1e-9 {
				return false
			}
		}
		// Host exclusivity: per-host task intervals must not overlap.
		type span struct{ start, finish float64 }
		perHost := map[int][]span{}
		for id := range res.TaskStart {
			for _, h := range s.Hosts[id] {
				perHost[h] = append(perHost[h], span{res.TaskStart[id], res.TaskFinish[id]})
			}
		}
		for _, spans := range perHost {
			sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
			for i := 1; i < len(spans); i++ {
				if spans[i].start < spans[i-1].finish-1e-9 {
					return false
				}
			}
		}
		// Makespan is the latest activity end.
		last := 0.0
		for id := range res.TaskFinish {
			if res.TaskFinish[id] > last {
				last = res.TaskFinish[id]
			}
		}
		for _, f := range res.RedistFinish {
			if f > last {
				last = f
			}
		}
		return last <= res.Makespan+1e-9 && last >= res.Makespan-1e-9
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The virtual replay must be deterministic: identical schedules and timing
// sources give identical results.
func TestRunDeterministicQuick(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.PaperEmpirical()
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 10, InputMatrices: 4, AddRatio: 0.75, N: 3000, Seed: seed,
		})
		s, err := sched.Build(sched.MCPA{}, g, c.Nodes, cost, comm)
		if err != nil {
			return false
		}
		r1, err1 := Run(net, s, ModelTiming{Model: model})
		r2, err2 := Run(net, s, ModelTiming{Model: model})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Makespan == r2.Makespan
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
