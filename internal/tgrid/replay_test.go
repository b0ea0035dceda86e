package tgrid

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// TestReplayMatchesRun is the differential guard for the replay path: over a
// spread of DAGs, algorithms and perturbation draws — including platform
// (bandwidth/latency) noise, which re-parameterises the net — Replayer must
// reproduce the oracle Run's makespan bit for bit.
func TestReplayMatchesRun(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	baseNet, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}

	draws := []perfmodel.Perturbation{
		perfmodel.IdentityPerturbation(),
		{TaskFactor: 1.13, StartupFactor: 1, RedistFactor: 1, Salt: 1},
		{TaskFactor: 0.9, StartupFactor: 1.4, RedistFactor: 1.2, TaskShape: 0.25, Salt: 2},
		{TaskFactor: 1, StartupFactor: 1, RedistFactor: 1, TaskOffset: 0.02, Salt: 3}, // fixed fallback
		{TaskFactor: 1.05, StartupFactor: 1, RedistFactor: 1, RedistShape: 0.4, StartupOffset: 0.01, Salt: 4},
	}
	bwLat := [][2]float64{{1, 1}, {0.7, 1.6}, {1.4, 0.5}}

	rep := NewReplayer()
	for seed := int64(0); seed < 4; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 8 + int(seed)*7, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 20 + seed,
		})
		for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.MCPA{}, sched.Sequential{}} {
			s, err := sched.Build(algo, g, c.Nodes, cost, comm)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Bind(baseNet, s, ModelTiming{Model: base}); err != nil {
				t.Fatal(err)
			}
			for di, draw := range draws {
				for _, bl := range bwLat {
					pc := c
					pc.LinkBandwidth *= bl[0]
					pc.BackplaneBandwidth *= bl[0]
					pc.LinkLatency *= bl[1]
					net, err := simgrid.NewNet(pc)
					if err != nil {
						t.Fatal(err)
					}
					pm := &perfmodel.Perturbed{Base: base, P: draw}
					want, err := RunOracle(net, s, ModelTiming{Model: pm})
					if err != nil {
						t.Fatal(err)
					}
					got, err := rep.Replay(net, ScaledTiming{Model: pm})
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Makespan {
						t.Fatalf("dag %d %s draw %d bw %g lat %g: replay %v != run %v (diff %g)",
							seed, algo.Name(), di, bl[0], bl[1], got, want.Makespan,
							math.Abs(got-want.Makespan))
					}
				}
			}
		}
	}
}

// TestReplayUnscaledMatchesRun checks the Unscaled adapter: replaying the
// bound base timing itself reproduces the oracle Run with that timing.
func TestReplayUnscaledMatchesRun(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 12, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 9})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOracle(net, s, ModelTiming{Model: base})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	if err := rep.Bind(net, s, ModelTiming{Model: base}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated replays must agree with themselves
		got, err := rep.Replay(net, Unscaled{ModelTiming{Model: base}})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Makespan {
			t.Fatalf("replay %d: %v != %v", i, got, want.Makespan)
		}
	}
}

// TestReplayRebind checks a replayer re-bound across schedules and graphs
// does not leak structure from earlier binds.
func TestReplayRebind(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g1 := dag.MustGenerate(dag.GenParams{Tasks: 18, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 30})
	g2 := dag.MustGenerate(dag.GenParams{Tasks: 7, InputMatrices: 2, AddRatio: 1, N: 2000, Seed: 31})
	pm := &perfmodel.Perturbed{Base: base, P: perfmodel.Perturbation{
		TaskFactor: 1.1, StartupFactor: 1, RedistFactor: 1, Salt: 5,
	}}
	rep := NewReplayer()
	for round := 0; round < 2; round++ {
		for _, g := range []*dag.Graph{g1, g2} {
			for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.DataParallel{}} {
				s, err := sched.Build(algo, g, c.Nodes, cost, comm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunOracle(net, s, ModelTiming{Model: pm})
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Bind(net, s, ModelTiming{Model: base}); err != nil {
					t.Fatal(err)
				}
				got, err := rep.Replay(net, ScaledTiming{Model: pm})
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Makespan {
					t.Fatalf("round %d %s %s: %v != %v", round, g.Name, algo.Name(), got, want.Makespan)
				}
			}
		}
	}
}

// negativeStartup is a timing the replayer refuses by panicking.
type negativeStartup struct{ ModelTiming }

func (negativeStartup) TaskStartup(*dag.Task, int) float64 { return -1 }

// A replayer held when its simulation panics is dropped, not returned to the
// pool for the next request to pick up half-replayed.
func TestMakespanPanicDropsReplayer(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 8, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 20})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, perfmodel.CostFunc(base), perfmodel.CommFunc(base, c))
	if err != nil {
		t.Fatal(err)
	}
	acquired, released := replayerAcquires.Value(), replayerReleases.Value()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Makespan under a negative startup did not panic")
			}
		}()
		_, _ = Makespan(net, s, negativeStartup{ModelTiming{Model: base}})
	}()
	if got := replayerAcquires.Value() - acquired; got != 1 {
		t.Fatalf("%d replayers acquired, want 1", got)
	}
	if got := replayerReleases.Value() - released; got != 0 {
		t.Errorf("the replayer held at the panic was released to the pool")
	}
	if _, err := Makespan(net, s, ModelTiming{Model: base}); err != nil {
		t.Fatalf("Makespan after the panic: %v", err)
	}
	if got := replayerReleases.Value() - released; got != 1 {
		t.Errorf("%d replayers released after a clean run, want 1", got)
	}
}
