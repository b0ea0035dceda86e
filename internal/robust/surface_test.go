package robust_test

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/robust"
	"repro/internal/testutil"
)

// mcStudySpec is the robustness study of the mc-study benchmark workload,
// built the way the benchmark builds it: the seed's n=2000 Table I suite on
// 16 and 32 nodes, HCPA vs MCPA under the analytic model, three noise
// levels, 16 trials, as a rescheduling, prediction-only replay or
// sequential-stopping job.
func mcStudySpec(seed int64, kind string) robust.Spec {
	spec := robust.Spec{
		Spec: campaign.Spec{
			Name:       "bench-" + kind,
			Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{16, 32}},
			Workloads:  campaign.WorkloadAxis{SuiteSeeds: []int64{seed}, Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 16, Seed: seed, Levels: []float64{0.05, 0.2, 0.5}},
	}
	spec.Robustness.PredictionOnly = kind == "replay"
	spec.Robustness.Sequential = kind == "sequential"
	return spec
}

// TestNoSurfaceOverflows guards the perturbed models' error-surface tables:
// over the benchmark's three Monte Carlo job kinds at two seeds and the
// documented robustness example, every trial's points fit its table, so no
// draw is recomputed. An overflow changes no result, only the cost, so only
// this count can catch the loss.
func TestNoSurfaceOverflows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven robustness studies")
	}
	if testutil.RaceEnabled {
		t.Skip("too slow under race instrumentation; the count does not depend on it")
	}
	var specs []robust.Spec
	for _, seed := range []int64{2011, 7} {
		for _, kind := range []string{"resched", "replay", "sequential"} {
			specs = append(specs, mcStudySpec(seed, kind))
		}
	}
	specs = append(specs, robust.Spec{
		Spec: campaign.Spec{
			Name:       "bayreuth-hcpa-mcpa-stability",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 16, Levels: []float64{0.02, 0.05, 0.1, 0.2}},
	})
	eng := newEngine(0)
	for _, spec := range specs {
		before := robust.SurfaceOverflowsTotal.Value()
		if _, err := eng.Run(context.Background(), spec); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if n := robust.SurfaceOverflowsTotal.Value() - before; n != 0 {
			t.Errorf("%s (seed %d): %d error-surface draws overflowed their table", spec.Name, spec.Robustness.Seed, n)
		}
	}
}
