package robust_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/robust"
	"repro/internal/service"
)

// newEngine pairs a fresh fit-once registry with a robustness engine.
func newEngine(workers int) robust.Engine {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	return robust.Engine{Source: reg, Workers: workers}
}

// baseSpec is the small stability grid the tests sweep: one platform, the
// n=2000 half of the suite, the paper's HCPA-vs-MCPA pair under the
// analytic model.
func baseSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "robust-test",
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic"},
	}
}

func testSpec() robust.Spec {
	return robust.Spec{
		Spec: baseSpec(),
		Robustness: robust.Axis{
			Trials: 6,
			Levels: []float64{0.05, 0.2},
		},
	}
}

// TestTrialsZeroReducesToCampaign pins the acceptance criterion: a spec
// whose robustness axis is disabled renders byte-for-byte the base
// campaign's report.
func TestTrialsZeroReducesToCampaign(t *testing.T) {
	ceng := campaign.Engine{Source: newEngine(0).Source, Workers: 2}
	cres, err := ceng.Run(context.Background(), baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cres.Write(&want)

	reng := newEngine(2)
	rres, err := reng.Run(context.Background(), robust.Spec{Spec: baseSpec()})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rres.Write(&got)

	if got.String() != want.String() {
		t.Errorf("trials=0 robustness report differs from the base campaign report:\n--- robustness ---\n%s\n--- campaign ---\n%s",
			got.String(), want.String())
	}
	if len(rres.Cells) != 0 {
		t.Errorf("trials=0 produced %d stability cells, want 0", len(rres.Cells))
	}
	if rres.Base.Cells[0].Raw != nil {
		t.Error("trials=0 retained raw per-instance data; the base campaign should run unmodified")
	}
}

// TestStabilisationReusesBaseCellInputs pins that a cell's model is looked
// up once, by the base campaign cell: stabilisation reads the inputs the base
// cell was scored on, so a first run over a fresh registry never hits it.
func TestStabilisationReusesBaseCellInputs(t *testing.T) {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	eng := robust.Engine{Source: reg, Workers: 2}
	res, err := eng.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no stability cells ran")
	}
	for _, m := range reg.Models() {
		if m.Hits != 0 {
			t.Errorf("%s/%s: %d registry hits, want 0: one lookup per cell", m.Environment, m.Kind, m.Hits)
		}
	}
}

// TestRobustDeterministicAcrossWorkerCounts pins the acceptance criterion:
// the full robustness report is byte-identical at workers=1 and workers=8,
// each on a fresh registry — and attaching a live Progress record (as the
// service's job tracking and the CLI ticker do) changes nothing.
func TestRobustDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int, p *obs.Progress) string {
		eng := newEngine(workers)
		eng.Progress = p
		res, err := eng.Run(context.Background(), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Write(&buf)
		return buf.String()
	}
	serial := run(1, nil)
	parallel := run(8, nil)
	if serial != parallel {
		t.Errorf("robustness report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	prog := &obs.Progress{}
	tracked := run(4, prog)
	if tracked != serial {
		t.Errorf("robustness report changes when a Progress record is attached:\n--- tracked ---\n%s\n--- bare ---\n%s",
			tracked, serial)
	}
	snap := prog.Snapshot()
	if snap.CellsTotal == 0 || snap.CellsDone != snap.CellsTotal {
		t.Errorf("progress finished at %d/%d cells, want all cells done", snap.CellsDone, snap.CellsTotal)
	}
	if snap.TrialBudget == 0 || snap.TrialsUsed == 0 || snap.TrialsUsed > snap.TrialBudget {
		t.Errorf("progress trials = %d of budget %d, want 0 < used <= budget", snap.TrialsUsed, snap.TrialBudget)
	}
}

// TestStabilityInvariants checks the Monte Carlo aggregates are internally
// consistent: probabilities in [0, 1], flipped counts bounded by the
// instance count, positive makespan ratios, fragile tables sorted by
// critical level, and the critical level drawn from the spec's level list.
func TestStabilityInvariants(t *testing.T) {
	eng := newEngine(0)
	spec := testSpec()
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(res.Base.Cells) {
		t.Fatalf("stability cells %d != campaign cells %d", len(res.Cells), len(res.Base.Cells))
	}
	levels := res.Plan.Spec.Robustness.Levels
	for _, c := range res.Cells {
		if c.Instances != 27 {
			t.Errorf("cell %s has %d instances, want 27", c.Platform.Env, c.Instances)
		}
		for _, p := range c.Pairs {
			if len(p.Levels) != len(levels) {
				t.Fatalf("pair %s vs %s has %d level rows, want %d", p.A, p.B, len(p.Levels), len(levels))
			}
			for li, l := range p.Levels {
				if l.Level != levels[li] {
					t.Errorf("level row %d is %g, want %g", li, l.Level, levels[li])
				}
				if l.MeanFlipProb < 0 || l.MeanFlipProb > 1 || l.MaxFlipProb < 0 || l.MaxFlipProb > 1 {
					t.Errorf("flip probabilities out of [0,1]: mean=%g max=%g", l.MeanFlipProb, l.MaxFlipProb)
				}
				if l.MeanFlipProb > l.MaxFlipProb {
					t.Errorf("mean flip probability %g exceeds max %g", l.MeanFlipProb, l.MaxFlipProb)
				}
				if l.Flipped < 0 || l.Flipped > c.Instances {
					t.Errorf("flipped count %d outside [0, %d]", l.Flipped, c.Instances)
				}
				if !(l.MedianRatio > 0) {
					t.Errorf("median makespan ratio %g is not positive", l.MedianRatio)
				}
				if math.IsNaN(l.MedianCIHalf) || l.MedianCIHalf < 0 {
					t.Errorf("median CI half-width %g invalid for %d trials", l.MedianCIHalf, spec.Robustness.Trials)
				}
			}
			if p.NeverFlipped < 0 || p.NeverFlipped > c.Instances {
				t.Errorf("never-flipped %d outside [0, %d]", p.NeverFlipped, c.Instances)
			}
			if p.NeverFlipped < c.Instances {
				found := false
				for _, l := range levels {
					if p.MedianCritical == l {
						found = true
					}
				}
				if !found {
					t.Errorf("median critical %g is not one of the swept levels %v", p.MedianCritical, levels)
				}
			} else if !math.IsNaN(p.MedianCritical) {
				t.Errorf("no instance flipped but median critical is %g", p.MedianCritical)
			}
			for i := 1; i < len(p.Fragile); i++ {
				prev, cur := p.Fragile[i-1].Critical, p.Fragile[i].Critical
				if math.IsNaN(prev) && !math.IsNaN(cur) {
					t.Errorf("fragile table puts never-flipping %q before flipping %q", p.Fragile[i-1].Name, p.Fragile[i].Name)
				}
				if !math.IsNaN(prev) && !math.IsNaN(cur) && prev > cur {
					t.Errorf("fragile table not sorted by critical level: %g before %g", prev, cur)
				}
			}
		}
	}
}

// TestReportSections checks the rendered report carries the base campaign
// followed by every stability section.
func TestReportSections(t *testing.T) {
	eng := newEngine(0)
	res, err := eng.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	out := buf.String()
	for _, want := range []string{
		"Campaign \"robust-test\"",
		"Winner prediction",
		"Robustness — Monte Carlo model perturbation",
		"Winner stability",
		"Critical noise level",
		"Most fragile instances",
		"HCPA vs MCPA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if base := strings.Index(out, "Robustness —"); base <= 0 {
		t.Error("robustness sections should follow the base campaign report")
	}
}

// TestSpecValidation exercises the planner's limit enforcement: every
// rejected spec names the offending field.
func TestSpecValidation(t *testing.T) {
	withAxis := func(a robust.Axis) robust.Spec {
		return robust.Spec{Spec: baseSpec(), Robustness: a}
	}
	cases := []struct {
		name string
		spec robust.Spec
		want string
	}{
		{"negative trials", withAxis(robust.Axis{Trials: -1}), "robustness.trials"},
		{"oversized trials", withAxis(robust.Axis{Trials: robust.MaxTrials + 1}), "robustness.trials"},
		{"too many levels", withAxis(robust.Axis{Trials: 1, Levels: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09}}), "robustness.levels"},
		{"level zero", withAxis(robust.Axis{Trials: 1, Levels: []float64{0}}), "robustness.levels"},
		{"level too large", withAxis(robust.Axis{Trials: 1, Levels: []float64{robust.MaxLevel + 1}}), "robustness.levels"},
		{"levels not increasing", withAxis(robust.Axis{Trials: 1, Levels: []float64{0.2, 0.1}}), "strictly increasing"},
		{"negative sigma", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{TaskTime: robust.Dim{MultSigma: -1}}}), "task_time.mult_sigma"},
		{"oversized sigma", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{Startup: robust.Dim{MultSigma: robust.MaxSigma + 1}}}), "startup.mult_sigma"},
		{"oversized add sigma", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{Redist: robust.Dim{AddSigma: robust.MaxAddSigma + 1}}}), "redist.add_sigma"},
		{"additive bandwidth", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{Bandwidth: robust.Dim{AddSigma: 1}}}), "multiplicative-only"},
		{"shaped latency", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{Latency: robust.Dim{ShapeSigma: 1}}}), "multiplicative-only"},
		{"oversized shape sigma", withAxis(robust.Axis{Trials: 1, Noise: robust.Noise{TaskTime: robust.Dim{ShapeSigma: robust.MaxSigma + 1}}}), "task_time.shape_sigma"},
		{"bad threshold", withAxis(robust.Axis{Trials: 1, FlipThreshold: 1.5}), "flip_threshold"},
		{"NaN threshold", withAxis(robust.Axis{Trials: 1, FlipThreshold: math.NaN()}), "flip_threshold"},
		{"NaN stop z", withAxis(robust.Axis{Trials: 1, StopZ: math.NaN()}), "stop_z"},
		{"negative stop z", withAxis(robust.Axis{Trials: 1, StopZ: -1}), "stop_z"},
		{"oversized stop z", withAxis(robust.Axis{Trials: 1, StopZ: robust.MaxStopZ + 1}), "stop_z"},
		{"negative min trials", withAxis(robust.Axis{Trials: 1, MinTrials: -1}), "min_trials"},
		{"oversized min trials", withAxis(robust.Axis{Trials: 1, MinTrials: robust.MaxTrials + 1}), "min_trials"},
		{"min trials over budget", withAxis(robust.Axis{Trials: 2, Sequential: true, MinTrials: 3}), "min_trials"},
		{"trial-run budget", func() robust.Spec {
			// 17 platform points × 2 algorithms × 8 levels × 64 trials =
			// 17408 trial runs, just over the 16384 budget.
			s := withAxis(robust.Axis{Trials: robust.MaxTrials, Levels: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}})
			for n := 4; n < 21; n++ {
				s.Platforms.Nodes = append(s.Platforms.Nodes, n)
			}
			return s
		}(), "trial runs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Plan(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Plan() error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSpecDefaults checks the axis normalization: trials > 0 fills the
// documented defaults; trials == 0 zeroes the axis so the plan is
// unambiguous.
func TestSpecDefaults(t *testing.T) {
	p, err := robust.Spec{Spec: baseSpec(), Robustness: robust.Axis{Trials: 4}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	a := p.Spec.Robustness
	if a.Seed != p.Campaign.Spec.Seed {
		t.Errorf("default perturbation seed %d, want the campaign seed %d", a.Seed, p.Campaign.Spec.Seed)
	}
	if len(a.Levels) != 3 || a.Levels[0] != 0.05 {
		t.Errorf("default levels %v, want {0.05, 0.1, 0.2}", a.Levels)
	}
	if a.Noise.TaskTime.ShapeSigma != 1 || a.Noise.Startup.ShapeSigma != 1 || a.Noise.Redist.ShapeSigma != 1 {
		t.Errorf("default noise %+v, want sigma-1 shape noise on the three model dimensions", a.Noise)
	}
	if a.Noise.Bandwidth != (robust.Dim{}) || a.Noise.Latency != (robust.Dim{}) {
		t.Errorf("default noise %+v perturbs the platform; it should not", a.Noise)
	}
	if a.FlipThreshold != 0.5 {
		t.Errorf("default flip threshold %g, want 0.5", a.FlipThreshold)
	}
	if a.Sequential || a.StopZ != 0 || a.MinTrials != 0 {
		t.Errorf("sequential defaults %+v leaked into a non-sequential axis", a)
	}
	if p.TrialRuns() != 1*2*3*4 {
		t.Errorf("trial runs %d, want %d", p.TrialRuns(), 1*2*3*4)
	}

	pq, err := robust.Spec{Spec: baseSpec(), Robustness: robust.Axis{Trials: 4, Sequential: true}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if aq := pq.Spec.Robustness; aq.StopZ != robust.DefaultStopZ || aq.MinTrials != robust.DefaultMinTrials {
		t.Errorf("sequential defaults z=%g min=%d, want z=%g min=%d",
			aq.StopZ, aq.MinTrials, robust.DefaultStopZ, robust.DefaultMinTrials)
	}

	p0, err := robust.Spec{Spec: baseSpec(), Robustness: robust.Axis{Levels: []float64{9999}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if a0 := p0.Spec.Robustness; !reflect.DeepEqual(a0, robust.Axis{}) {
		t.Errorf("trials=0 axis %+v, want zero value", a0)
	}
}
