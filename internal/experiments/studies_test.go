package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestAblationMonotonicity(t *testing.T) {
	rows, err := lab.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Model] = r
		if r.Total != 54 {
			t.Errorf("%s scored over %d DAGs, want 54", r.Model, r.Total)
		}
	}
	// Error attribution: replacing the analytic task times with profiled
	// ones removes most of the error (the kernels run ~2x off the model);
	// adding only overheads helps less.
	analytic := byName["analytic"]
	tasksOnly := byName["tasks-only"]
	overheads := byName["analytic+overheads"]
	full := byName["full-profile"]
	if tasksOnly.MedianErrPct >= analytic.MedianErrPct {
		t.Errorf("profiled task times did not reduce error: %g vs %g",
			tasksOnly.MedianErrPct, analytic.MedianErrPct)
	}
	if overheads.MedianErrPct >= analytic.MedianErrPct {
		t.Errorf("profiled overheads did not reduce error: %g vs %g",
			overheads.MedianErrPct, analytic.MedianErrPct)
	}
	if full.MedianErrPct >= tasksOnly.MedianErrPct {
		t.Errorf("full profile (%g) not better than tasks-only (%g)",
			full.MedianErrPct, tasksOnly.MedianErrPct)
	}
	if full.MedianErrPct > 10 {
		t.Errorf("full-profile median error %g%%, want small", full.MedianErrPct)
	}
	// Ordering fidelity: the full profile ranks the algorithms far better
	// than the purely analytic simulator.
	if full.KendallTau <= analytic.KendallTau {
		t.Errorf("full profile tau %g not above analytic %g", full.KendallTau, analytic.KendallTau)
	}
	var buf bytes.Buffer
	WriteAblation(&buf, rows)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("ablation table missing header")
	}
}

func TestStragglerStudyExposesLimit(t *testing.T) {
	rows, err := StragglerStudyCtx(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	healthy, degraded := rows[0], rows[1]
	if healthy.MedianErrPct > 10 {
		t.Errorf("healthy profile error %g%% too large", healthy.MedianErrPct)
	}
	// The per-count profiling methodology cannot see the degraded node:
	// the profile simulator's error must blow up.
	if degraded.MedianErrPct < 5*healthy.MedianErrPct {
		t.Errorf("straggler error %g%% not far above healthy %g%%",
			degraded.MedianErrPct, healthy.MedianErrPct)
	}
	if degraded.Mispredicted <= healthy.Mispredicted {
		t.Errorf("straggler flips (%d) not above healthy (%d)",
			degraded.Mispredicted, healthy.Mispredicted)
	}
	var buf bytes.Buffer
	WriteStraggler(&buf, rows)
	if !strings.Contains(buf.String(), "Straggler study") {
		t.Error("straggler table missing header")
	}
}

func TestHeterogeneityStudy(t *testing.T) {
	rows, err := HeterogeneityStudyCtx(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	analytic, profile := rows[0], rows[1]
	if analytic.Model != "analytic" || profile.Model != "profile" {
		t.Fatalf("unexpected row order: %v", rows)
	}
	// The paper's conclusion must port to the heterogeneous setting:
	// profiled simulation stays usable, analytic stays off by a factor.
	if profile.MedianErrPct > 15 {
		t.Errorf("profile median error %g%% on hetero cluster", profile.MedianErrPct)
	}
	if analytic.MedianErrPct < 5*profile.MedianErrPct {
		t.Errorf("analytic error %g not ≫ profile %g", analytic.MedianErrPct, profile.MedianErrPct)
	}
	if profile.Mispredicted > analytic.Mispredicted {
		t.Errorf("profile flips more winners (%d) than analytic (%d)",
			profile.Mispredicted, analytic.Mispredicted)
	}
	var buf bytes.Buffer
	WriteHetero(&buf, rows)
	if !strings.Contains(buf.String(), "Heterogeneity study") {
		t.Error("hetero table missing header")
	}
}

func TestEnvironmentStudy(t *testing.T) {
	rows, err := EnvironmentStudyCtx(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	bayreuth, modern := rows[0], rows[1]
	if modern.MedianErrPct >= bayreuth.MedianErrPct/3 {
		t.Errorf("modern environment error %g not far below Bayreuth's %g",
			modern.MedianErrPct, bayreuth.MedianErrPct)
	}
	if modern.Mispredicted > bayreuth.Mispredicted {
		t.Errorf("modern environment flips more winners (%d) than Bayreuth (%d)",
			modern.Mispredicted, bayreuth.Mispredicted)
	}
	var buf bytes.Buffer
	WriteEnvironments(&buf, rows)
	if !strings.Contains(buf.String(), "Environment study") {
		t.Error("environment table missing header")
	}
}

func TestNoiseSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	rows, err := NoiseSensitivityCtx(context.Background(), cfg, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Even a noise-free environment leaves structural mispredictions —
	// the analytic model's missing overheads, not measurement noise, are
	// the story.
	if rows[0].Mispredicted == 0 {
		t.Error("noise-free environment shows no analytic mispredictions; structure lost")
	}
	// More noise cannot make the ordering more faithful.
	if rows[1].KendallTau > rows[0].KendallTau {
		t.Errorf("tau rose with noise: %g -> %g", rows[0].KendallTau, rows[1].KendallTau)
	}
	var buf bytes.Buffer
	WriteSensitivity(&buf, rows)
	if !strings.Contains(buf.String(), "Noise sensitivity") {
		t.Error("sensitivity table missing header")
	}
}

func TestBuildReportJSON(t *testing.T) {
	report, err := lab.BuildReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Comparisons) != 6 {
		t.Errorf("%d comparisons, want 6", len(report.Comparisons))
	}
	if len(report.ErrorBoxes) != 6 {
		t.Errorf("%d error boxes, want 6", len(report.ErrorBoxes))
	}
	if len(report.Startup) != 32 || len(report.RedistByDst) != 32 {
		t.Errorf("series lengths %d/%d, want 32/32", len(report.Startup), len(report.RedistByDst))
	}
	if len(report.TableII.Mul) != 2 || len(report.TableII.Add) != 2 {
		t.Error("Table II coefficients incomplete")
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.TableII.StartupA != report.TableII.StartupA {
		t.Error("round-trip lost coefficients")
	}
}

func TestTimeBreakdown(t *testing.T) {
	rows, err := lab.TimeBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.Kernel + r.Startup + r.RedistOverhead + r.RedistTransfer
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %g", r.Algo, sum)
		}
		if r.Kernel < 0.5 {
			t.Errorf("%s: kernel fraction %g implausibly low", r.Algo, r.Kernel)
		}
		if r.Startup <= 0 || r.RedistOverhead <= 0 {
			t.Errorf("%s: overheads missing from breakdown", r.Algo)
		}
		if r.OverheadShareOfMakespan <= 0 || r.OverheadShareOfMakespan > 1 {
			t.Errorf("%s: overhead share of makespan %g", r.Algo, r.OverheadShareOfMakespan)
		}
	}
	var buf bytes.Buffer
	WriteBreakdown(&buf, rows)
	if !strings.Contains(buf.String(), "Time breakdown") {
		t.Error("breakdown table missing header")
	}
}

func TestShapeStudy(t *testing.T) {
	rows, err := lab.ShapeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	agree := 0
	for _, r := range rows {
		if r.ProfileAgree {
			agree++
		}
	}
	// The profile simulator must pick the experimentally better algorithm
	// on at least three of the four skeletons.
	if agree < 3 {
		t.Errorf("profile simulation agrees on only %d/4 skeletons", agree)
	}
	var buf bytes.Buffer
	WriteShapes(&buf, rows)
	if !strings.Contains(buf.String(), "Shape study") {
		t.Error("shape table missing header")
	}
}

func TestScalingStudy(t *testing.T) {
	cfg := DefaultConfig()
	rows, err := ScalingStudyCtx(context.Background(), cfg, []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d scaling rows", len(rows))
	}
	for _, r := range rows {
		if r.Total != 54 {
			t.Errorf("nodes=%d: %d DAGs", r.Nodes, r.Total)
		}
		// The empirical simulator must stay usable on the scaled platform:
		// median error well below the analytic regime (~200%).
		if r.MedianErrPct > 60 {
			t.Errorf("nodes=%d: median error %g%% too large", r.Nodes, r.MedianErrPct)
		}
	}
	var buf bytes.Buffer
	WriteScaling(&buf, rows)
	if !strings.Contains(buf.String(), "Scaling study") {
		t.Error("scaling table missing header")
	}
}
