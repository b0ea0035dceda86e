package perfmodel

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

func perturbTask() *dag.Task { return &dag.Task{Kernel: dag.KernelMul, N: 2000} }

// TestPerturbedIdentity pins the reduction guarantee the robustness engine
// leans on: the identity draw leaves every prediction — including the L07
// parallel-task description — bit-for-bit identical to the base model.
func TestPerturbedIdentity(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	m, err := NewPerturbed(base, IdentityPerturbation())
	if err != nil {
		t.Fatal(err)
	}
	if !IdentityPerturbation().IsIdentity() {
		t.Error("IdentityPerturbation is not IsIdentity")
	}
	task := perturbTask()
	for p := 1; p <= 32; p *= 2 {
		if got, want := m.TaskTime(task, p), base.TaskTime(task, p); got != want {
			t.Errorf("TaskTime(p=%d) = %g, want %g", p, got, want)
		}
		if got, want := m.StartupOverhead(p), base.StartupOverhead(p); got != want {
			t.Errorf("StartupOverhead(p=%d) = %g, want %g", p, got, want)
		}
		if got, want := m.RedistOverhead(p, 2*p), base.RedistOverhead(p, 2*p); got != want {
			t.Errorf("RedistOverhead(%d, %d) = %g, want %g", p, 2*p, got, want)
		}
		comp, bytes := m.TaskPtask(task, p)
		baseComp, baseBytes := base.TaskPtask(task, p)
		if len(comp) != len(baseComp) || len(bytes) != len(baseBytes) {
			t.Fatalf("TaskPtask(p=%d) shape changed under identity perturbation", p)
		}
		for i := range comp {
			if comp[i] != baseComp[i] {
				t.Errorf("TaskPtask(p=%d) comp[%d] = %g, want %g", p, i, comp[i], baseComp[i])
			}
		}
	}
}

// TestPerturbedScalesPredictions checks the multiplicative and additive
// arithmetic on every prediction.
func TestPerturbedScalesPredictions(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	m, err := NewPerturbed(base, Perturbation{
		TaskFactor: 1.5, TaskOffset: 0.25,
		StartupFactor: 2, StartupOffset: -0.1,
		RedistFactor: 0.5, RedistOffset: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	task := perturbTask()
	if got, want := m.TaskTime(task, 4), base.TaskTime(task, 4)*1.5+0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("TaskTime = %g, want %g", got, want)
	}
	// The analytic model predicts zero startup; doubling zero and
	// subtracting 0.1 clamps at zero rather than predicting time travel.
	if got := m.StartupOverhead(4); got != 0 {
		t.Errorf("StartupOverhead = %g, want clamp at 0", got)
	}
	if got, want := m.RedistOverhead(2, 4), base.RedistOverhead(2, 4)*0.5+0.01; math.Abs(got-want) > 1e-12 {
		t.Errorf("RedistOverhead = %g, want %g", got, want)
	}
	if m.Name() != base.Name()+"~perturbed" {
		t.Errorf("Name = %q", m.Name())
	}
}

// TestPerturbedPtaskSemantics checks the three TaskPtask regimes: a pure
// factor scales the per-rank flops (preserving L07 contention), an additive
// offset falls back to fixed-duration simulation, and a fixed-duration base
// model stays fixed-duration.
func TestPerturbedPtaskSemantics(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	task := perturbTask()

	scaled, err := NewPerturbed(base, Perturbation{TaskFactor: 2, StartupFactor: 1, RedistFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := scaled.TaskPtask(task, 4)
	baseComp, _ := base.TaskPtask(task, 4)
	if comp == nil {
		t.Fatal("factor-only perturbation dropped the parallel-task description")
	}
	for i := range comp {
		if got, want := comp[i], baseComp[i]*2; math.Abs(got-want) > 1e-9 {
			t.Errorf("comp[%d] = %g, want %g", i, got, want)
		}
	}

	offset, err := NewPerturbed(base, Perturbation{TaskFactor: 1, TaskOffset: 0.5, StartupFactor: 1, RedistFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if comp, bytes := offset.TaskPtask(task, 4); comp != nil || bytes != nil {
		t.Error("additive task offset should fall back to fixed-duration simulation")
	}
	if got, want := offset.TaskTime(task, 4), base.TaskTime(task, 4)+0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("offset TaskTime = %g, want %g", got, want)
	}
}

// TestPerturbedShapeSurface checks the per-configuration error surface:
// deterministic in (salt, configuration), decorrelated across salts and
// configurations, and consistent between TaskTime and the scaled
// parallel-task description.
func TestPerturbedShapeSurface(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	draw := IdentityPerturbation()
	draw.TaskShape, draw.Salt = 0.5, 7
	m, err := NewPerturbed(base, draw)
	if err != nil {
		t.Fatal(err)
	}
	task := perturbTask()

	// Deterministic: the same configuration always sees the same factor.
	if a, b := m.TaskTime(task, 4), m.TaskTime(task, 4); a != b {
		t.Errorf("shape surface not deterministic: %g vs %g", a, b)
	}
	// Structured: different configurations see different factors.
	r4 := m.TaskTime(task, 4) / base.TaskTime(task, 4)
	r8 := m.TaskTime(task, 8) / base.TaskTime(task, 8)
	if r4 == r8 {
		t.Errorf("shape surface is flat across p: factor %g at both p=4 and p=8", r4)
	}
	// Fresh surface per salt.
	draw2 := draw
	draw2.Salt = 8
	m2, err := NewPerturbed(base, draw2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TaskTime(task, 4)/base.TaskTime(task, 4) == r4 {
		t.Error("different salts produced the same surface point")
	}
	// The L07 description scales by the same factor as TaskTime.
	comp, _ := m.TaskPtask(task, 4)
	baseComp, _ := base.TaskPtask(task, 4)
	if got, want := comp[0]/baseComp[0], r4; math.Abs(got-want) > 1e-12 {
		t.Errorf("ptask flops scaled by %g, TaskTime by %g", got, want)
	}
	// Startup stays untouched when only the task surface is active (the
	// analytic base predicts 0 anyway; use redist, which is non-zero only
	// for the redist surface).
	if got, want := m.RedistOverhead(2, 4), base.RedistOverhead(2, 4); got != want {
		t.Errorf("task-only shape noise moved RedistOverhead: %g vs %g", got, want)
	}
}

// TestPerturbedRejectsBadDraws checks constructor validation.
func TestPerturbedRejectsBadDraws(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	if _, err := NewPerturbed(nil, IdentityPerturbation()); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewPerturbed(base, Perturbation{TaskFactor: -1, StartupFactor: 1, RedistFactor: 1}); err == nil {
		t.Error("negative factor accepted")
	}
	bad := IdentityPerturbation()
	bad.RedistShape = -0.5
	if _, err := NewPerturbed(base, bad); err == nil {
		t.Error("negative shape sigma accepted")
	}
}

// TestPerturbedRejectsNonFinite checks that a NaN or infinite value in any
// of the nine float fields is rejected: NaN < 0 is false, so the sign checks
// alone would let it through to poison every prediction.
func TestPerturbedRejectsNonFinite(t *testing.T) {
	base := NewAnalytic(platform.Bayreuth())
	fields := []struct {
		name string
		set  func(*Perturbation, float64)
	}{
		{"TaskFactor", func(p *Perturbation, v float64) { p.TaskFactor = v }},
		{"TaskOffset", func(p *Perturbation, v float64) { p.TaskOffset = v }},
		{"StartupFactor", func(p *Perturbation, v float64) { p.StartupFactor = v }},
		{"StartupOffset", func(p *Perturbation, v float64) { p.StartupOffset = v }},
		{"RedistFactor", func(p *Perturbation, v float64) { p.RedistFactor = v }},
		{"RedistOffset", func(p *Perturbation, v float64) { p.RedistOffset = v }},
		{"TaskShape", func(p *Perturbation, v float64) { p.TaskShape = v }},
		{"StartupShape", func(p *Perturbation, v float64) { p.StartupShape = v }},
		{"RedistShape", func(p *Perturbation, v float64) { p.RedistShape = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := IdentityPerturbation()
			f.set(&p, v)
			if _, err := NewPerturbed(base, p); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}
