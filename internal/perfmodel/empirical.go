package perfmodel

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/regression"
)

// Empirical is the paper's third simulation model (§VII, Table II):
// regression models built from sparse measurements.
//
//   - multiplication: a two-regime fit — Amdahl-like (a·1/p + b, or the
//     paper's a·1/(2p) + b variant for n = 2000) for p ≤ 16, linear
//     (c·p + d) beyond, because overheads start dominating at p ≥ 16;
//   - addition: a single a·1/p + b fit;
//   - task startup and redistribution overheads: linear fits a·p + b.
type Empirical struct {
	// MulFits maps matrix size n to the piecewise multiplication fit.
	MulFits map[int]regression.Piecewise
	// AddFits maps matrix size n to the addition fit.
	AddFits map[int]regression.Fit
	// StartupFit predicts task-startup overhead (seconds) from p.
	StartupFit regression.Fit
	// RedistFit predicts redistribution overhead (seconds) from p(dst).
	RedistFit regression.Fit
}

// Name implements Model.
func (m *Empirical) Name() string { return "empirical" }

// TaskTime implements Model by evaluating the fitted curves. Negative
// predictions (possible near the regime boundary with the paper's n = 3000
// coefficients) are clamped to zero.
func (m *Empirical) TaskTime(task *dag.Task, p int) float64 {
	var t float64
	switch task.Kernel {
	case dag.KernelMul:
		fit, ok := m.MulFits[task.N]
		if !ok {
			panic(fmt.Sprintf("perfmodel: no multiplication fit for n=%d", task.N))
		}
		t = fit.Predict(float64(p))
	case dag.KernelAdd:
		fit, ok := m.AddFits[task.N]
		if !ok {
			panic(fmt.Sprintf("perfmodel: no addition fit for n=%d", task.N))
		}
		t = fit.Predict(float64(p))
	default:
		return 0
	}
	if t < 0 {
		t = 0
	}
	return t
}

// StartupOverhead implements Model.
func (m *Empirical) StartupOverhead(p int) float64 {
	t := m.StartupFit.Predict(float64(p))
	if t < 0 {
		t = 0
	}
	return t
}

// RedistOverhead implements Model; only p(dst) enters the fit, per §VI-C.
func (m *Empirical) RedistOverhead(pSrc, pDst int) float64 {
	t := m.RedistFit.Predict(float64(pDst))
	if t < 0 {
		t = 0
	}
	return t
}

// TaskPtask implements Model: empirical tasks are simulated as fixed
// durations.
func (m *Empirical) TaskPtask(task *dag.Task, p int) ([]float64, [][]float64) {
	return nil, nil
}

// PaperEmpirical returns the empirical model instantiated with the exact
// coefficients of Table II, for tests and for reproducing the paper's rows
// verbatim (times in seconds; the redistribution fit, published in
// milliseconds, is converted).
func PaperEmpirical() *Empirical {
	return &Empirical{
		MulFits: map[int]regression.Piecewise{
			2000: {
				Low:   fitWith(regression.HalfInverse, 239.44, 3.43),
				High:  fitWith(regression.Linear, 0.08, 1.93),
				Split: 16,
			},
			3000: {
				Low:   fitWith(regression.Inverse, 537.91, -25.55),
				High:  fitWith(regression.Linear, -0.09, 11.47),
				Split: 16,
			},
		},
		AddFits: map[int]regression.Fit{
			2000: fitWith(regression.Inverse, 22.99, 0.03),
			3000: fitWith(regression.Inverse, 73.59, 0.38),
		},
		StartupFit: fitWith(regression.Linear, 0.03, 0.65),
		RedistFit:  fitWith(regression.Linear, 7.88e-3, 108.58e-3),
	}
}

// fitWith builds a Fit with known coefficients (no data behind it).
func fitWith(basis regression.Basis, a, b float64) regression.Fit {
	// Construct via FitBasis on two exact points so the internal basis is
	// set; exact recovery is guaranteed for two distinct points.
	xs := []float64{1, 2}
	ys := []float64{float64(a*basis(1)) + b, float64(a*basis(2)) + b}
	return regression.MustFit(xs, ys, basis)
}
