// Package regression provides the least-squares machinery behind the paper's
// empirical simulation models (§VII, Table II): two-parameter fits of the
// forms y = a·φ(x) + b for basis functions φ(x) = x (linear overheads),
// φ(x) = 1/p and φ(x) = 1/(2p) (Amdahl-like task execution times), piecewise
// models split at a processor count (the paper switches from 1/p to linear at
// p = 16 where overheads start dominating), goodness-of-fit statistics, and
// robust outlier detection (the p = 8 and p = 16 outliers of Figure 6).
package regression

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Basis is a one-dimensional basis function for a two-parameter model
// y = a·φ(x) + b.
type Basis func(x float64) float64

// Predefined basis functions used in Table II.
var (
	// Linear is φ(x) = x, for y = a·p + b (large-p task times, startup and
	// redistribution overheads).
	Linear Basis = func(x float64) float64 { return x }
	// Inverse is φ(x) = 1/x, for y = a/p + b (parallel task times).
	Inverse Basis = func(x float64) float64 { return 1 / x }
	// HalfInverse is φ(x) = 1/(2x); Table II fits the n = 2000
	// multiplication with a·1/(2p) + b.
	HalfInverse Basis = func(x float64) float64 { return 1 / (2 * x) }
)

// Fit is a fitted two-parameter model y = A·φ(x) + B.
type Fit struct {
	A, B float64
	// R2 is the coefficient of determination on the fitting data.
	R2    float64
	basis Basis
}

// Predict evaluates the fitted model.
func (f Fit) Predict(x float64) float64 { return float64(f.A*f.basis(x)) + f.B }

// String formats the fit compactly.
func (f Fit) String() string { return fmt.Sprintf("a=%.4f b=%.4f (R²=%.4f)", f.A, f.B, f.R2) }

// ErrInsufficientData is returned when fewer than two distinct points are
// available for a two-parameter fit.
var ErrInsufficientData = errors.New("regression: need at least two distinct points")

// FitBasis computes the least-squares fit of y = a·φ(x) + b.
func FitBasis(xs, ys []float64, basis Basis) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("regression: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var su, sy, suu, suy float64
	for i := range xs {
		u := basis(xs[i])
		su += u
		sy += ys[i]
		suu += float64(u * u)
		suy += float64(u * ys[i])
	}
	den := float64(n*suu) - float64(su*su)
	if math.Abs(den) < 1e-300 {
		return Fit{}, ErrInsufficientData
	}
	a := (float64(n*suy) - float64(su*sy)) / den
	b := (sy - float64(a*su)) / n

	// R² on the fitting data.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := float64(a*basis(xs[i])) + b
		ssRes += float64((ys[i] - pred) * (ys[i] - pred))
		ssTot += float64((ys[i] - meanY) * (ys[i] - meanY))
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{A: a, B: b, R2: r2, basis: basis}, nil
}

// MustFit is FitBasis but panics on error, for statically known-good inputs.
func MustFit(xs, ys []float64, basis Basis) Fit {
	f, err := FitBasis(xs, ys, basis)
	if err != nil {
		panic(err)
	}
	return f
}

// Piecewise is the paper's two-regime task-time model: an Amdahl-like fit
// for p ≤ Split and a linear fit for p > Split (Table II uses Split = 16,
// with low-regime points {2,4,7,15} and high-regime points {15,24,31}).
type Piecewise struct {
	Low   Fit
	High  Fit
	Split float64
}

// Predict evaluates the piecewise model.
func (p Piecewise) Predict(x float64) float64 {
	if x <= p.Split {
		return p.Low.Predict(x)
	}
	return p.High.Predict(x)
}

// FitPiecewise fits the low regime on points with x ≤ split and the high
// regime on points with x ≥ highLo (the regimes may share boundary points,
// as Table II shares p = 15).
func FitPiecewise(xs, ys []float64, lowBasis Basis, split, highLo float64) (Piecewise, error) {
	var lx, ly, hx, hy []float64
	for i := range xs {
		if xs[i] <= split {
			lx = append(lx, xs[i])
			ly = append(ly, ys[i])
		}
		if xs[i] >= highLo {
			hx = append(hx, xs[i])
			hy = append(hy, ys[i])
		}
	}
	low, err := FitBasis(lx, ly, lowBasis)
	if err != nil {
		return Piecewise{}, fmt.Errorf("regression: low regime: %w", err)
	}
	high, err := FitBasis(hx, hy, Linear)
	if err != nil {
		return Piecewise{}, fmt.Errorf("regression: high regime: %w", err)
	}
	return Piecewise{Low: low, High: high, Split: split}, nil
}

// RelativeErrors returns |pred−actual|/actual for each point.
func RelativeErrors(pred, actual []float64) []float64 {
	out := make([]float64, len(actual))
	for i := range actual {
		if actual[i] == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
	}
	return out
}

// MeanAbsPctError returns the mean of RelativeErrors in percent.
func MeanAbsPctError(pred, actual []float64) float64 {
	errs := RelativeErrors(pred, actual)
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return 100 * sum / float64(len(errs))
}

// DetectOutliers flags points that do not belong to the y = a·φ(x)+b trend,
// iteratively: fit on the kept points, compute residuals, and if the worst
// absolute residual exceeds k times the median absolute residual of the
// rest, drop that point and refit. Flagged indices are returned in ascending
// order. With fewer than four points nothing is flagged; at most a third of
// the points can be dropped, so the fit always retains a majority.
func DetectOutliers(xs, ys []float64, basis Basis, k float64) []int {
	if len(xs) < 4 {
		return nil
	}
	kept := make([]int, len(xs))
	for i := range kept {
		kept[i] = i
	}
	var dropped []int
	maxDrop := len(xs) / 3
	for len(dropped) < maxDrop {
		kx := make([]float64, len(kept))
		ky := make([]float64, len(kept))
		for i, idx := range kept {
			kx[i] = xs[idx]
			ky[i] = ys[idx]
		}
		fit, err := FitBasis(kx, ky, basis)
		if err != nil {
			break
		}
		worst, worstRes := -1, 0.0
		abs := make([]float64, 0, len(kept))
		for i, idx := range kept {
			r := math.Abs(ys[idx] - fit.Predict(xs[idx]))
			abs = append(abs, r)
			if r > worstRes {
				worst, worstRes = i, r
			}
		}
		if worst < 0 {
			break // all residuals are exactly zero
		}
		// Scale estimate excludes the candidate itself so one huge spike
		// cannot mask itself.
		rest := append([]float64(nil), abs[:worst]...)
		rest = append(rest, abs[worst+1:]...)
		mad := median(rest)
		if mad <= 0 || worstRes <= k*mad {
			break
		}
		dropped = append(dropped, kept[worst])
		kept = append(kept[:worst], kept[worst+1:]...)
	}
	sort.Ints(dropped)
	return dropped
}

// DetectRelativeOutliers is DetectOutliers with residuals measured relative
// to the fitted prediction, (y − ŷ)/ŷ. Multiplicative spikes — a kernel
// suddenly running 35% slower at one processor count, as at the paper's
// p = 8 — stand out on this scale even where the fitted curve is small.
func DetectRelativeOutliers(xs, ys []float64, basis Basis, k float64) []int {
	if len(xs) < 4 {
		return nil
	}
	kept := make([]int, len(xs))
	for i := range kept {
		kept[i] = i
	}
	var dropped []int
	maxDrop := len(xs) / 3
	for len(dropped) < maxDrop {
		kx := make([]float64, len(kept))
		ky := make([]float64, len(kept))
		for i, idx := range kept {
			kx[i] = xs[idx]
			ky[i] = ys[idx]
		}
		fit, err := FitBasis(kx, ky, basis)
		if err != nil {
			break
		}
		worst, worstRes := -1, 0.0
		abs := make([]float64, 0, len(kept))
		for i, idx := range kept {
			pred := fit.Predict(xs[idx])
			if pred == 0 {
				abs = append(abs, 0)
				continue
			}
			r := math.Abs((ys[idx] - pred) / pred)
			abs = append(abs, r)
			if r > worstRes {
				worst, worstRes = i, r
			}
		}
		if worst < 0 {
			break
		}
		rest := append([]float64(nil), abs[:worst]...)
		rest = append(rest, abs[worst+1:]...)
		mad := median(rest)
		if mad <= 0 || worstRes <= k*mad {
			break
		}
		dropped = append(dropped, kept[worst])
		kept = append(kept[:worst], kept[worst+1:]...)
	}
	sort.Ints(dropped)
	return dropped
}

// RemoveIndices returns copies of xs and ys without the given indices.
func RemoveIndices(xs, ys []float64, drop []int) ([]float64, []float64) {
	skip := make(map[int]bool, len(drop))
	for _, i := range drop {
		skip[i] = true
	}
	var ox, oy []float64
	for i := range xs {
		if !skip[i] {
			ox = append(ox, xs[i])
			oy = append(oy, ys[i])
		}
	}
	return ox, oy
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
