// Package stats provides the summary statistics the paper's evaluation
// reports: means, quantiles, box-and-whisker five-number summaries
// (Figure 8), relative errors and winner-sign agreement counts (Figures 1,
// 5, 7).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation; NaN for fewer than two
// points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += float64((x - m) * (x - m))
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation;
// NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// FiveNum is a box-and-whisker summary: minimum, lower quartile, median,
// upper quartile, maximum.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary.
func Summarize(xs []float64) FiveNum {
	return FiveNum{
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}
}

// String renders the summary as a compact boxplot row.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// RelErrPct returns |sim − exp| / exp in percent.
func RelErrPct(sim, exp float64) float64 {
	if exp == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(sim-exp) / math.Abs(exp)
}

// SimErrPct returns |exp − sim| / sim in percent — the makespan simulation
// error normalised by the *simulated* makespan, Figure 8's metric (a
// simulation predicting 4 s for an 60 s run is 1400% off, which is how the
// paper's analytic boxes reach error magnitudes in the hundreds).
func SimErrPct(sim, exp float64) float64 {
	if sim == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(exp-sim) / math.Abs(sim)
}

// RelDiff returns (a − b) / b, the paper's "relative makespan of HCPA"
// metric (negative means a is shorter than b).
func RelDiff(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return (a - b) / b
}

// SameSign reports whether two relative differences point to the same
// winner; differences within eps of zero count as ties compatible with
// either sign.
func SameSign(a, b, eps float64) bool {
	if math.Abs(a) <= eps || math.Abs(b) <= eps {
		return true
	}
	return (a > 0) == (b > 0)
}

// CountDisagreements returns how many paired relative differences point to
// opposite winners — the paper's "simulation outcome is erroneous in k out
// of n cases" metric.
func CountDisagreements(sim, exp []float64, eps float64) int {
	n := len(sim)
	if len(exp) < n {
		n = len(exp)
	}
	count := 0
	for i := 0; i < n; i++ {
		if !SameSign(sim[i], exp[i], eps) {
			count++
		}
	}
	return count
}
