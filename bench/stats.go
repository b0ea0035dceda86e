package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quantile and median are the repository's own: linear interpolation between
// order statistics (Python's statistics.quantiles(method="inclusive"), numpy's
// default), NaN for an empty slice, the argument left unsorted.
var quantile, median = stats.Quantile, stats.Median

// tailHasSupport reports whether n samples leave at least ten beyond the
// q-quantile — the rule for which percentile a run may report.
func tailHasSupport(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// spread is the run-to-run noise figure the benchmark's bounds are judged
// against: the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(xs, n=4)
// (the exclusive method: position p·(n+1) among the order statistics).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(0.75) - q(0.25)) / med)
}

// worsening is how far b is worse than a as a share of a, for a metric whose
// better direction is given; negative when b is better.
func worsening(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if lowerIsBetter {
		return (b - a) / a
	}
	return (a - b) / a
}
