package stats

import "math"

// Rank-agreement statistics: the paper's headline metric is a sign
// comparison per DAG, but across a whole suite the Kendall rank correlation
// between simulated and measured relative makespans summarises how much of
// the simulator's ordering information survives contact with reality.

// KendallTau returns Kendall's τ-a rank correlation between two paired
// samples: (concordant − discordant) / total pairs. Ties count as neither.
// It returns 0 for fewer than two points.
func KendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx*dy > 0:
				concordant++
			case dx*dy < 0:
				discordant++
			}
		}
	}
	total := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(total)
}

// PearsonR returns the Pearson correlation coefficient of two paired
// samples; 0 for degenerate input.
func PearsonR(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs[:n]), Mean(ys[:n])
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (sqrt(sxx) * sqrt(syy))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
