package robust

import (
	"math/rand"
	"testing"
)

// TestReseededDrawsMatchFreshSources pins the per-cell generator: reseeding
// one *rand.Rand before each trial yields exactly the draws of a fresh
// rand.NewSource per trial, across seeds and noise shapes, including after
// a draw that consumed a different number of variates.
func TestReseededDrawsMatchFreshSources(t *testing.T) {
	noises := []Noise{
		{},
		{TaskTime: Dim{MultSigma: 0.3, AddSigma: 0.1, ShapeSigma: 1}, Startup: Dim{ShapeSigma: 1}, Redist: Dim{MultSigma: 0.2}},
		{Bandwidth: Dim{MultSigma: 0.5}, Latency: Dim{MultSigma: 0.4}, Redist: Dim{AddSigma: 0.05}},
	}
	rng := rand.New(rand.NewSource(0))
	for _, seed := range []int64{0, 1, 7, 2011, -3, 1 << 40} {
		for ni, n := range noises {
			for _, level := range []float64{0.05, 0.5, 2} {
				// Leave the generator mid-stream, as a previous trial would,
				// with a partly consumed Read buffer.
				rng.Float64()
				rng.Read(make([]byte, 3))
				rng.Seed(seed)
				got := drawPerturbation(rng, n, level)
				want := drawPerturbation(rand.New(rand.NewSource(seed)), n, level)
				if got != want {
					t.Errorf("seed %d noise %d level %g: reseeded draw %+v, fresh draw %+v", seed, ni, level, got, want)
				}
			}
		}
	}
}
