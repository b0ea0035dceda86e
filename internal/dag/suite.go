package dag

// This file defines the paper's evaluation workload: the 54-instance random
// DAG suite of Table I (3 widths × 3 add ratios × 2 matrix sizes × 3 samples,
// 10 tasks each).

// Table I parameter values.
var (
	// SuiteTasks is the task count per DAG.
	SuiteTasks = 10
	// SuiteWidths is the "number of input matrices (DAG width)" row.
	SuiteWidths = []int{2, 4, 8}
	// SuiteRatios is the "ratio addition / multiplication tasks" row.
	SuiteRatios = []float64{0.5, 0.75, 1.0}
	// SuiteSizes is the "matrix size (# elements per dimension)" row.
	SuiteSizes = []int{2000, 3000}
	// SuiteSamples is the "number of samples" row.
	SuiteSamples = 3
)

// SuiteInstance pairs a generated graph with its generator parameters.
type SuiteInstance struct {
	Params GenParams
	Graph  *Graph
}

// SuiteParams enumerates the 54 parameter combinations of Table I in a fixed
// deterministic order (size-major, then width, then ratio, then sample) with
// seeds derived from the base seed so the whole suite is reproducible.
func SuiteParams(baseSeed int64) []GenParams {
	var out []GenParams
	for _, n := range SuiteSizes {
		for _, w := range SuiteWidths {
			for _, r := range SuiteRatios {
				for s := 0; s < SuiteSamples; s++ {
					out = append(out, GenParams{
						Tasks:         SuiteTasks,
						InputMatrices: w,
						AddRatio:      r,
						N:             n,
						Seed:          suiteSeed(baseSeed, n, w, r, s),
					})
				}
			}
		}
	}
	return out
}

// suiteSeed mixes the instance coordinates into a per-instance seed using a
// splitmix64 round per component, which avoids collisions across the grid.
func suiteSeed(base int64, n, w int, r float64, sample int) int64 {
	h := uint64(base)
	// The product is rounded explicitly: some targets would otherwise fuse it
	// into the float-to-unsigned conversion's subtraction of 2^63.
	for _, v := range []uint64{uint64(n), uint64(w), uint64(float64(r * 1000)), uint64(sample)} {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1) // keep it non-negative
}

// GenerateSuite produces the full 54-DAG evaluation suite.
func GenerateSuite(baseSeed int64) ([]SuiteInstance, error) {
	params := SuiteParams(baseSeed)
	out := make([]SuiteInstance, 0, len(params))
	for _, p := range params {
		g, err := Generate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, SuiteInstance{Params: p, Graph: g})
	}
	return out, nil
}

// Name returns the instance's display name: the graph's own name when it
// has one (always true for generated instances, whose graph is named after
// the parameters, and for imported traces and built shapes), else the
// generator parameters.
func (in SuiteInstance) Name() string {
	if in.Graph != nil && in.Graph.Name != "" {
		return in.Graph.Name
	}
	return in.Params.Name()
}

// FilterBySize returns the suite instances with the given matrix size; the
// paper plots n=2000 and n=3000 separately (27 DAGs each).
func FilterBySize(suite []SuiteInstance, n int) []SuiteInstance {
	var out []SuiteInstance
	for _, in := range suite {
		if in.Params.N == n {
			out = append(out, in)
		}
	}
	return out
}
