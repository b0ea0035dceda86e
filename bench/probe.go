package main

import "runtime"

// probe times one public entry point on its own: n standalone spans named
// name, each covering batch back-to-back calls of fn (batch > 1 for calls too
// short for one clock pair), and returns the median time of one call in
// nanoseconds.
func probe(tr *tracer, name string, n, batch int, fn func()) float64 {
	for i := 0; i < n; i++ {
		tr.do(i, standalone, name, func() {
			for b := 0; b < batch; b++ {
				fn()
			}
		})
	}
	return tr.med(name) / float64(batch)
}

// allocsPer is the mean number of heap allocations of one call of fn over n
// calls, after one warm-up call — testing.AllocsPerRun without the testing
// package. Exact when nothing else allocates meanwhile.
func allocsPer(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
