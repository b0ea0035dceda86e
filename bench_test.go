// Benchmark harness: one sub-benchmark per study of the paper's evaluation
// (BenchmarkStudy/<name>). Each measures the computation behind its
// artefact and prints the paper-style rows once, so
//
//	go test -run '^$' -bench BenchmarkStudy -benchmem
//
// regenerates the entire evaluation.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error
)

// sharedLab builds the evaluation setup once for all benchmarks.
func sharedLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		lab, labErr = experiments.NewLab(experiments.DefaultConfig())
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return lab
}

var printOnce = map[string]*sync.Once{}
var printMu sync.Mutex

// printArtifact prints a table/figure exactly once across all benchmark
// iterations and runs.
func printArtifact(name string, f func()) {
	printMu.Lock()
	once, ok := printOnce[name]
	if !ok {
		once = &sync.Once{}
		printOnce[name] = once
	}
	printMu.Unlock()
	once.Do(func() {
		fmt.Println()
		f()
		fmt.Println()
	})
}

// BenchmarkStudy regenerates every study of the evaluation through
// RenderStudy, one sub-benchmark per StudyNames entry, and prints each
// report once. Every iteration renders on a fresh lab assembled around the
// shared lab's fitted models, so the suite passes behind Figures 1, 5, 7
// and 8 are scored each time rather than read from a lab's cache; the
// standalone studies fit their own models every time, as RenderStudy does.
func BenchmarkStudy(b *testing.B) {
	shared := sharedLab(b)
	cfg := experiments.DefaultConfig()
	for _, name := range experiments.StudyNames() {
		b.Run(name, func(b *testing.B) {
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l, err := experiments.AssembleLab(cfg, shared.Truth, shared.Em, shared.Profile, shared.Empirical)
				if err != nil {
					b.Fatal(err)
				}
				out.Reset()
				b.StartTimer()
				labFn := func() (*experiments.Lab, error) { return l, nil }
				if err := experiments.RenderStudy(context.Background(), name, cfg, labFn, &out); err != nil {
					b.Fatal(err)
				}
			}
			printArtifact(name, func() { os.Stdout.Write(out.Bytes()) })
		})
	}
}
