// Command bench is the repository's benchmark: five workloads that each
// stress a different stretch of the layer ladder (max-min solve → engine
// event → replay → schedule build → cell → job → HTTP request → durable
// claim/complete), six end-to-end metrics measured with tracing off, and a
// separate traced run that times calls into every layer's public entry points
// from outside. README.md names every workload and metric and says which
// end-to-end number each per-layer number should move.
//
// One workload, one process (what BENCHMARK.json's command runs):
//
//	bench --workload api-small --seed 2011 --seconds 15 --trace 0
//
// Without --workload it runs the whole suite, one child process per workload
// and round, and prints the median of the rounds; see suite.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what a workload is built from. The program under test only ever
// sees inputs generated from Seed.
type config struct {
	Seed int64
	// Tiny shrinks every workload's inputs to a go-test-time smoke.
	Tiny bool
	// TmpDir is where store directories go (inside the checkout when run
	// through run.sh).
	TmpDir string
}

// workload is one benchmark workload. An untraced run is rounds × (setup,
// run slice after slice, teardown); a traced run is setup, run plain, run with
// spans, walk, teardown.
type workload interface {
	// setup builds one fresh instance of the program under test, generates
	// the inputs and the oracle values from the seed, and warms the instance.
	setup() error
	teardown()
	// run drives the closed loop for about d and verifies every output.
	// With a tracer, every op is additionally recorded as one span.
	run(d time.Duration, tr *tracer) (*runStats, error)
	// walk replays sampled ops rung by rung and probes the layers this
	// workload is the home of, returning those per-layer metrics.
	walk(tr *tracer) (map[string]float64, error)
}

// runStats is what one timed phase measured.
type runStats struct {
	// Ops is the work done, in the workload's op unit; Throughput is Ops per
	// second by the workload's own rule (see each workload).
	Ops        float64
	Throughput float64
	// LatenciesMS are per-op (or per-request, per-job) latencies.
	LatenciesMS []float64
	// TailQ is the percentile reported as latency_tail_ms.
	TailQ             float64
	Attempted, Failed int
	CPU               time.Duration
	Mem               memCounters
}

const (
	// rounds is how many fresh instances one untraced run measures.
	rounds = 3
	// slice is how long one measured stretch of a round lasts before its
	// rate, latencies and CPU time are closed off; a workload whose cycle of
	// ops is longer finishes the cycle.
	slice = time.Second
)

// fasterHalf returns the half of the slices with the higher throughput. On a
// shared machine the neighbours' load comes and goes within seconds and only
// ever slows a slice down — identical work was seen to swing by a quarter —
// so the faster slices are the ones nearest to what the code does on a quiet
// machine, and a run's metrics are taken from them. Failed ops are counted
// over every slice regardless.
func fasterHalf(slices []*runStats) []*runStats {
	sorted := append([]*runStats(nil), slices...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Throughput > sorted[j].Throughput })
	return sorted[:(len(sorted)+1)/2]
}

func main() {
	var (
		name        = flag.String("workload", "", "workload to run in this process (empty: run the whole suite)")
		seed        = flag.Int64("seed", 2011, "seed every generated input derives from")
		seconds     = flag.Float64("seconds", 15, "length of the timed phase")
		trace       = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		suiteRounds = flag.Int("rounds", 3, "suite mode: interleaved runs per workload")
		selfcheck   = flag.Bool("selfcheck", false, "suite mode: run the untraced suite twice and fail if any end-to-end median moved by more than its bound")
		update      = flag.Bool("update-expected", false, "rewrite bench/testdata/expected.json from this build's outputs and exit")
	)
	flag.Parse()
	if err := chdirRoot(); err != nil {
		fatal(err)
	}
	if *update {
		if err := updateExpected(); err != nil {
			fatal(err)
		}
		return
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *suiteRounds, *trace == 1, *selfcheck))
	}
	res, err := runOne(*name, config{Seed: *seed, TmpDir: os.TempDir()}, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	printResult(*name, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// chdirRoot moves to the root of the checkout, whether the benchmark was
// started there (run.sh) or in bench/ (go run, go test): the goldens, the
// committed trace and the span files are all named relative to it.
func chdirRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenDir)); err == nil {
			return os.Chdir(dir)
		}
	}
	return fmt.Errorf("no %s here or one level up; run from the checkout", goldenDir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and assembles its metrics.
func runOne(name string, cfg config, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(name, w, cfg, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runUntraced is several rounds, each on a fresh instance of the program:
// set up, measure slice after slice for a share of d, tear down. The set-up
// time is the median of the rounds, the timed metrics come from the faster
// half of all the slices (see fasterHalf), the resident set from samples taken
// throughout (see rssSampler).
func runUntraced(name string, w workload, cfg config, d time.Duration) (*result, error) {
	rss := startRSSSampler()
	setups, slices, err := measureRounds(w, d)
	resident := rss.finish()
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	for _, st := range slices {
		res.Attempted += st.Attempted
		res.Failed += st.Failed
	}
	var rates, latencies []float64
	var ops float64
	var cpu time.Duration
	fast := fasterHalf(slices)
	for _, st := range fast {
		rates = append(rates, st.Throughput)
		latencies = append(latencies, st.LatenciesMS...)
		ops += st.Ops
		cpu += st.CPU
	}
	tailQ := fast[0].TailQ
	if !tailHasSupport(len(latencies), tailQ) && !cfg.Tiny {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d latency samples, fewer than ten beyond p%g\n",
			name, len(latencies), 100*tailQ)
	}
	for k, v := range map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": median(rates),
		"latency_p50_ms":   median(latencies),
		"latency_tail_ms":  quantile(latencies, tailQ),
		"cpu_ms_per_op":    cpu.Seconds() * 1000 / ops,
		"rss_p90_mb":       quantile(resident, 0.9),
	} {
		res.Metrics[k] = metric{Value: v, Unit: endToEndUnit[k]}
	}
	return res, nil
}

// runTraced is one instance: a plain phase (the runtime counters and the
// untraced reference rate), the same phase with every op recorded as a span
// (their gap is the tracing overhead), then the ladder walk and the probes.
func runTraced(name string, w workload, cfg config, d time.Duration) (*result, error) {
	defer w.teardown()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	plain, err := timed(w, d/3, nil)
	if err != nil {
		return nil, err
	}
	withSpans, err := timed(w, d/3, tr)
	if err != nil {
		return nil, err
	}
	layer, err := w.walk(tr)
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	layer["runtime.allocs_per_op"] = float64(plain.Mem.mallocs) / plain.Ops
	layer["runtime.alloc_kb_per_op"] = float64(plain.Mem.bytes) / 1024 / plain.Ops
	layer["runtime.gc_cycles"] = float64(plain.Mem.gcCycles)
	layer["runtime.gc_pause_ms"] = plain.Mem.gcPause.Seconds() * 1000
	layer["trace.overhead_share"] = 1 - withSpans.Throughput/plain.Throughput
	layer["trace.coverage_share"] = coverage(tr.spans)
	if !cfg.Tiny {
		if err := tr.write(filepath.Join("bench", "out", "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]metric{},
		Attempted: plain.Attempted + withSpans.Attempted, Failed: plain.Failed + withSpans.Failed}
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if ok && m.Home != name && m.Home != "" {
			return nil, fmt.Errorf("reported %s, whose home is %s", m.Name, m.Home)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(layer, m.Name)
	}
	for k := range layer {
		return nil, fmt.Errorf("reported %s, which the catalogue does not list", k)
	}
	return res, nil
}

// measureRounds is the body of an untraced run: rounds × (set up, measure
// slice after slice for a share of d, tear down). It returns every set-up
// time and every slice.
func measureRounds(w workload, d time.Duration) (setups []float64, slices []*runStats, err error) {
	for i := 0; i < rounds; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		for end := time.Now().Add(d / rounds); time.Now().Before(end); {
			st, err := timed(w, min(slice, d/rounds), nil)
			if err != nil {
				w.teardown()
				return nil, nil, err
			}
			slices = append(slices, st)
		}
		w.teardown()
	}
	return setups, slices, nil
}

// timed runs one phase with the CPU and allocation counters around it.
func timed(w workload, d time.Duration, tr *tracer) (*runStats, error) {
	mem0, cpu0 := readMem(), cpuTime()
	st, err := w.run(d, tr)
	if err != nil {
		return nil, err
	}
	mem1 := readMem()
	st.CPU = cpuTime() - cpu0
	st.Mem = memCounters{mallocs: mem1.mallocs - mem0.mallocs, bytes: mem1.bytes - mem0.bytes,
		gcCycles: mem1.gcCycles - mem0.gcCycles, gcPause: mem1.gcPause - mem0.gcPause}
	if st.Ops == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	return st, nil
}

// printResult prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func printResult(name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d ops attempted, %d failed, outputs correct: %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		fmt.Printf("  %-44s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
