package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Suite mode: every workload, one child process per workload and round (so
// the resident-set high-water mark, the runtime counters and the process-wide
// metrics registry start clean), rounds interleaved so a noisy stretch of the
// machine hits every workload alike, the median of the rounds reported.

// manifest is the part of BENCHMARK.json suite mode needs: the bound of each
// end-to-end metric.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (*manifest, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runChild re-executes this binary for one workload and parses the result
// line. A child that exits non-zero after printing a result failed output
// verification; the result is still returned so the caller can say so.
func runChild(name string, seed int64, seconds float64, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// suiteRun is the untraced suite's outcome: per workload and metric, the
// value of every round.
type suiteRun struct {
	values  map[string]map[string][]float64
	correct bool
}

func runRounds(seed int64, seconds float64, rounds int) (*suiteRun, error) {
	s := &suiteRun{values: map[string]map[string][]float64{}, correct: true}
	for round := 0; round < rounds; round++ {
		for _, name := range workloadNames {
			res, err := runChild(name, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			if !res.Correct {
				s.correct = false
				fmt.Printf("round %d %s: outputs NOT correct (%d of %d ops failed)\n", round+1, name, res.Failed, res.Attempted)
			}
			if s.values[name] == nil {
				s.values[name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				s.values[name][k] = append(s.values[name][k], m.Value)
			}
		}
	}
	return s, nil
}

func (s *suiteRun) print() {
	metrics := make([]string, 0, len(endToEndUnit))
	for k := range endToEndUnit {
		metrics = append(metrics, k)
	}
	sort.Strings(metrics)
	for _, name := range workloadNames {
		fmt.Printf("%s\n", name)
		for _, k := range metrics {
			v := s.values[name][k]
			fmt.Printf("  %-20s median %12.6g  min %12.6g  max %12.6g  %-6s n=%d\n",
				k, median(v), quantile(v, 0), quantile(v, 1), endToEndUnit[k], len(v))
		}
	}
}

// runSuite is the entry point of suite mode; it returns the exit code.
func runSuite(seed int64, seconds float64, rounds int, traced, selfcheck bool) int {
	first, err := runRounds(seed, seconds, rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	first.print()
	code := 0
	if !first.correct {
		code = 1
	}
	if selfcheck {
		if c := selfCheck(first, seed, seconds, rounds); c != 0 {
			code = c
		}
	}
	if traced {
		if c := tracedSuite(seed, seconds); c != 0 {
			code = c
		}
	}
	return code
}

// selfCheck runs the untraced suite a second time and holds the two sets of
// medians to the benchmark's own bounds: identical code must not read as a
// regression. It prints every observed gap, so the bounds are evidence.
func selfCheck(first *suiteRun, seed int64, seconds float64, rounds int) int {
	m, err := readManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	second, err := runRounds(seed, seconds, rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	if !second.correct {
		code = 1
	}
	fmt.Println("selfcheck: second set of runs against the first, same code")
	for _, name := range workloadNames {
		for _, e := range m.EndToEnd {
			a, b := median(first.values[name][e.Name]), median(second.values[name][e.Name])
			worse := worsening(a, b, e.Better == "lower")
			verdict := "ok"
			if worse > e.Bound {
				verdict, code = "OUT OF BOUND", 1
			}
			fmt.Printf("  %-16s %-20s %12.6g -> %12.6g  worse by %+6.1f%%  bound %4.0f%%  round spread %5.1f%%  %s\n",
				name, e.Name, a, b, 100*worse, 100*e.Bound, 100*spread(first.values[name][e.Name]), verdict)
		}
	}
	return code
}

// tracedSuite runs each workload once more with --trace 1 and prints the
// per-layer metrics that workload is the home of.
func tracedSuite(seed int64, seconds float64) int {
	code := 0
	for _, name := range workloadNames {
		res, err := runChild(name, seed, seconds, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
		fmt.Printf("%s (traced; spans in bench/out/trace-%s.json)\n", name, name)
		for _, lm := range perLayer {
			if lm.Home == name || lm.Home == "" {
				fmt.Printf("  %-40s %14.6g %s\n", lm.Name, res.Metrics[lm.Name].Value, lm.Unit)
			}
		}
	}
	return code
}
