package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if err := chdirRoot(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, with output verification on: the benchmark must keep compiling
// against the layers it calls, every op must verify, and every metric the
// manifest names must come out.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{Seed: defaultSeed, Tiny: true, TmpDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				res, err := runOne(name, cfg, 60*time.Millisecond, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := len(endToEndUnit)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
				for k, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, k, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", k, m.Value)
					}
				}
			}
		})
	}
}

// TestVerificationCatchesWrongOutput: a reply whose makespan differs in the
// last bit, or that carries one makespan too many, is a failed op.
func TestVerificationCatchesWrongOutput(t *testing.T) {
	key := []byte(`"makespan": `)
	body := []byte("{\n  \"makespan\": 12.5,\n  \"tasks\": []\n}\n")
	if !sameMakespans(body, key, []float64{12.5}) {
		t.Error("exact makespan rejected")
	}
	if sameMakespans(body, key, []float64{math.Nextafter(12.5, 13)}) {
		t.Error("makespan one ulp off accepted")
	}
	if sameMakespans(body, key, nil) {
		t.Error("unexpected extra makespan accepted")
	}
	if sameMakespans(body, key, []float64{12.5, 12.5}) {
		t.Error("missing makespan accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
	// The median of the rounds of an even count is the mean of the middle two.
	if got := median([]float64{10, 40, 20, 30}); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if tailHasSupport(999, 0.99) || !tailHasSupport(1000, 0.99) || !tailHasSupport(40, 0.75) {
		t.Error("tailHasSupport does not ask for ten samples beyond the percentile")
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(xs, n=4): for
// 1..10 the quartiles are 2.75 and 8.25 and the median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := worsening(100, 90, false); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsened by %v, want 0.1", got)
	}
	if got := worsening(100, 90, true); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("latency 100 -> 90 worsened by %v, want -0.1", got)
	}
}

func TestFasterHalf(t *testing.T) {
	// Five slices, two of them disturbed: the faster half is the three
	// undisturbed ones, whatever order they came in.
	var slices []*runStats
	for _, rate := range []float64{100, 62, 101, 70, 99} {
		slices = append(slices, &runStats{Throughput: rate})
	}
	fast := fasterHalf(slices)
	if len(fast) != 3 || fast[0].Throughput != 101 || fast[2].Throughput != 99 {
		t.Errorf("fasterHalf kept %d slices, fastest %v, slowest %v", len(fast), fast[0].Throughput, fast[len(fast)-1].Throughput)
	}
	if slices[1].Throughput != 62 {
		t.Error("fasterHalf reordered its argument")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	// One walked op: a 100 ns round trip wrapping a 60 ns handler wrapping a
	// 25 ns and a 45 ns engine call (10 ns more than the handler that wraps
	// them: the rungs are separate calls), plus a standalone probe.
	spans := []span{
		{ID: 1, Parent: 0, Name: "roundtrip", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "handler", StartNS: 100, EndNS: 160},
		{ID: 3, Parent: 2, Name: "build", StartNS: 160, EndNS: 185},
		{ID: 4, Parent: 2, Name: "run", StartNS: 185, EndNS: 230},
		{ID: 5, Parent: standalone, Name: "probe", StartNS: 230, EndNS: 1230},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: -10, 3: 25, 4: 45, 5: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := coverage(spans); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("coverage = %v, want 0.9 (10 ns of 100 unattributable)", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	var inner int
	outer := tr.nest(7, 0, "outer", func(id int) {
		inner = tr.do(7, id, "inner", func() { time.Sleep(time.Millisecond) })
	})
	if tr.spans[inner-1].Parent != outer || tr.spans[outer-1].dur() < tr.spans[inner-1].dur() {
		t.Errorf("nested span not inside its parent: %+v", tr.spans)
	}
	if got := tr.med("inner"); got < 1e6 {
		t.Errorf("median of a 1 ms span = %v ns", got)
	}
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and the binary naming the
// same workloads and metrics with the same units.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEndUnit) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the binary", len(doc.EndToEnd), len(endToEndUnit))
	}
	for _, e := range doc.EndToEnd {
		if endToEndUnit[e.Name] != e.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the binary", e.Name, e.Unit, endToEndUnit[e.Name])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary", len(doc.PerLayer), len(perLayer))
	}
	for i, e := range doc.PerLayer {
		if perLayer[i].Name != e.Name || perLayer[i].Unit != e.Unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in the binary", i, e.Name, e.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}
