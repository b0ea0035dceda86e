// Supplementary benchmarks: the ablation and scaling studies (the design
// choices DESIGN.md calls out), plus micro-benchmarks of the substrates.
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/redist"
	"repro/internal/robust"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// BenchmarkAblationOverheadAttribution regenerates the §V-C error
// attribution: which of the analytic simulator's omissions (task times,
// startup overhead, redistribution overhead) causes how much error.
func BenchmarkAblationOverheadAttribution(b *testing.B) {
	l := sharedLab(b)
	rows, err := l.Ablation()
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("ablation", func() { experiments.WriteAblation(os.Stdout, rows) })
	for _, r := range rows {
		b.ReportMetric(r.MedianErrPct, "mederr%/"+r.Model)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustnessTrials measures the Monte Carlo perturbation engine
// (internal/robust): one full winner-stability study per iteration — the
// base HCPA-vs-MCPA campaign on the n=2000 suite plus 8 perturbation
// trials at one noise level — against a shared registry, so the figure
// excludes model fitting but not the base campaign. The custom metrics
// normalise the whole study by its trial-run count: end-to-end study
// throughput in trial runs per second (a fixed base-campaign share — 2
// of 18 runs at this spec — rides along in the denominator's time) and
// heap allocations per trial run. Four variants cover the engine's
// regimes: "resched" rebuilds schedules per trial through the scratch
// path (default noise reaches task times, so replay is ineligible),
// "replay" keeps the truth-model schedules and only re-predicts
// (prediction_only), and the two "…-seq" variants add the Wilson
// sequential stop rule, whose trialruns/s figure counts the full budget
// so the saved trials show up as throughput.
func BenchmarkRobustnessTrials(b *testing.B) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	base := robust.Spec{
		Spec: campaign.Spec{
			Name:       "bench",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 8, Levels: []float64{0.1}},
	}
	variants := []struct {
		name           string
		predictionOnly bool
		sequential     bool
	}{
		{"resched", false, false},
		{"replay", true, false},
		{"resched-seq", false, true},
		{"replay-seq", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			spec := base
			spec.Robustness.PredictionOnly = v.predictionOnly
			spec.Robustness.Sequential = v.sequential
			plan, err := spec.Plan()
			if err != nil {
				b.Fatal(err)
			}
			eng := robust.Engine{Source: reg}
			if _, err := eng.Run(context.Background(), spec); err != nil {
				b.Fatal(err) // warm the registry (and the engine's runner pool)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			trialRuns := float64(plan.TrialRuns() * b.N)
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(trialRuns/secs, "trialruns/s")
			}
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/trialRuns, "allocs/trial")
		})
	}
}

// BenchmarkMetricsOverhead prices the telemetry layer against the hottest
// unit of work it instruments: one schedule replay, the robustness engine's
// per-trial cost. "bare" is the replay alone; "instrumented" adds a counter
// increment, a histogram observation and a progress update per replay — a
// deliberate upper bound, since the real engines batch their telemetry per
// (instance, level) rather than per trial. The ns/op gap between the two
// variants is the worst-case per-trial cost of metrics being enabled, and
// must stay far under 2% of the replay itself.
func BenchmarkMetricsOverhead(b *testing.B) {
	c := Bayreuth()
	model := perfmodel.NewAnalytic(c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		b.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 1})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, perfmodel.CostFunc(model), perfmodel.CommFunc(model, c))
	if err != nil {
		b.Fatal(err)
	}
	r := obs.NewRegistry()
	trials := r.Counter("bench_trials_total", "Trials replayed by the overhead benchmark.")
	spans := r.Histogram("bench_makespan_seconds", "Simulated makespans seen by the overhead benchmark.", obs.DefBuckets)
	prog := &obs.Progress{}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tgrid.Run(net, s, tgrid.ModelTiming{Model: model}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := tgrid.Run(net, s, tgrid.ModelTiming{Model: model})
			if err != nil {
				b.Fatal(err)
			}
			trials.Inc()
			spans.Observe(res.Makespan)
			prog.AddTrialsUsed(1)
		}
	})
}

// BenchmarkScalingStudy regenerates the §IX platform-scaling scenario: the
// empirical simulator on hypothetical 64-node clusters.
func BenchmarkScalingStudy(b *testing.B) {
	cfg := experiments.DefaultConfig()
	rows, err := experiments.ScalingStudyCtx(context.Background(), cfg, []int{32, 64})
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("scaling", func() { experiments.WriteScaling(os.Stdout, rows) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScalingStudyCtx(context.Background(), cfg, []int{32, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseSensitivity regenerates the noise-sensitivity table: how
// many of the analytic simulator's wrong winners are structural versus
// caused by run-to-run measurement noise.
func BenchmarkNoiseSensitivity(b *testing.B) {
	cfg := experiments.DefaultConfig()
	sigmas := []float64{0, 0.03, 0.2}
	rows, err := experiments.NoiseSensitivityCtx(context.Background(), cfg, sigmas)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("sensitivity", func() { experiments.WriteSensitivity(os.Stdout, rows) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseSensitivityCtx(context.Background(), cfg, sigmas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudySerialVsParallel measures the study-execution engine's
// speedup: the same suite-wide study (the Figure 1 comparison under one
// noise level) at workers=1 versus one worker per CPU. The two variants
// produce byte-identical tables; only wall-clock differs.
func BenchmarkStudySerialVsParallel(b *testing.B) {
	sigmas := []float64{0.03}
	variants := []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=all", 0}, // one per CPU (experiments.DefaultParallelism)
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Parallelism = v.workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.NoiseSensitivityCtx(context.Background(), cfg, sigmas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceScheduleThroughput measures the service layer's schedule
// path under the empirical model: "cold" pays the §VII fitting campaign on
// every request (a fresh registry each iteration — the one-shot CLI
// economics), "warm" reuses the registry-cached fit (the service
// economics). The gap is the measurement cost the registry amortises.
func BenchmarkServiceScheduleThroughput(b *testing.B) {
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 1})
	req := service.ScheduleRequest{DAG: g, Algorithm: "HCPA", Model: "empirical"}
	ctx := context.Background()

	b.Run("cold-registry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := service.New(service.DefaultOptions())
			if _, err := svc.Schedule(ctx, req); err != nil {
				b.Fatal(err)
			}
			if err := svc.Close(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		svc := service.New(service.DefaultOptions())
		defer svc.Close(ctx)
		if _, err := svc.Schedule(ctx, req); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Schedule(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.CacheHit {
				b.Fatal("warm request missed the registry cache")
			}
		}
	})
}

// BenchmarkMaxMinSolver measures the resource-sharing solver on a contended
// scenario — 64 transfers over a 32-node star network — in steady state: one
// engine and one set of actions are built up front and replayed through the
// Reset lifecycle, so the loop exercises pure event-loop and solver work.
// With the sparse solver and hoisted scratch this runs allocation-free.
func BenchmarkMaxMinSolver(b *testing.B) {
	net, err := simgrid.NewNet(Bayreuth())
	if err != nil {
		b.Fatal(err)
	}
	actions := make([]*simgrid.Action, 0, 64)
	for f := 0; f < 64; f++ {
		src, dst := f%32, (f*7+5)%32
		if src == dst {
			dst = (dst + 1) % 32
		}
		bytes := make([][]float64, 2)
		bytes[0] = []float64{0, 1e6 * float64(f+1)}
		bytes[1] = []float64{0, 0}
		actions = append(actions, net.Ptask(fmt.Sprintf("f%d", f), []int{src, dst}, nil, bytes))
	}
	e := net.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(nil)
		for _, a := range actions {
			a.Reset()
			e.Add(a)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAGGenerate measures the random generator.
func BenchmarkDAGGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := dag.Generate(dag.GenParams{
			Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduler measures one allocation+mapping pass.
func benchScheduler(b *testing.B, algo sched.Algorithm) {
	c := Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Build(algo, g, c.Nodes, cost, comm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerCPA measures the CPA two-phase scheduler.
func BenchmarkSchedulerCPA(b *testing.B) { benchScheduler(b, sched.CPA{}) }

// BenchmarkSchedulerHCPA measures the HCPA two-phase scheduler.
func BenchmarkSchedulerHCPA(b *testing.B) { benchScheduler(b, sched.HCPA{}) }

// BenchmarkSchedulerMCPA measures the MCPA two-phase scheduler.
func BenchmarkSchedulerMCPA(b *testing.B) { benchScheduler(b, sched.MCPA{}) }

// BenchmarkSchedulerMHEFT measures the one-phase M-HEFT baseline.
func BenchmarkSchedulerMHEFT(b *testing.B) {
	c := Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (sched.MHEFT{}).Build(g, c.Nodes, cost, comm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirtualReplay measures one virtual-time execution of a schedule
// (the simulator's inner loop).
func BenchmarkVirtualReplay(b *testing.B) {
	c := Bayreuth()
	model := perfmodel.NewAnalytic(c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		b.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 1})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, perfmodel.CostFunc(model), perfmodel.CommFunc(model, c))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgrid.Run(net, s, tgrid.ModelTiming{Model: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulatorExecute measures one emulated-cluster execution (the
// "experiment" side).
func BenchmarkEmulatorExecute(b *testing.B) {
	l := sharedLab(b)
	g := l.Suite[0].Graph
	model := l.Analytic
	s, err := sched.Build(sched.HCPA{}, g, l.Cluster().Nodes,
		perfmodel.CostFunc(model), perfmodel.CommFunc(model, l.Cluster()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Em.Execute(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedistCommMatrix measures the 1-D overlap plan computation.
func BenchmarkRedistCommMatrix(b *testing.B) {
	src, _ := redist.NewDist(3000, 17)
	dst, _ := redist.NewDist(3000, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := redist.CommMatrix(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParMatMulReal measures the real 1-D parallel multiplication on
// four goroutine ranks (n = 192).
func BenchmarkParMatMulReal(b *testing.B) {
	const n, p = 192, 4
	a := kernels.RandomMatrix(n, 1)
	m := kernels.RandomMatrix(n, 2)
	d, _ := redist.NewDist(n, p)
	ab, bb := kernels.Scatter(a, d), kernels.Scatter(m, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]*kernels.Matrix, p)
		mpi.Run(p, func(c *mpi.Comm) {
			out[c.Rank()] = kernels.ParMatMul(c, ab[c.Rank()], bb[c.Rank()], d)
		})
	}
}

// BenchmarkSeqMatMul is the sequential reference point for ParMatMulReal.
func BenchmarkSeqMatMul(b *testing.B) {
	const n = 192
	a := kernels.RandomMatrix(n, 1)
	m := kernels.RandomMatrix(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SeqMatMul(a, m)
	}
}

// BenchmarkSeqMatMulBlocked measures the cache-tiled kernel against the
// naive one — the memory-hierarchy effect behind the paper's p=8 outlier.
func BenchmarkSeqMatMulBlocked(b *testing.B) {
	const n = 192
	a := kernels.RandomMatrix(n, 1)
	m := kernels.RandomMatrix(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SeqMatMulBlocked(a, m, 64)
	}
}

// BenchmarkStragglerStudy regenerates the degraded-node study: the profile
// simulator collapses when one node runs slow, because per-count profiling
// cannot express host identity.
func BenchmarkStragglerStudy(b *testing.B) {
	cfg := experiments.DefaultConfig()
	rows, err := experiments.StragglerStudyCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("straggler", func() { experiments.WriteStraggler(os.Stdout, rows) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StragglerStudyCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeterogeneityStudy regenerates the two-speed-cluster study
// porting the case study to HCPA's original heterogeneous setting.
func BenchmarkHeterogeneityStudy(b *testing.B) {
	cfg := experiments.DefaultConfig()
	rows, err := experiments.HeterogeneityStudyCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("hetero", func() { experiments.WriteHetero(os.Stdout, rows) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeterogeneityStudyCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
