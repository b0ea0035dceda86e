package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/stats"
	"repro/internal/tgrid"
)

// This file contains the studies that go beyond the paper's figures:
//
//   - the ablation study quantifying §V-C's error attribution (which of the
//     three identified culprits — task times, startup overhead,
//     redistribution overhead — buys how much simulation accuracy);
//   - the platform-scaling study suggested in §IX ("these models could be
//     instantiated for an existing execution environment and scaled to
//     simulate an hypothetical execution environment");
//   - rank-correlation summaries of each simulator's ordering fidelity.
//
// Every study runs on the cell engine of runner.go: one cell per suite
// instance, scheduled onto a bounded worker pool, with per-cell
// deterministic noise sessions and stable-order aggregation.

// cellBuilder builds one cell's schedules: every compared algorithm for one
// DAG under one model, in a pooled sched.Scratch bound once per cell so the
// algorithms share its cost memo and per-graph analyses. The scratch maps
// heterogeneously when the cluster is heterogeneous.
type cellBuilder struct {
	cluster platform.Cluster
	cost    dag.CostFunc
	comm    dag.CommFunc
	sc      *sched.Scratch // the bound cell's pooled scratch
}

// buildWith returns the builder of a model on a cluster.
func buildWith(model perfmodel.Model, c platform.Cluster) cellBuilder {
	return cellBuilder{cluster: c, cost: perfmodel.CostFunc(model), comm: perfmodel.CommFunc(model, c)}
}

// bind returns the builder readied for one cell's DAG; release it when the
// cell's last schedule has been consumed — by a plain call at the end of the
// cell, not a defer: a scratch held at an error or a panic is dropped, never
// pooled.
func (b cellBuilder) bind(g *dag.Graph) cellBuilder {
	b.sc = sched.AcquireScratch()
	b.sc.Bind(g, b.cluster.Nodes, b.cost)
	return b
}

func (b cellBuilder) release() { sched.ReleaseScratch(b.sc) }

// build schedules the bound DAG with one algorithm. The schedule is valid
// until the next build.
func (b cellBuilder) build(algo sched.Algorithm) (*sched.Schedule, error) {
	return b.sc.BuildOn(algo, b.cluster, b.comm)
}

// pairStudy is one (model, environment) scoring pass over a suite: each
// cell schedules both compared algorithms for one DAG instance, simulates
// them under the model and measures them on the cell's private session.
type pairStudy struct {
	run    Runner
	study  string
	suite  []dag.SuiteInstance
	net    *simgrid.Net
	model  perfmodel.Model
	trials int
	build  cellBuilder
}

// pairSeries is a pairStudy's aggregated outcome, in suite order (and, per
// instance, compared-algorithm order for errs).
type pairSeries struct {
	simRels, expRels, errs []float64
	maxErr                 float64
}

// execute runs the study's cells on the worker pool and aggregates.
func (ps pairStudy) execute() (pairSeries, error) {
	type cellOut struct {
		simRel, expRel float64
		errs           []float64
	}
	cells := make([]cellOut, len(ps.suite))
	timing := tgrid.Timing(tgrid.ModelTiming{Model: ps.model})
	algos := ComparedAlgorithms()
	err := ps.run.Run(ps.study, len(ps.suite), func(i int, sess *cluster.Session) error {
		build := ps.build.bind(ps.suite[i].Graph)
		var sim, exp [2]float64
		out := cellOut{errs: make([]float64, len(algos))}
		for ai, algo := range algos {
			s, err := build.build(algo)
			if err != nil {
				return err
			}
			if sim[ai], err = tgrid.Makespan(ps.net, s, timing); err != nil {
				return err
			}
			if exp[ai], err = sess.MeasureMakespan(s, ps.trials); err != nil {
				return err
			}
			out.errs[ai] = stats.SimErrPct(sim[ai], exp[ai])
		}
		out.simRel = stats.RelDiff(sim[hcpa], sim[mcpa])
		out.expRel = stats.RelDiff(exp[hcpa], exp[mcpa])
		cells[i] = out
		build.release()
		return nil
	})
	if err != nil {
		return pairSeries{}, err
	}
	var agg pairSeries
	for _, c := range cells {
		agg.simRels = append(agg.simRels, c.simRel)
		agg.expRels = append(agg.expRels, c.expRel)
		for _, e := range c.errs {
			agg.errs = append(agg.errs, e)
			if e > agg.maxErr {
				agg.maxErr = e
			}
		}
	}
	return agg, nil
}

// AblationRow is one simulator variant of the ablation study.
type AblationRow struct {
	// Model names the variant.
	Model string
	// Mispredicted counts wrong HCPA-vs-MCPA winners over the suite.
	Mispredicted int
	// Total is the number of compared DAGs.
	Total int
	// MedianErrPct is the median makespan simulation error.
	MedianErrPct float64
	// KendallTau is the rank correlation between simulated and measured
	// relative makespans.
	KendallTau float64
}

// Ablation builds simulator variants between "purely analytic" and "full
// profile" by switching each measured component on independently, and
// scores each variant over the whole suite. The deltas attribute the
// analytic simulator's error to the paper's three culprits.
func (l *Lab) Ablation() ([]AblationRow, error) {
	variants := []struct {
		label                 string
		task, startup, redist perfmodel.Model
	}{
		{"analytic", l.Analytic, l.Analytic, l.Analytic},
		{"analytic+startup", l.Analytic, l.Profile, l.Analytic},
		{"analytic+redist", l.Analytic, l.Analytic, l.Profile},
		{"analytic+overheads", l.Analytic, l.Profile, l.Profile},
		{"tasks-only", l.Profile, l.Analytic, l.Analytic},
		{"full-profile", l.Profile, l.Profile, l.Profile},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		model, err := perfmodel.NewOverlay(v.task, v.startup, v.redist, v.label)
		if err != nil {
			return nil, err
		}
		row, err := l.scoreModel(model)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.label, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scoreModel pushes the suite through the pipeline with an arbitrary model
// (bypassing the Lab's named-model cache) and summarises the outcome.
func (l *Lab) scoreModel(model perfmodel.Model) (AblationRow, error) {
	agg, err := pairStudy{
		run:    l.runner(),
		study:  "ablation/" + model.Name(),
		suite:  l.Suite,
		net:    l.Net,
		model:  model,
		trials: l.Cfg.ExpTrials,
		build:  buildWith(model, l.Cluster()),
	}.execute()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Model:        model.Name(),
		Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
		Total:        len(agg.simRels),
		MedianErrPct: stats.Median(agg.errs),
		KendallTau:   stats.KendallTau(agg.simRels, agg.expRels),
	}, nil
}

// WriteAblation prints the ablation table.
func WriteAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation — which missing environment effect costs how much accuracy")
	fmt.Fprintf(w, "  %-22s %12s %14s %12s\n", "simulator variant", "wrong winner", "median err [%]", "Kendall tau")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %8d/%-3d %14.1f %12.2f\n",
			r.Model, r.Mispredicted, r.Total, r.MedianErrPct, r.KendallTau)
	}
}

// ScalingRow is one platform size of the scaling study.
type ScalingRow struct {
	Nodes        int
	Mispredicted int
	Total        int
	MedianErrPct float64
}

// ScalingStudyCtx instantiates hypothetical clusters by scaling the Bayreuth
// environment to the given node counts, fits an empirical model on each
// (sparse measurements only, per §VII) and scores it over the suite — the
// §IX scenario of simulating platforms one does not have. The sparse
// campaign runs serially (it models one operator probing one cluster); the
// suite scoring runs on the cell engine. ctx aborts both the per-size sparse
// campaigns (between sizes) and the suite scoring (between cells).
func ScalingStudyCtx(ctx context.Context, cfg Config, nodeCounts []int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, nodes := range nodeCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		truth := cluster.Bayreuth()
		truth.Cluster = truth.Cluster.Scaled(nodes)
		em, err := cluster.NewEmulator(truth, cfg.NoiseSeed)
		if err != nil {
			return nil, err
		}
		net, err := simgrid.NewNet(truth.Cluster)
		if err != nil {
			return nil, err
		}
		suite, err := dag.GenerateSuite(cfg.SuiteSeed)
		if err != nil {
			return nil, err
		}
		// Sparse-measurement points scale with the cluster.
		opts := cfg.Empirical.ScaledTo(nodes, platform.Bayreuth().Nodes)
		model, err := profiler.BuildEmpiricalModel(em, opts)
		if err != nil {
			return nil, err
		}

		agg, err := pairStudy{
			run:    Runner{Workers: cfg.Parallelism, Seed: cfg.NoiseSeed, Em: em, Ctx: ctx},
			study:  fmt.Sprintf("scaling/%d", nodes),
			suite:  suite,
			net:    net,
			model:  model,
			trials: cfg.ExpTrials,
			build:  buildWith(model, truth.Cluster),
		}.execute()
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling %d nodes: %w", nodes, err)
		}
		rows = append(rows, ScalingRow{
			Nodes:        nodes,
			Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
			Total:        len(agg.simRels),
			MedianErrPct: stats.Median(agg.errs),
		})
	}
	return rows, nil
}

// HeteroRow is one simulator model scored on the heterogeneous platform.
type HeteroRow struct {
	Model        string
	Mispredicted int
	Total        int
	MedianErrPct float64
}

// HeterogeneityStudyCtx ports the case study to HCPA's original setting [12]:
// a cluster whose nodes split into two speed classes (half at the reference
// 250 MFlop/s, half at twice that). Allocation phases reason on the
// reference cluster (HCPA's normalisation), the heterogeneous mapping phase
// trades node speed against availability, and the emulated environment
// runs each task at its slowest assigned node's pace. The analytic and
// profile simulators are scored exactly as in Figures 1/5. ctx aborts the
// scoring between cells.
func HeterogeneityStudyCtx(ctx context.Context, cfg Config) ([]HeteroRow, error) {
	powers := make([]float64, 32)
	for i := range powers {
		if i < 16 {
			powers[i] = 250e6
		} else {
			powers[i] = 500e6
		}
	}
	hc := platform.NewHeterogeneous("bayreuth-2speed", powers, 125e6, 100e-6)
	truth := cluster.Bayreuth()
	truth.Cluster = hc
	em, err := cluster.NewEmulator(truth, cfg.NoiseSeed)
	if err != nil {
		return nil, err
	}
	net, err := simgrid.NewNet(hc)
	if err != nil {
		return nil, err
	}
	suite, err := dag.GenerateSuite(cfg.SuiteSeed)
	if err != nil {
		return nil, err
	}
	profModel, err := profiler.BuildProfileModel(em, cfg.Profile)
	if err != nil {
		return nil, err
	}
	models := []perfmodel.Model{perfmodel.NewAnalytic(hc), profModel}

	var rows []HeteroRow
	for _, model := range models {
		agg, err := pairStudy{
			run:    Runner{Workers: cfg.Parallelism, Seed: cfg.NoiseSeed, Em: em, Ctx: ctx},
			study:  "hetero/" + model.Name(),
			suite:  suite,
			net:    net,
			model:  model,
			trials: cfg.ExpTrials,
			build:  buildWith(model, hc),
		}.execute()
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero %s: %w", model.Name(), err)
		}
		rows = append(rows, HeteroRow{
			Model:        model.Name(),
			Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
			Total:        len(agg.simRels),
			MedianErrPct: stats.Median(agg.errs),
		})
	}
	return rows, nil
}

// WriteHetero prints the heterogeneity-study table.
func WriteHetero(w io.Writer, rows []HeteroRow) {
	fmt.Fprintln(w, "Heterogeneity study — two-speed cluster (16× 250 MFlop/s + 16× 500 MFlop/s)")
	fmt.Fprintf(w, "  %-12s %14s %16s\n", "model", "wrong winner", "median err [%]")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %10d/%-3d %16.1f\n", r.Model, r.Mispredicted, r.Total, r.MedianErrPct)
	}
}

// StragglerRow scores the profile simulator on a healthy versus a degraded
// environment.
type StragglerRow struct {
	Environment  string
	Mispredicted int
	Total        int
	MedianErrPct float64
	MaxErrPct    float64
}

// StragglerStudyCtx exposes a limit of the paper's methodology: the §VI
// profiling campaign measures per processor *count*, never per processor
// *identity*, so a single degraded node — common on real clusters — is
// invisible to both the profile and the empirical model. The study scores
// the profile simulator on a healthy environment and on one whose node 13
// runs 3× slower, using the same measurement methodology on each. ctx aborts
// the scoring between cells.
func StragglerStudyCtx(ctx context.Context, cfg Config) ([]StragglerRow, error) {
	suite, err := dag.GenerateSuite(cfg.SuiteSeed)
	if err != nil {
		return nil, err
	}
	healthy := cluster.Bayreuth()
	degraded := cluster.Bayreuth()
	degraded.StragglerHost = 13
	degraded.StragglerFactor = 3
	envs := []struct {
		name  string
		truth *cluster.Hidden
	}{{"healthy", healthy}, {"straggler-node-13", degraded}}

	var rows []StragglerRow
	for _, env := range envs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		em, err := cluster.NewEmulator(env.truth, cfg.NoiseSeed)
		if err != nil {
			return nil, err
		}
		net, err := simgrid.NewNet(env.truth.Cluster)
		if err != nil {
			return nil, err
		}
		model, err := profiler.BuildProfileModel(em, cfg.Profile)
		if err != nil {
			return nil, err
		}
		agg, err := pairStudy{
			run:    Runner{Workers: cfg.Parallelism, Seed: cfg.NoiseSeed, Em: em, Ctx: ctx},
			study:  "straggler/" + env.name,
			suite:  suite,
			net:    net,
			model:  model,
			trials: cfg.ExpTrials,
			build:  buildWith(model, env.truth.Cluster),
		}.execute()
		if err != nil {
			return nil, fmt.Errorf("experiments: straggler %s: %w", env.name, err)
		}
		rows = append(rows, StragglerRow{
			Environment:  env.name,
			Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
			Total:        len(agg.simRels),
			MedianErrPct: stats.Median(agg.errs),
			MaxErrPct:    agg.maxErr,
		})
	}
	return rows, nil
}

// WriteStraggler prints the straggler-study table.
func WriteStraggler(w io.Writer, rows []StragglerRow) {
	fmt.Fprintln(w, "Straggler study — profile simulator vs a single degraded node (limits of §VI)")
	fmt.Fprintf(w, "  %-20s %14s %16s %12s\n", "environment", "wrong winner", "median err [%]", "max err [%]")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %10d/%-3d %16.1f %12.1f\n",
			r.Environment, r.Mispredicted, r.Total, r.MedianErrPct, r.MaxErrPct)
	}
}

// EnvironmentRow compares the analytic simulator's usefulness across
// ground-truth environments.
type EnvironmentRow struct {
	Environment  string
	Mispredicted int
	Total        int
	MedianErrPct float64
	KendallTau   float64
}

// EnvironmentStudyCtx scores the purely analytic simulator against two
// environments: the paper's Bayreuth/TGrid stand-in, and a tuned "modern"
// runtime (native kernels near the calibrated rate, millisecond spawning).
// It quantifies §IX's conjecture that the findings are driven by the
// environment's idiosyncrasies: on the tuned environment the analytic
// simulator becomes nearly sound. ctx aborts the scoring between cells.
func EnvironmentStudyCtx(ctx context.Context, cfg Config) ([]EnvironmentRow, error) {
	suite, err := dag.GenerateSuite(cfg.SuiteSeed)
	if err != nil {
		return nil, err
	}
	envs := []struct {
		name  string
		truth *cluster.Hidden
	}{
		{"bayreuth-tgrid", cluster.Bayreuth()},
		{"modern-tuned", cluster.Modern()},
	}
	var rows []EnvironmentRow
	for _, env := range envs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		em, err := cluster.NewEmulator(env.truth, cfg.NoiseSeed)
		if err != nil {
			return nil, err
		}
		net, err := simgrid.NewNet(env.truth.Cluster)
		if err != nil {
			return nil, err
		}
		model := perfmodel.NewAnalytic(env.truth.Cluster)
		agg, err := pairStudy{
			run:    Runner{Workers: cfg.Parallelism, Seed: cfg.NoiseSeed, Em: em, Ctx: ctx},
			study:  "environments/" + env.name,
			suite:  suite,
			net:    net,
			model:  model,
			trials: cfg.ExpTrials,
			build:  buildWith(model, env.truth.Cluster),
		}.execute()
		if err != nil {
			return nil, fmt.Errorf("experiments: environment %s: %w", env.name, err)
		}
		rows = append(rows, EnvironmentRow{
			Environment:  env.name,
			Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
			Total:        len(agg.simRels),
			MedianErrPct: stats.Median(agg.errs),
			KendallTau:   stats.KendallTau(agg.simRels, agg.expRels),
		})
	}
	return rows, nil
}

// WriteEnvironments prints the environment-comparison table.
func WriteEnvironments(w io.Writer, rows []EnvironmentRow) {
	fmt.Fprintln(w, "Environment study — analytic simulator vs two ground truths")
	fmt.Fprintf(w, "  %-16s %14s %16s %12s\n", "environment", "wrong winner", "median err [%]", "Kendall tau")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10d/%-3d %16.1f %12.2f\n",
			r.Environment, r.Mispredicted, r.Total, r.MedianErrPct, r.KendallTau)
	}
}

// SensitivityRow is one noise level of the sensitivity study.
type SensitivityRow struct {
	NoiseSigma   float64
	Mispredicted int
	Total        int
	KendallTau   float64
}

// NoiseSensitivityCtx re-runs the Figure 1 comparison (analytic simulator vs
// experiment) under environments with different run-to-run noise levels,
// separating the structural part of the analytic simulator's
// winner-mispredictions (missing overheads, wrong task times) from the part
// caused by measurement noise on near-ties. The paper ran each schedule
// once on a real machine, so its counts include both components. ctx aborts
// the scoring between cells.
func NoiseSensitivityCtx(ctx context.Context, cfg Config, sigmas []float64) ([]SensitivityRow, error) {
	suite, err := dag.GenerateSuite(cfg.SuiteSeed)
	if err != nil {
		return nil, err
	}
	var rows []SensitivityRow
	for _, sigma := range sigmas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		truth := cluster.Bayreuth()
		truth.NoiseSigma = sigma
		em, err := cluster.NewEmulator(truth, cfg.NoiseSeed)
		if err != nil {
			return nil, err
		}
		net, err := simgrid.NewNet(truth.Cluster)
		if err != nil {
			return nil, err
		}
		model := perfmodel.NewAnalytic(truth.Cluster)
		agg, err := pairStudy{
			run:    Runner{Workers: cfg.Parallelism, Seed: cfg.NoiseSeed, Em: em, Ctx: ctx},
			study:  fmt.Sprintf("sensitivity/%g", sigma),
			suite:  suite,
			net:    net,
			model:  model,
			trials: cfg.ExpTrials,
			build:  buildWith(model, truth.Cluster),
		}.execute()
		if err != nil {
			return nil, fmt.Errorf("experiments: sensitivity sigma=%g: %w", sigma, err)
		}
		rows = append(rows, SensitivityRow{
			NoiseSigma:   sigma,
			Mispredicted: stats.CountDisagreements(agg.simRels, agg.expRels, 0),
			Total:        len(agg.simRels),
			KendallTau:   stats.KendallTau(agg.simRels, agg.expRels),
		})
	}
	return rows, nil
}

// WriteSensitivity prints the noise-sensitivity table.
func WriteSensitivity(w io.Writer, rows []SensitivityRow) {
	fmt.Fprintln(w, "Noise sensitivity — analytic simulator vs experiment at varying run-to-run noise")
	fmt.Fprintf(w, "  %-12s %14s %12s\n", "noise sigma", "wrong winner", "Kendall tau")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12g %10d/%-3d %12.2f\n", r.NoiseSigma, r.Mispredicted, r.Total, r.KendallTau)
	}
}

// WriteScaling prints the scaling-study table.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scaling study — empirical simulator on scaled hypothetical clusters")
	fmt.Fprintf(w, "  %-8s %14s %16s\n", "nodes", "wrong winner", "median err [%]")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d %10d/%-3d %16.1f\n", r.Nodes, r.Mispredicted, r.Total, r.MedianErrPct)
	}
}
