package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/stats"
)

// This file holds the studies beyond the paper's figures. Each is a list of
// variants — a ground truth and a model — over one pass and one summary: a
// scoring cell per (variant, suite instance), on a private session seeded
// from the variant's own study name.

// A variant is one row of a variant study: a ground truth and a model,
// scored over the suite.
type variant struct {
	label string // the row's label
	seed  string // the CellSeed study name of the variant's cells
	// truth builds the variant's ground truth; nil scores on the lab's.
	truth func() *cluster.Hidden
	// model builds the scored model. A fitted model is fitted on em, the
	// variant's own fresh emulator (the lab's for a lab variant), so each
	// variant's fit depends on nothing another variant does.
	model func(p *Plan, em *cluster.Emulator) (perfmodel.Model, error)
}

// Summary is one variant's outcome over the suite: wrong HCPA-vs-MCPA
// winners of the Total DAGs, the median and largest makespan simulation
// errors, and the Kendall tau of simulated versus measured relative
// makespans. The ablation study's are the JSON report's "ablation" rows.
type Summary struct {
	Label        string `json:"Model"`
	Mispredicted int
	Total        int
	MedianErrPct float64
	MaxErrPct    float64 `json:"-"`
	KendallTau   float64
}

// summarize folds a variant's scoring cells, in suite order.
func summarize(label string, cells [][]float64) Summary {
	var simRels, expRels, errs []float64
	maxErr := 0.0
	for _, xs := range cells {
		sc := scoredOf(xs)
		simRels = append(simRels, stats.RelDiff(sc.sim[hcpa], sc.sim[mcpa]))
		expRels = append(expRels, stats.RelDiff(sc.exp[hcpa], sc.exp[mcpa]))
		for ai := range sc.sim {
			e := stats.SimErrPct(sc.sim[ai], sc.exp[ai])
			errs = append(errs, e)
			if e > maxErr {
				maxErr = e
			}
		}
	}
	return Summary{
		Label:        label,
		Mispredicted: stats.CountDisagreements(simRels, expRels, 0),
		Total:        len(simRels),
		MedianErrPct: stats.Median(errs),
		MaxErrPct:    maxErr,
		KendallTau:   stats.KendallTau(simRels, expRels),
	}
}

// variantStudy is a variant study's table entry: its variants and its
// table's title, header line and row format. A row prints the label, the
// wrong winners over the total, then cols' values.
type variantStudy struct {
	title, header, row string
	cols               func(Summary) []any
	variants           []variant
}

// summaries folds a plan's cells into one summary per variant.
func (vs *variantStudy) summaries(cells [][]float64) []Summary {
	rows := make([]Summary, len(vs.variants))
	for v := range rows {
		rows[v] = summarize(vs.variants[v].label, cells[v*suiteLen:(v+1)*suiteLen])
	}
	return rows
}

func (vs *variantStudy) write(w io.Writer, rows []Summary) {
	fmt.Fprintln(w, vs.title)
	fmt.Fprint(w, vs.header)
	for _, r := range rows {
		fmt.Fprintf(w, vs.row, append([]any{r.Label, r.Mispredicted, r.Total}, vs.cols(r)...)...)
	}
}

// analytic is the purely analytic simulator of a variant's environment.
func analytic(_ *Plan, em *cluster.Emulator) (perfmodel.Model, error) {
	return perfmodel.NewAnalytic(em.Hidden.Cluster), nil
}

// profiled fits the §VI brute-force profile model on the variant's emulator.
func profiled(p *Plan, em *cluster.Emulator) (perfmodel.Model, error) {
	return profiler.BuildProfileModel(em, p.cfg.Profile)
}

// ablation builds simulator variants between "purely analytic" and "full
// profile" by switching each measured component on independently, on the
// lab's environment. The deltas attribute the analytic simulator's error to
// the paper's three culprits.
func ablation() *variantStudy {
	vs := &variantStudy{
		title:  "Ablation — which missing environment effect costs how much accuracy",
		header: fmt.Sprintf("  %-22s %12s %14s %12s\n", "simulator variant", "wrong winner", "median err [%]", "Kendall tau"),
		row:    "  %-22s %8d/%-3d %14.1f %12.2f\n",
		cols:   func(s Summary) []any { return []any{s.MedianErrPct, s.KendallTau} },
	}
	for _, v := range []struct {
		label                 string
		task, startup, redist int // 1 where the component is profiled
	}{
		{"analytic", 0, 0, 0},
		{"analytic+startup", 0, 1, 0},
		{"analytic+redist", 0, 0, 1},
		{"analytic+overheads", 0, 1, 1},
		{"tasks-only", 1, 0, 0},
		{"full-profile", 1, 1, 1},
	} {
		vs.variants = append(vs.variants, variant{label: v.label, seed: "ablation/" + v.label,
			model: func(p *Plan, _ *cluster.Emulator) (perfmodel.Model, error) {
				lab, err := p.lab()
				if err != nil {
					return nil, err
				}
				m := [2]perfmodel.Model{lab.Analytic, lab.Profile}
				return perfmodel.NewOverlay(m[v.task], m[v.startup], m[v.redist], v.label)
			}})
	}
	return vs
}

// scaling instantiates hypothetical clusters by scaling the Bayreuth
// environment to 32, 64 and 128 nodes, fits an empirical model on each
// (sparse measurements only, per §VII, their points scaled with the
// cluster) and scores it — the §IX scenario of simulating platforms one does
// not have.
func scaling() *variantStudy {
	vs := &variantStudy{
		title:  "Scaling study — empirical simulator on scaled hypothetical clusters",
		header: fmt.Sprintf("  %-8s %14s %16s\n", "nodes", "wrong winner", "median err [%]"),
		row:    "  %-8s %10d/%-3d %16.1f\n",
		cols:   func(s Summary) []any { return []any{s.MedianErrPct} },
	}
	for _, nodes := range []int{32, 64, 128} {
		vs.variants = append(vs.variants, variant{
			label: fmt.Sprint(nodes), seed: fmt.Sprintf("scaling/%d", nodes),
			truth: func() *cluster.Hidden {
				truth := cluster.Bayreuth()
				truth.Cluster = truth.Cluster.Scaled(nodes)
				return truth
			},
			model: func(p *Plan, em *cluster.Emulator) (perfmodel.Model, error) {
				return profiler.BuildEmpiricalModel(em, p.cfg.Empirical.ScaledTo(nodes, platform.Bayreuth().Nodes))
			}})
	}
	return vs
}

// sensitivity re-runs the Figure 1 comparison (analytic simulator vs
// experiment) under environments with different run-to-run noise levels,
// separating the structural part of the analytic simulator's
// winner-mispredictions (missing overheads, wrong task times) from the part
// caused by measurement noise on near-ties. The paper ran each schedule
// once on a real machine, so its counts include both components.
func sensitivity() *variantStudy {
	vs := &variantStudy{
		title:  "Noise sensitivity — analytic simulator vs experiment at varying run-to-run noise",
		header: fmt.Sprintf("  %-12s %14s %12s\n", "noise sigma", "wrong winner", "Kendall tau"),
		row:    "  %-12s %10d/%-3d %12.2f\n",
		cols:   func(s Summary) []any { return []any{s.KendallTau} },
	}
	for _, sigma := range []float64{0, 0.01, 0.03, 0.1, 0.2} {
		vs.variants = append(vs.variants, variant{
			label: fmt.Sprintf("%g", sigma), seed: fmt.Sprintf("sensitivity/%g", sigma),
			truth: func() *cluster.Hidden {
				truth := cluster.Bayreuth()
				truth.NoiseSigma = sigma
				return truth
			},
			model: analytic})
	}
	return vs
}

// straggler exposes a limit of the paper's methodology: the §VI profiling
// campaign measures per processor *count*, never per processor *identity*,
// so a single degraded node — common on real clusters — is invisible to
// both the profile and the empirical model. The study scores the profile
// simulator on a healthy environment and on one whose node 13 runs 3×
// slower, using the same measurement methodology on each.
func straggler() *variantStudy {
	degraded := func() *cluster.Hidden {
		truth := cluster.Bayreuth()
		truth.StragglerHost = 13
		truth.StragglerFactor = 3
		return truth
	}
	return &variantStudy{
		title:  "Straggler study — profile simulator vs a single degraded node (limits of §VI)",
		header: fmt.Sprintf("  %-20s %14s %16s %12s\n", "environment", "wrong winner", "median err [%]", "max err [%]"),
		row:    "  %-20s %10d/%-3d %16.1f %12.1f\n",
		cols:   func(s Summary) []any { return []any{s.MedianErrPct, s.MaxErrPct} },
		variants: []variant{
			{label: "healthy", seed: "straggler/healthy", truth: cluster.Bayreuth, model: profiled},
			{label: "straggler-node-13", seed: "straggler/straggler-node-13", truth: degraded, model: profiled},
		},
	}
}

// hetero ports the case study to HCPA's original setting [12]: a cluster
// whose nodes split into two speed classes (half at the reference 250
// MFlop/s, half at twice that). Allocation phases reason on the reference
// cluster (HCPA's normalisation), the heterogeneous mapping phase trades
// node speed against availability, and the emulated environment runs each
// task at its slowest assigned node's pace. The analytic and profile
// simulators are scored exactly as in Figures 1/5.
func hetero() *variantStudy {
	truth := func() *cluster.Hidden {
		powers := make([]float64, 32)
		for i := range powers {
			if i < 16 {
				powers[i] = 250e6
			} else {
				powers[i] = 500e6
			}
		}
		truth := cluster.Bayreuth()
		truth.Cluster = platform.NewHeterogeneous("bayreuth-2speed", powers, 125e6, 100e-6)
		return truth
	}
	return &variantStudy{
		title:  "Heterogeneity study — two-speed cluster (16× 250 MFlop/s + 16× 500 MFlop/s)",
		header: fmt.Sprintf("  %-12s %14s %16s\n", "model", "wrong winner", "median err [%]"),
		row:    "  %-12s %10d/%-3d %16.1f\n",
		cols:   func(s Summary) []any { return []any{s.MedianErrPct} },
		variants: []variant{
			{label: "analytic", seed: "hetero/analytic", truth: truth, model: analytic},
			{label: "profile", seed: "hetero/profile", truth: truth, model: profiled},
		},
	}
}

// environments scores the purely analytic simulator against two
// environments: the paper's Bayreuth/TGrid stand-in, and a tuned "modern"
// runtime (native kernels near the calibrated rate, millisecond spawning).
// It quantifies §IX's conjecture that the findings are driven by the
// environment's idiosyncrasies: on the tuned environment the analytic
// simulator becomes nearly sound.
func environments() *variantStudy {
	return &variantStudy{
		title:  "Environment study — analytic simulator vs two ground truths",
		header: fmt.Sprintf("  %-16s %14s %16s %12s\n", "environment", "wrong winner", "median err [%]", "Kendall tau"),
		row:    "  %-16s %10d/%-3d %16.1f %12.2f\n",
		cols:   func(s Summary) []any { return []any{s.MedianErrPct, s.KendallTau} },
		variants: []variant{
			{label: "bayreuth-tgrid", seed: "environments/bayreuth-tgrid", truth: cluster.Bayreuth, model: analytic},
			{label: "modern-tuned", seed: "environments/modern-tuned", truth: cluster.Modern, model: analytic},
		},
	}
}
