package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/profiler"
	"repro/internal/regression"
	"repro/internal/stats"
)

// ---------------------------------------------------------------- Table I

// writeTableI prints Table I in the paper's layout: the DAG-generator
// parameter grid and the realised suite.
func (l *Lab) writeTableI(w io.Writer) {
	fmt.Fprintln(w, "Table I — parameters used for generating random DAGs")
	fmt.Fprintf(w, "  %-42s %v\n", "number of tasks", dag.SuiteTasks)
	fmt.Fprintf(w, "  %-42s %v\n", "number of input matrices (DAG width)", dag.SuiteWidths)
	fmt.Fprintf(w, "  %-42s %v\n", "ratio addition / multiplication tasks", dag.SuiteRatios)
	fmt.Fprintf(w, "  %-42s %v\n", "matrix size (# elements per dimension)", dag.SuiteSizes)
	fmt.Fprintf(w, "  %-42s %v\n", "number of samples", dag.SuiteSamples)
	fmt.Fprintf(w, "  %-42s %v\n", "total DAG instances", len(l.Suite))
}

// --------------------------------------------------- Figures 1, 5 and 7

// PairPoint is one DAG's relative HCPA-vs-MCPA makespan, simulated and
// measured.
type PairPoint struct {
	Name             string
	SimRel, ExpRel   float64
	SimHCPA, SimMCPA float64
	ExpHCPA, ExpMCPA float64
}

// Comparison is the Figure 1/5/7 payload: one bar pair per DAG, sorted by
// simulated relative makespan, plus the headline misprediction count.
type Comparison struct {
	Model        string
	N            int
	Points       []PairPoint
	Mispredicted int
}

// CompareHCPAMCPA regenerates the Figure 1 (analytic), Figure 5 (profile)
// or Figure 7 (empirical) comparison for one matrix size.
func (l *Lab) CompareHCPAMCPA(modelName string, n int) (*Comparison, error) {
	recs, err := l.RunSuite(modelName)
	if err != nil {
		return nil, err
	}
	return compare(modelName, n, recs), nil
}

// compare builds one matrix size's comparison from a model's suite records.
func compare(modelName string, n int, recs []Record) *Comparison {
	cmp := &Comparison{Model: modelName, N: n}
	var simRels, expRels []float64
	for _, rec := range recs {
		if rec.Instance.Params.N != n {
			continue
		}
		p := PairPoint{
			Name:    rec.Instance.Params.Name(),
			SimHCPA: rec.Sim["HCPA"],
			SimMCPA: rec.Sim["MCPA"],
			ExpHCPA: rec.Exp["HCPA"],
			ExpMCPA: rec.Exp["MCPA"],
			SimRel:  stats.RelDiff(rec.Sim["HCPA"], rec.Sim["MCPA"]),
			ExpRel:  stats.RelDiff(rec.Exp["HCPA"], rec.Exp["MCPA"]),
		}
		cmp.Points = append(cmp.Points, p)
		simRels = append(simRels, p.SimRel)
		expRels = append(expRels, p.ExpRel)
	}
	sort.Slice(cmp.Points, func(a, b int) bool { return cmp.Points[a].SimRel < cmp.Points[b].SimRel })
	cmp.Mispredicted = stats.CountDisagreements(simRels, expRels, 0)
	return cmp
}

// Write prints the figure's series plus the paper's headline count.
func (c *Comparison) Write(w io.Writer) {
	fig := map[string]string{"analytic": "Figure 1", "profile": "Figure 5", "empirical": "Figure 7"}[c.Model]
	fmt.Fprintf(w, "%s — HCPA makespan relative to MCPA (%s models, n=%d)\n", fig, c.Model, c.N)
	fmt.Fprintf(w, "  %-28s %12s %12s\n", "DAG (sorted by sim rel.)", "simulation", "experiment")
	for _, p := range c.Points {
		fmt.Fprintf(w, "  %-28s %+11.3f%% %+11.3f%%\n", p.Name, 100*p.SimRel, 100*p.ExpRel)
	}
	fmt.Fprintf(w, "  => simulation picks the wrong winner for %d of %d DAGs (%.0f%%)\n",
		c.Mispredicted, len(c.Points), 100*float64(c.Mispredicted)/float64(len(c.Points)))
}

// ----------------------------------------------------------- Figure 2

// errorSeries is one curve of Figure 2: the analytic model's relative task
// execution time error versus processor count.
type errorSeries struct {
	Label string
	P     []int
	Err   []float64
}

// Figure 2's Java side probes the 1-D multiplication for these matrix sizes
// at every processor count, fig2Trials runs per probe.
var fig2Sizes = []int{2000, 3000}

const fig2Trials = 3

// figure2Cell is one (n, p) probe of Figure 2's Java side: the analytic
// model's relative error against the mean measured time, on a cluster of
// nodes nodes.
func (l *Lab) figure2Cell(i, nodes int) ([]float64, error) {
	n, p := fig2Sizes[i/nodes], i%nodes+1
	task := &dag.Task{Kernel: dag.KernelMul, N: n}
	pred := task.Flops() / float64(p) / l.Cluster().NodePower
	meas := profiler.Campaign{Em: l.session("fig2java", i)}.MeasureTaskMean(dag.KernelMul, n, p, fig2Trials)
	return []float64{abs(pred-meas) / meas}, nil
}

// figure2Java assembles the Java-side series (left plot) from the probes,
// in cell order.
func figure2Java(cells [][]float64, nodes int) []errorSeries {
	var out []errorSeries
	for ni, n := range fig2Sizes {
		s := errorSeries{Label: fmt.Sprintf("1D MM/Java n=%d", n)}
		for p := 1; p <= nodes; p++ {
			s.P = append(s.P, p)
			s.Err = append(s.Err, cells[ni*nodes+p-1][0])
		}
		out = append(out, s)
	}
	return out
}

// figure2Franklin produces the PDGEMM/Cray series (right plot) for
// n ∈ {1024, 2048, 4096} against the calibrated Franklin environment.
func figure2Franklin() []errorSeries {
	f := cluster.NewFranklinProfile()
	var out []errorSeries
	for _, n := range []int{1024, 2048, 4096} {
		s := errorSeries{Label: fmt.Sprintf("PDGEMM/C n=%d", n)}
		for p := 1; p <= 32; p++ {
			s.P = append(s.P, p)
			s.Err = append(s.Err, f.ModelError(n, p))
		}
		out = append(out, s)
	}
	return out
}

// writeErrorSeries prints Figure 2 series as aligned columns.
func writeErrorSeries(w io.Writer, title string, series []errorSeries) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %4s", "p")
	for _, s := range series {
		fmt.Fprintf(w, " %18s", s.Label)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].P {
		fmt.Fprintf(w, "  %4d", series[0].P[i])
		for _, s := range series {
			fmt.Fprintf(w, " %17.1f%%", 100*s.Err[i])
		}
		fmt.Fprintln(w)
	}
}

// ----------------------------------------------------------- Figure 3

// figure3Cell measures the startup overhead on i+1 processors (20 trials,
// as in the paper).
func (l *Lab) figure3Cell(i, _ int) ([]float64, error) {
	return []float64{profiler.Campaign{Em: l.session("fig3", i)}.MeasureStartupMean(i+1, l.Cfg.Profile.StartupTrials)}, nil
}

// writeFigure3 prints the startup curve; cell p-1 holds p's overhead.
func writeFigure3(w io.Writer, cells [][]float64) {
	fmt.Fprintln(w, "Figure 3 — task startup overhead [s] for p = 1..32")
	for i, c := range cells {
		fmt.Fprintf(w, "  p=%-3d %6.3f\n", i+1, c[0])
	}
}

// ----------------------------------------------------------- Figure 4

// figure4Cell probes the surface row of source count i+1: every
// destination count, 3 trials per point.
func (l *Lab) figure4Cell(i, nodes int) ([]float64, error) {
	c := profiler.Campaign{Em: l.session("fig4", i)}
	row := make([]float64, nodes)
	for d := 1; d <= nodes; d++ {
		row[d-1] = c.MeasureRedistMean(i+1, d, l.Cfg.Profile.RedistTrials)
	}
	return row, nil
}

// writeFigure4 prints a condensed view of the surface, whose row src-1
// holds the overheads [s] from src processors: the per-destination average
// over sources (the reduction the profile model uses) with min/max.
func writeFigure4(w io.Writer, surface [][]float64) {
	byDst := profiler.RedistByDst(surface)
	fmt.Fprintln(w, "Figure 4 — data redistribution overhead [ms] vs p(src), p(dst)")
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "p(dst)", "avg(src)", "min(src)", "max(src)")
	for d := 1; d <= len(surface); d++ {
		min, max := surface[0][d-1], surface[0][d-1]
		for s := range surface {
			v := surface[s][d-1]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(w, "  %-8d %9.1f %9.1f %9.1f\n", d, 1000*byDst[d], 1000*min, 1000*max)
	}
}

// ----------------------------------------------------------- Figure 6

// fitStudy is Figure 6: the multiplication regression fit with the naive
// powers-of-two points (outliers at p = 8, 16) versus the final point set.
type fitStudy struct {
	N int
	// Naive and Final hold measurement points (xs: processor counts).
	NaiveXs, NaiveYs []float64
	FinalXs, FinalYs []float64
	NaiveFit         regression.Piecewise
	FinalFit         regression.Piecewise
	// DetectedOutliers are the processor counts the robust detector flags
	// in the naive low-regime points.
	DetectedOutliers []float64
	// NaiveMaxErr and FinalMaxErr are the maximum relative prediction
	// errors against the full measured profile at p = 1..32.
	NaiveMaxErr, FinalMaxErr float64
	// NaiveMeanErr and FinalMeanErr are the mean relative errors.
	NaiveMeanErr, FinalMeanErr float64
}

// figure6 fits both point sets for one matrix size and scores them against
// the full measured profile. The whole fit study is one cell: its probes
// interleave with the regression logic, so it runs serially on a private
// session and stays reproducible regardless of what ran before it.
func (l *Lab) figure6(n int) (*fitStudy, error) {
	c := profiler.Campaign{Em: l.Em.Session(CellSeed(l.Cfg.NoiseSeed, fmt.Sprintf("fig6/%d", n), 0))}
	trials := l.Cfg.Empirical.Trials
	study := &fitStudy{N: n}

	study.NaiveXs, study.NaiveYs = c.MeasureSeries(dag.KernelMul, n, profiler.NaiveMulPoints, trials)
	finalPoints := []int{2, 4, 7, 15, 24, 31}
	study.FinalXs, study.FinalYs = c.MeasureSeries(dag.KernelMul, n, finalPoints, trials)

	lowBasis := regression.Inverse
	if n == 2000 && l.Cfg.Empirical.HalfInverseFor2000 {
		lowBasis = regression.HalfInverse
	}
	split := float64(l.Cfg.Empirical.Split)
	naive, err := regression.FitPiecewise(study.NaiveXs, study.NaiveYs, lowBasis, split, split)
	if err != nil {
		return nil, err
	}
	final, err := regression.FitPiecewise(study.FinalXs, study.FinalYs, lowBasis, split, 15)
	if err != nil {
		return nil, err
	}
	study.NaiveFit = naive
	study.FinalFit = final

	// Outlier identification the way the paper suggests (§VII-A): a few
	// extra measurements around each candidate point. A point is an
	// outlier when its total work p·t(p) sits well above the median work
	// of its ±2 neighbourhood — a 1/p-shaped curve is locally flat on the
	// work scale, so a localized slowdown (memory-hierarchy effects,
	// imbalance) stands out.
	for _, x := range study.NaiveXs {
		p := int(x)
		if p < 3 || float64(p) > split {
			continue
		}
		var window []float64
		var wp float64
		for q := p - 2; q <= p+2; q++ {
			if q < 1 || q > l.Cluster().Nodes {
				continue
			}
			w := float64(q) * c.MeasureTaskMean(dag.KernelMul, n, q, trials)
			if q == p {
				wp = w
			} else {
				window = append(window, w)
			}
		}
		if wp > 1.2*median(window) {
			study.DetectedOutliers = append(study.DetectedOutliers, float64(p))
		}
	}

	// Score against the full profile.
	var nErrs, fErrs []float64
	for p := 1; p <= l.Cluster().Nodes; p++ {
		meas := c.MeasureTaskMean(dag.KernelMul, n, p, trials)
		nErrs = append(nErrs, abs(naive.Predict(float64(p))-meas)/meas)
		fErrs = append(fErrs, abs(final.Predict(float64(p))-meas)/meas)
	}
	study.NaiveMaxErr, study.NaiveMeanErr = maxMean(nErrs)
	study.FinalMaxErr, study.FinalMeanErr = maxMean(fErrs)
	return study, nil
}

// Write prints both fits and their quality.
func (f *fitStudy) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 — regression fits for multiplication, n=%d\n", f.N)
	fmt.Fprintf(w, "  naive points p=%v\n", ints(f.NaiveXs))
	fmt.Fprintf(w, "    low fit:  %v   high fit: %v\n", f.NaiveFit.Low, f.NaiveFit.High)
	fmt.Fprintf(w, "    detected outliers at p=%v\n", ints(f.DetectedOutliers))
	fmt.Fprintf(w, "    error vs full profile: mean %.1f%%, max %.1f%%\n",
		100*f.NaiveMeanErr, 100*f.NaiveMaxErr)
	fmt.Fprintf(w, "  final points p=%v (8, 16 replaced by 7, 15)\n", ints(f.FinalXs))
	fmt.Fprintf(w, "    low fit:  %v   high fit: %v\n", f.FinalFit.Low, f.FinalFit.High)
	fmt.Fprintf(w, "    error vs full profile: mean %.1f%%, max %.1f%%\n",
		100*f.FinalMeanErr, 100*f.FinalMaxErr)
}

// ----------------------------------------------------------- Figure 8

// ErrorBox is one box of Figure 8: makespan simulation error of one model
// for one algorithm over the whole suite.
type ErrorBox struct {
	Model, Algo string
	Errors      []float64 // percent
	Box         stats.FiveNum
}

// Figure8 computes the simulation-error distributions for the three models
// and both algorithms.
func (l *Lab) Figure8() ([]ErrorBox, error) {
	suites := make([][]Record, len(ModelNames()))
	for i, modelName := range ModelNames() {
		var err error
		if suites[i], err = l.RunSuite(modelName); err != nil {
			return nil, err
		}
	}
	return figure8(suites), nil
}

// figure8 computes the boxes from each model's suite records, in ModelNames
// order.
func figure8(suites [][]Record) []ErrorBox {
	var out []ErrorBox
	for mi, modelName := range ModelNames() {
		for _, algo := range ComparedAlgorithms() {
			box := ErrorBox{Model: modelName, Algo: algo.Name()}
			for _, rec := range suites[mi] {
				box.Errors = append(box.Errors,
					stats.SimErrPct(rec.Sim[algo.Name()], rec.Exp[algo.Name()]))
			}
			box.Box = stats.Summarize(box.Errors)
			out = append(out, box)
		}
	}
	return out
}

// writeFigure8 prints the boxplot summaries.
func writeFigure8(w io.Writer, boxes []ErrorBox) {
	fmt.Fprintln(w, "Figure 8 — makespan simulation error [%] per model and algorithm")
	for _, b := range boxes {
		fmt.Fprintf(w, "  %-10s %-5s %s\n", b.Model, b.Algo, b.Box)
	}
}

// ----------------------------------------------------------- Table II

// writeTable2 prints the lab's fitted empirical models in the paper's layout.
func (l *Lab) writeTable2(w io.Writer) {
	e := l.Empirical
	fmt.Fprintln(w, "Table II — regression models (fitted from sparse measurements)")
	for _, n := range []int{2000, 3000} {
		pw := e.MulFits[n]
		form := "a/p+b"
		if n == 2000 && l.Cfg.Empirical.HalfInverseFor2000 {
			form = "a/(2p)+b"
		}
		fmt.Fprintf(w, "  execution time (multiplication) n=%d: %s then c·p+d  (a,b,c,d)=(%.2f, %.2f, %.2f, %.2f)\n",
			n, form, pw.Low.A, pw.Low.B, pw.High.A, pw.High.B)
	}
	for _, n := range []int{2000, 3000} {
		f := e.AddFits[n]
		fmt.Fprintf(w, "  execution time (addition)       n=%d: a/p+b              (a,b)=(%.2f, %.2f)\n",
			n, f.A, f.B)
	}
	fmt.Fprintf(w, "  redistribution startup [ms]:          a·p(dst)+b          (a,b)=(%.2f, %.2f)\n",
		1000*e.RedistFit.A, 1000*e.RedistFit.B)
	fmt.Fprintf(w, "  task startup time [s]:                a·p+b               (a,b)=(%.3f, %.3f)\n",
		e.StartupFit.A, e.StartupFit.B)
}

// ----------------------------------------------------------- helpers

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func maxMean(xs []float64) (max, mean float64) {
	for _, v := range xs {
		if v > max {
			max = v
		}
		mean += v
	}
	if len(xs) > 0 {
		mean /= float64(len(xs))
	}
	return max, mean
}

func ints(xs []float64) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		out[i] = int(v)
	}
	return out
}
