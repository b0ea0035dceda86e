package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/tgrid"
)

// BreakdownRow decomposes one algorithm's emulated executions into the
// paper's §V-C activity classes, averaged over the suite: kernel work,
// task-startup overhead, redistribution protocol overhead, and transfer
// time (each as a fraction of the summed activity time).
type BreakdownRow struct {
	Algo                                            string
	Kernel, Startup, RedistOverhead, RedistTransfer float64
	// OverheadShareOfMakespan is the mean of (startup+redist overhead)
	// per makespan second across the suite, the portion of real time the
	// analytic simulator cannot see.
	OverheadShareOfMakespan float64
}

// TimeBreakdown schedules the whole suite with the analytic model (the
// schedules whose execution the paper analyses in §V-C), executes them on
// the emulated cluster and reports where the time goes per algorithm.
func (l *Lab) TimeBreakdown() ([]BreakdownRow, error) {
	builder := buildWith(l.Analytic, l.Cluster())
	var rows []BreakdownRow
	for _, algo := range ComparedAlgorithms() {
		type cellOut struct {
			b     tgrid.Breakdown
			share float64
		}
		cells := make([]cellOut, len(l.Suite))
		err := l.runner().Run("breakdown/"+algo.Name(), len(l.Suite), func(i int, sess *cluster.Session) error {
			build := builder.bind(l.Suite[i].Graph)
			s, err := build.build(algo)
			if err != nil {
				return err
			}
			res, err := sess.Execute(s)
			if err != nil {
				return err
			}
			b := res.Breakdown()
			cells[i] = cellOut{b: b, share: (b.Startup + b.RedistOverhead) / res.Makespan}
			build.release()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: breakdown %s: %w", algo.Name(), err)
		}
		var total tgrid.Breakdown
		var shares []float64
		for _, c := range cells {
			total.Kernel += c.b.Kernel
			total.Startup += c.b.Startup
			total.RedistOverhead += c.b.RedistOverhead
			total.RedistTransfer += c.b.RedistTransfer
			shares = append(shares, c.share)
		}
		sum := total.Kernel + total.Startup + total.RedistOverhead + total.RedistTransfer
		rows = append(rows, BreakdownRow{
			Algo:                    algo.Name(),
			Kernel:                  total.Kernel / sum,
			Startup:                 total.Startup / sum,
			RedistOverhead:          total.RedistOverhead / sum,
			RedistTransfer:          total.RedistTransfer / sum,
			OverheadShareOfMakespan: stats.Mean(shares),
		})
	}
	return rows, nil
}

// WriteBreakdown prints the activity-time decomposition.
func WriteBreakdown(w io.Writer, rows []BreakdownRow) {
	fmt.Fprintln(w, "Time breakdown — where emulated executions spend activity time (§V-C)")
	fmt.Fprintf(w, "  %-6s %8s %9s %14s %10s %22s\n",
		"algo", "kernel", "startup", "redist ovhd", "transfer", "overheads/makespan")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %7.1f%% %8.1f%% %13.1f%% %9.1f%% %21.1f%%\n",
			r.Algo, 100*r.Kernel, 100*r.Startup, 100*r.RedistOverhead,
			100*r.RedistTransfer, 100*r.OverheadShareOfMakespan)
	}
}

// ShapeRow is one workflow skeleton of the shape study.
type ShapeRow struct {
	Shape        string
	Tasks        int
	Width        int
	BestAlgoSim  string
	BestAlgoExp  string
	ProfileAgree bool
}

// ShapeStudy runs the HCPA/MCPA comparison on structured workflow
// skeletons (chain, fork-join, layered, diamond) instead of the random
// suite, checking whether the paper's conclusion — profile simulation picks
// the experimentally better algorithm — transfers to realistic workflow
// structures (§II notes production workflows are structured).
func (l *Lab) ShapeStudy() ([]ShapeRow, error) {
	shapes := []*dag.Graph{
		dag.Chain(10, 2000, dag.KernelMul, dag.KernelAdd),
		dag.ForkJoin(4, 2, 2000),
		dag.Layered(3, 3, 2000),
		dag.Diamond(2000),
	}
	rows := make([]ShapeRow, len(shapes))
	builder := buildWith(l.Profile, l.Cluster())
	timing := tgrid.Timing(tgrid.ModelTiming{Model: l.Profile})
	err := l.runner().Run("shapes", len(shapes), func(i int, sess *cluster.Session) error {
		g := shapes[i]
		row := ShapeRow{Shape: g.Name, Tasks: g.Len(), Width: g.Width()}
		build := builder.bind(g)
		var sim, exp [2]float64
		for ai, algo := range ComparedAlgorithms() {
			s, err := build.build(algo)
			if err != nil {
				return err
			}
			if sim[ai], err = tgrid.Makespan(l.Net, s, timing); err != nil {
				return err
			}
			if exp[ai], err = sess.MeasureMakespan(s, l.Cfg.ExpTrials); err != nil {
				return err
			}
		}
		row.BestAlgoSim, row.BestAlgoExp = "HCPA", "HCPA"
		if sim[mcpa] < sim[hcpa] {
			row.BestAlgoSim = "MCPA"
		}
		if exp[mcpa] < exp[hcpa] {
			row.BestAlgoExp = "MCPA"
		}
		row.ProfileAgree = row.BestAlgoSim == row.BestAlgoExp
		rows[i] = row
		build.release()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: shapes: %w", err)
	}
	return rows, nil
}

// WriteShapes prints the shape-study table.
func WriteShapes(w io.Writer, rows []ShapeRow) {
	fmt.Fprintln(w, "Shape study — profile simulation vs experiment on workflow skeletons")
	fmt.Fprintf(w, "  %-22s %6s %6s %10s %10s %7s\n", "shape", "tasks", "width", "sim best", "exp best", "agree")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %6d %6d %10s %10s %7v\n",
			r.Shape, r.Tasks, r.Width, r.BestAlgoSim, r.BestAlgoExp, r.ProfileAgree)
	}
}
