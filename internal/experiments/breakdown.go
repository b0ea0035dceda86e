package experiments

import (
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tgrid"
)

// breakdownRow decomposes one algorithm's emulated executions into the
// paper's §V-C activity classes, averaged over the suite: kernel work,
// task-startup overhead, redistribution protocol overhead, and transfer
// time (each as a fraction of the summed activity time).
type breakdownRow struct {
	Algo                                            string
	Kernel, Startup, RedistOverhead, RedistTransfer float64
	// OverheadShareOfMakespan is the mean of (startup+redist overhead)
	// per makespan second across the suite, the portion of real time the
	// analytic simulator cannot see.
	OverheadShareOfMakespan float64
}

// breakdownCell schedules suite instance i%suiteLen with compared algorithm
// i/suiteLen under the analytic model (the schedules whose execution the
// paper analyses in §V-C) and executes it once on the emulated cluster. It
// keeps its own loop rather than the scoring cell's: it runs one algorithm,
// not both, and it needs the execution's full record (Execute), where
// scoring needs only mean makespans (MeasureMakespan). Its frame is the
// record's four activity times and the overhead share of the makespan.
func (l *Lab) breakdownCell(i, _ int) ([]float64, error) {
	algo, k := ComparedAlgorithms()[i/suiteLen], i%suiteLen
	p := l.pass(l.Analytic)
	sc := p.bind(l.Suite[k].Graph)
	s, err := p.build(sc, algo)
	if err != nil {
		return nil, fmt.Errorf("experiments: breakdown %s: %w", algo.Name(), err)
	}
	res, err := l.session("breakdown/"+algo.Name(), k).Execute(s)
	if err != nil {
		return nil, fmt.Errorf("experiments: breakdown %s: %w", algo.Name(), err)
	}
	b := res.Breakdown()
	sched.ReleaseScratch(sc)
	return []float64{b.Kernel, b.Startup, b.RedistOverhead, b.RedistTransfer, (b.Startup + b.RedistOverhead) / res.Makespan}, nil
}

// breakdownRows reports where the time goes per algorithm, from the cells.
func breakdownRows(cells [][]float64) []breakdownRow {
	var rows []breakdownRow
	for ai, algo := range ComparedAlgorithms() {
		var total tgrid.Breakdown
		var shares []float64
		for _, c := range cells[ai*suiteLen : (ai+1)*suiteLen] {
			total.Kernel += c[0]
			total.Startup += c[1]
			total.RedistOverhead += c[2]
			total.RedistTransfer += c[3]
			shares = append(shares, c[4])
		}
		sum := total.Kernel + total.Startup + total.RedistOverhead + total.RedistTransfer
		rows = append(rows, breakdownRow{
			Algo:                    algo.Name(),
			Kernel:                  total.Kernel / sum,
			Startup:                 total.Startup / sum,
			RedistOverhead:          total.RedistOverhead / sum,
			RedistTransfer:          total.RedistTransfer / sum,
			OverheadShareOfMakespan: stats.Mean(shares),
		})
	}
	return rows
}

// writeBreakdown prints the activity-time decomposition.
func writeBreakdown(w io.Writer, rows []breakdownRow) {
	fmt.Fprintln(w, "Time breakdown — where emulated executions spend activity time (§V-C)")
	fmt.Fprintf(w, "  %-6s %8s %9s %14s %10s %22s\n",
		"algo", "kernel", "startup", "redist ovhd", "transfer", "overheads/makespan")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %7.1f%% %8.1f%% %13.1f%% %9.1f%% %21.1f%%\n",
			r.Algo, 100*r.Kernel, 100*r.Startup, 100*r.RedistOverhead,
			100*r.RedistTransfer, 100*r.OverheadShareOfMakespan)
	}
}

// shapeRow is one workflow skeleton of the shape study.
type shapeRow struct {
	Shape        string
	Tasks        int
	Width        int
	BestAlgoSim  string
	BestAlgoExp  string
	ProfileAgree bool
}

// shapeGraphs are the shape study's structured workflow skeletons (chain,
// fork-join, layered, diamond): the HCPA/MCPA comparison runs on them
// instead of the random suite, checking whether the paper's conclusion —
// profile simulation picks the experimentally better algorithm — transfers
// to realistic workflow structures (§II notes production workflows are
// structured).
func shapeGraphs() []*dag.Graph {
	return []*dag.Graph{
		dag.Chain(10, 2000, dag.KernelMul, dag.KernelAdd),
		dag.ForkJoin(4, 2, 2000),
		dag.Layered(3, 3, 2000),
		dag.Diamond(2000),
	}
}

// shapeRows compares the winners under the profile simulator and on the
// emulated cluster, from the scoring cells.
func shapeRows(cells [][]float64) []shapeRow {
	rows := make([]shapeRow, len(cells))
	for i, g := range shapeGraphs() {
		sc := scoredOf(cells[i])
		row := shapeRow{Shape: g.Name, Tasks: g.Len(), Width: g.Width(), BestAlgoSim: "HCPA", BestAlgoExp: "HCPA"}
		if sc.sim[mcpa] < sc.sim[hcpa] {
			row.BestAlgoSim = "MCPA"
		}
		if sc.exp[mcpa] < sc.exp[hcpa] {
			row.BestAlgoExp = "MCPA"
		}
		row.ProfileAgree = row.BestAlgoSim == row.BestAlgoExp
		rows[i] = row
	}
	return rows
}

// writeShapes prints the shape-study table.
func writeShapes(w io.Writer, rows []shapeRow) {
	fmt.Fprintln(w, "Shape study — profile simulation vs experiment on workflow skeletons")
	fmt.Fprintf(w, "  %-22s %6s %6s %10s %10s %7s\n", "shape", "tasks", "width", "sim best", "exp best", "agree")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %6d %6d %10s %10s %7v\n",
			r.Shape, r.Tasks, r.Width, r.BestAlgoSim, r.BestAlgoExp, r.ProfileAgree)
	}
}
