package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/simgrid"
)

// This file is the study table: every study of the evaluation as one entry
// — a cell count, RunCell(i) → frame and Merge(frames) → report — read by
// cmd/mixedsim through RenderStudy and by the service's study jobs through
// PlanStudy, so their outputs are byte-identical by construction. A cell
// draws its noise from a session seeded by (noise seed, study name, cell
// index) and its frame is self-contained, so the cells of one study can run
// on any worker of any replica, in any order.

// suiteLen is the size of the Table I suite every suite-wide study scores.
var suiteLen = len(dag.SuiteSizes) * len(dag.SuiteWidths) * len(dag.SuiteRatios) * dag.SuiteSamples

// study is one entry of the table. A serial study is one cell whose frame
// is its report; any other study's cells each yield width float64s, which
// merge folds in cell order.
type study struct {
	name string
	// lab marks the studies that run on the lab; the others assemble their
	// own environments from the config.
	lab    bool
	serial func(l *Lab, w io.Writer) error
	// cells and width count the cells and each cell's float64s, on a lab
	// cluster of nodes nodes.
	cells, width func(nodes int) int
	cell         func(p *Plan, i int) ([]float64, error)
	merge        func(p *Plan, cells [][]float64, w io.Writer) error
	variants     *variantStudy
}

// studies is the table, in cmd/mixedsim's "all" order.
var studies = []*study{
	{name: "table1", lab: true, serial: func(l *Lab, w io.Writer) error { l.writeTableI(w); return nil }},
	comparison("fig1", "analytic"),
	probes("fig2", func(nodes int) int { return len(fig2Sizes) * nodes }, func(int) int { return 1 }, (*Lab).figure2Cell,
		func(cells [][]float64, nodes int, w io.Writer) {
			writeErrorSeries(w, "Figure 2 (left) — relative error of the analytic model, 1D MM/Java",
				figure2Java(cells, nodes))
			fmt.Fprintln(w)
			writeErrorSeries(w, "Figure 2 (right) — relative error of the analytic model, PDGEMM/Cray XT4",
				figure2Franklin())
		}),
	probes("fig3", identity, func(int) int { return 1 }, (*Lab).figure3Cell,
		func(cells [][]float64, _ int, w io.Writer) { writeFigure3(w, cells) }),
	probes("fig4", identity, identity, (*Lab).figure4Cell,
		func(cells [][]float64, _ int, w io.Writer) { writeFigure4(w, cells) }),
	comparison("fig5", "profile"),
	{name: "fig6", lab: true, serial: func(l *Lab, w io.Writer) error {
		for _, n := range []int{2000, 3000} {
			study, err := l.figure6(n)
			if err != nil {
				return err
			}
			study.Write(w)
			fmt.Fprintln(w)
		}
		return nil
	}},
	comparison("fig7", "empirical"),
	suitePasses("fig8", ModelNames(), func(suites [][]Record, w io.Writer) { writeFigure8(w, figure8(suites)) }),
	{name: "table2", lab: true, serial: func(l *Lab, w io.Writer) error { l.writeTable2(w); return nil }},
	variants("ablation", true, ablation()),
	variants("scaling", false, scaling()),
	variants("sensitivity", false, sensitivity()),
	probes("breakdown", func(int) int { return len(ComparedAlgorithms()) * suiteLen }, func(int) int { return 5 },
		(*Lab).breakdownCell, func(cells [][]float64, _ int, w io.Writer) { writeBreakdown(w, breakdownRows(cells)) }),
	probes("shapes", func(int) int { return len(shapeGraphs()) }, func(int) int { return 4 },
		func(l *Lab, i, _ int) ([]float64, error) {
			p := l.pass(l.Profile)
			sc, err := p.score(shapeGraphs()[i], p.session("shapes", i))
			return sc.floats(), err
		},
		func(cells [][]float64, _ int, w io.Writer) { writeShapes(w, shapeRows(cells)) }),
	variants("environments", false, environments()),
	variants("hetero", false, hetero()),
	variants("straggler", false, straggler()),
}

func identity(nodes int) int { return nodes }

// probes is a study of independent cells on the lab.
func probes(name string, cells, width func(nodes int) int, cell func(l *Lab, i, nodes int) ([]float64, error),
	write func(cells [][]float64, nodes int, w io.Writer)) *study {
	return &study{name: name, lab: true, cells: cells, width: width,
		cell: func(p *Plan, i int) ([]float64, error) {
			l, err := p.lab()
			if err != nil {
				return nil, err
			}
			return cell(l, i, p.nodes)
		},
		merge: func(p *Plan, cells [][]float64, w io.Writer) error {
			write(cells, p.nodes, w)
			return nil
		}}
}

// comparison is Figure 1, 5 or 7: HCPA versus MCPA under one model, for
// both matrix sizes.
func comparison(name, model string) *study {
	return suitePasses(name, []string{model}, func(suites [][]Record, w io.Writer) {
		for _, n := range []int{2000, 3000} {
			compare(model, n, suites[0]).Write(w)
			fmt.Fprintln(w)
		}
	})
}

// suitePasses is a study over the lab's suite pass of each named model: one
// scoring cell per (model, suite instance), seeded as Lab.RunSuite seeds it.
// The passes go through the lab's record cache both ways: a cell whose lab
// holds its model's pass answers from it, and the merge leaves the passes it
// folded in the lab a cell of the plan ran on, if any, so a repeated study,
// or fig8 after fig1, fig5 and fig7, scores no suite instance again.
func suitePasses(name string, models []string, write func([][]Record, io.Writer)) *study {
	s := probes(name, func(int) int { return len(models) * suiteLen }, func(int) int { return 4 },
		func(l *Lab, i, _ int) ([]float64, error) {
			sc, err := l.suiteCell(models[i/suiteLen], i%suiteLen)
			return sc.floats(), err
		}, nil)
	s.merge = func(p *Plan, cells [][]float64, w io.Writer) error {
		suite, err := p.suite()
		if err != nil {
			return err
		}
		suites := make([][]Record, len(models))
		for i, xs := range cells {
			suites[i/suiteLen] = append(suites[i/suiteLen], scoredOf(xs).record(suite[i%suiteLen]))
		}
		if l := p.built.Load(); l != nil {
			for m, model := range models {
				l.suiteRecords(model, suites[m])
			}
		}
		write(suites, w)
		return nil
	}
	return s
}

// variants is a variant study's entry: one scoring cell per (variant, suite
// instance).
func variants(name string, lab bool, vs *variantStudy) *study {
	return &study{name: name, lab: lab, variants: vs,
		cells: func(int) int { return len(vs.variants) * suiteLen },
		width: func(int) int { return 4 },
		cell: func(p *Plan, i int) ([]float64, error) {
			v, k := i/suiteLen, i%suiteLen
			vp, err := p.variants[v]()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", vs.variants[v].seed, err)
			}
			sc, err := vp.pass.score(vp.suite[k].Graph, vp.pass.session(vs.variants[v].seed, k))
			return sc.floats(), err
		},
		merge: func(_ *Plan, cells [][]float64, w io.Writer) error {
			vs.write(w, vs.summaries(cells))
			return nil
		}}
}

// StudyNames lists every renderable study, in cmd/mixedsim's "all" order.
func StudyNames() []string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.name
	}
	return names
}

// LabFunc supplies the lab for lab-based studies, so planning or rendering
// a standalone study (scaling, sensitivity, straggler, hetero, environments
// — they assemble their own environments from the config) never builds one.
type LabFunc func() (*Lab, error)

// Plan is one study resolved against a config and a lab. Planning builds
// nothing: the lab, and a variant's environment and fitted model, are built
// the first time a cell needs them — a variant once per plan. A Plan is
// safe for concurrent use.
type Plan struct {
	s     *study
	cfg   Config
	nodes int
	labFn LabFunc

	variants []func() (variantPass, error)
	// suite is the Table I suite of cfg: the lab's, if a cell built the lab
	// first, so a merge that runs on the lab generates no second copy.
	suite func() ([]dag.SuiteInstance, error)
	// built is the lab labFn last returned, nil until a cell needed it.
	built atomic.Pointer[Lab]
}

// variantPass is a resolved variant: its pass and the suite it scores.
type variantPass struct {
	pass  pass
	suite []dag.SuiteInstance
}

// PlanStudy resolves a study by name. cfg drives the standalone studies;
// labFn supplies the lab of the others, whose cluster has nodes nodes.
func PlanStudy(name string, cfg Config, nodes int, labFn LabFunc) (*Plan, error) {
	for _, s := range studies {
		if s.name != name {
			continue
		}
		p := &Plan{s: s, cfg: cfg, nodes: nodes, labFn: labFn}
		p.suite = sync.OnceValues(func() ([]dag.SuiteInstance, error) {
			if l := p.built.Load(); l != nil {
				return l.Suite, nil
			}
			return dag.GenerateSuite(cfg.SuiteSeed)
		})
		if s.variants != nil {
			for v := range s.variants.variants {
				p.variants = append(p.variants, sync.OnceValues(func() (variantPass, error) { return p.variant(v) }))
			}
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of %v)", name, StudyNames())
}

// Study is the plan's study name.
func (p *Plan) Study() string { return p.s.name }

// NumCells is the number of independent cells.
func (p *Plan) NumCells() int {
	if p.s.serial != nil {
		return 1
	}
	return p.s.cells(p.nodes)
}

// RunCell executes cell i and returns its frame: a serial study's report,
// else the cell's float64s as little-endian IEEE-754 bits, so the merge
// reads back the very bits the cell computed.
func (p *Plan) RunCell(ctx context.Context, i int, _ *obs.Progress) ([]byte, error) {
	if i < 0 || i >= p.NumCells() {
		return nil, fmt.Errorf("experiments: %s has no cell %d", p.s.name, i)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.s.serial == nil {
		xs, err := p.s.cell(p, i)
		if err != nil {
			return nil, err
		}
		return encodeFloats(xs), nil
	}
	l, err := p.lab()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.s.serial(l, &buf); err != nil {
		return nil, err
	}
	// The serial study ignores ctx mid-run; never report a cancelled cell
	// as done.
	return buf.Bytes(), ctx.Err()
}

// Merge folds every cell's frame, in cell order, into the report.
func (p *Plan) Merge(frames [][]byte) (string, error) {
	if len(frames) != p.NumCells() {
		return "", fmt.Errorf("experiments: %s has %d cells, got %d frames", p.s.name, p.NumCells(), len(frames))
	}
	if p.s.serial != nil {
		return string(frames[0]), nil
	}
	cells, err := p.decode(frames)
	if err != nil {
		return "", err
	}
	var buf strings.Builder
	err = p.s.merge(p, cells, &buf)
	return buf.String(), err
}

func (p *Plan) decode(frames [][]byte) ([][]float64, error) {
	cells := make([][]float64, len(frames))
	for i, frame := range frames {
		var err error
		if cells[i], err = decodeFloats(frame, p.s.width(p.nodes)); err != nil {
			return nil, fmt.Errorf("experiments: %s cell %d: %w", p.s.name, i, err)
		}
	}
	return cells, nil
}

// Run executes every cell in process, fanned out over cfg.Parallelism
// workers, and merges them. Once ctx is done, cells that have not started
// are skipped and ctx.Err() is returned. prog (nil is fine) receives the
// cell total, and the cells as done once the report is.
func (p *Plan) Run(ctx context.Context, prog *obs.Progress) (string, error) {
	n := int64(p.NumCells())
	prog.AddCellsTotal(n)
	frames, err := p.frames(ctx)
	if err != nil {
		return "", err
	}
	out, err := p.Merge(frames)
	if err == nil {
		prog.AddCellsDone(n)
	}
	return out, err
}

// frames runs every cell in process.
func (p *Plan) frames(ctx context.Context) ([][]byte, error) {
	frames := make([][]byte, p.NumCells())
	err := ForEachCellCtx(ctx, p.cfg.Parallelism, len(frames), func(i int) (err error) {
		frames[i], err = p.RunCell(ctx, i, nil)
		return err
	})
	return frames, err
}

func (p *Plan) lab() (*Lab, error) {
	if p.labFn == nil {
		return nil, fmt.Errorf("experiments: %s needs a lab", p.s.name)
	}
	l, err := p.labFn()
	if err == nil {
		p.built.Store(l)
	}
	return l, err
}

// variant resolves variant v: its model on the lab's environment, or on its
// own ground truth behind a fresh emulator seeded with the plan's noise
// seed, and the suite it scores.
func (p *Plan) variant(v int) (variantPass, error) {
	def := p.s.variants.variants[v]
	if def.truth == nil {
		l, err := p.lab()
		if err != nil {
			return variantPass{}, err
		}
		model, err := def.model(p, l.Em)
		return variantPass{l.pass(model), l.Suite}, err
	}
	suite, err := p.suite()
	if err != nil {
		return variantPass{}, err
	}
	truth := def.truth()
	em, err := cluster.NewEmulator(truth, p.cfg.NoiseSeed)
	if err != nil {
		return variantPass{}, err
	}
	net, err := simgrid.NewNet(truth.Cluster)
	if err != nil {
		return variantPass{}, err
	}
	model, err := def.model(p, em)
	return variantPass{newPass(em, net, model, p.cfg.NoiseSeed, p.cfg.ExpTrials), suite}, err
}

// RenderStudy writes one study's report to w, aborting between cells once
// ctx is done. cfg drives the standalone studies; labFn supplies the lab
// for the rest, which run under the lab's own config.
func RenderStudy(ctx context.Context, name string, cfg Config, labFn LabFunc, w io.Writer) error {
	p, err := PlanStudy(name, cfg, 0, labFn)
	if err != nil {
		return err
	}
	if p.s.lab {
		l, err := labFn()
		if err != nil {
			return err
		}
		// A lab study runs under the lab's config, on the lab's cluster.
		p, _ = PlanStudy(name, l.Cfg, l.Cluster().Nodes, func() (*Lab, error) { return l, nil })
	}
	out, err := p.Run(ctx, nil)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// cells runs a lab study's cells on the lab, in process.
func (l *Lab) cells(name string) ([][]float64, error) {
	p, err := PlanStudy(name, l.Cfg, l.Cluster().Nodes, func() (*Lab, error) { return l, nil })
	if err != nil {
		return nil, err
	}
	frames, err := p.frames(l.context())
	if err != nil {
		return nil, err
	}
	return p.decode(frames)
}
