package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/profiler"
	"repro/internal/robust"
	"repro/internal/sched"
	"repro/internal/service"
)

// cliWorkload is repro-cli: what `mixedsim all` and the façade do, in
// process and cold on every pass — assemble the lab (both fitting
// campaigns), render all 18 studies, then run the campaign, robustness and
// arrival worked examples against a fresh registry each. One op is one
// artefact: the lab, a rendered study or an engine report.
type cliWorkload struct {
	cfg  config
	arts []cliArtefact
	// lab is the current pass's lab; the "lab" artefact rebuilds it.
	lab *experiments.Lab
}

// cliArtefact is one op of a pass: make renders the artefact, want is the
// SHA-256 its bytes must have (empty for the lab, which renders nothing).
type cliArtefact struct {
	name string
	make func(ctx context.Context) ([]byte, error)
	want string
}

// paperArtefacts are the ten studies testdata/golden pins byte for byte.
var paperArtefacts = map[string]bool{"table1": true, "fig1": true, "fig2": true, "fig3": true, "fig4": true,
	"fig5": true, "fig6": true, "fig7": true, "fig8": true, "table2": true}

const (
	defaultSeed  = 2011
	expectedPath = "bench/testdata/expected.json"
	goldenDir    = "testdata/golden"
)

// The three worked examples, as golden_test.go and the docs spell them, with
// the benchmark seed choosing the workload: at the default seed they are the
// examples exactly, so their reports must equal the committed goldens.
func campaignExample(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:       "golden-campaign",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{8, 16}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}, SuiteSeeds: []int64{seed}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}
}

func robustnessExample(seed int64) robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "bayreuth-hcpa-mcpa-stability",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}, SuiteSeeds: []int64{seed}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 16, Levels: []float64{0.02, 0.05, 0.1, 0.2}},
	}
}

func arrivalExample(seed int64) arrival.Spec {
	return arrival.Spec{
		Name: "bayreuth-online-arrivals",
		Workloads: campaign.WorkloadAxis{
			Traces: []campaign.TraceRef{{Path: "testdata/traces/linalg-pipeline.dot"}},
			Shapes: []string{"strassen", "reduction"},
			Sizes:  []int{2000},
		},
		Algorithms:  []string{"HCPA", "MCPA"},
		Rate:        0.02,
		Jobs:        12,
		ArrivalSeed: 7 + seed - defaultSeed,
		Partition:   8,
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// render runs one study against the pass's lab.
func (w *cliWorkload) render(ctx context.Context, study string) ([]byte, error) {
	var buf bytes.Buffer
	labFn := func() (*experiments.Lab, error) { return w.lab, nil }
	err := experiments.RenderStudy(ctx, study, experiments.DefaultConfig(), labFn, &buf)
	return buf.Bytes(), err
}

func (w *cliWorkload) setup() error {
	studies := experiments.StudyNames()
	if w.cfg.Tiny {
		studies = []string{"table1", "fig2", "fig3", "fig4", "fig6", "table2", "shapes"}
	}
	expected, err := readExpected()
	if err != nil {
		return err
	}
	w.arts = []cliArtefact{{name: "lab", make: func(context.Context) ([]byte, error) {
		lab, err := experiments.NewLab(experiments.DefaultConfig())
		w.lab = lab
		return nil, err
	}}}
	for _, study := range studies {
		a := cliArtefact{name: study, make: func(ctx context.Context) ([]byte, error) { return w.render(ctx, study) }}
		if paperArtefacts[study] {
			golden, err := os.ReadFile(filepath.Join(goldenDir, study+".txt"))
			if err != nil {
				return err
			}
			a.want = digest(golden)
		} else if a.want = expected[study]; a.want == "" {
			return fmt.Errorf("%s has no entry for %s; run bench -update-expected", expectedPath, study)
		}
		w.arts = append(w.arts, a)
	}
	if w.cfg.Tiny {
		return nil
	}

	// The engine reports are checked differentially on any seed: the façade's
	// monolithic Run must equal the per-cell path (Prepare, every
	// RunCellIndex, Merge) the sharded cluster uses, computed here.
	ctx := context.Background()
	seed := w.cfg.Seed
	oracles, err := cellPathReports(ctx, seed)
	if err != nil {
		return err
	}
	engines := []cliArtefact{
		{name: "campaign", make: func(ctx context.Context) ([]byte, error) {
			return written(repro.RunCampaign(ctx, campaignExample(seed)))
		}},
		{name: "robustness", make: func(ctx context.Context) ([]byte, error) {
			return written(repro.RunRobustness(ctx, robustnessExample(seed)))
		}},
		{name: "arrival", make: func(ctx context.Context) ([]byte, error) {
			return written(repro.RunArrival(ctx, arrivalExample(seed)))
		}},
	}
	for i := range engines {
		engines[i].want = digest(oracles[i])
		if seed == defaultSeed {
			golden, err := os.ReadFile(filepath.Join(goldenDir, engines[i].name+"-example.txt"))
			if err != nil {
				return err
			}
			if !bytes.Equal(golden, oracles[i]) {
				return fmt.Errorf("the %s example's per-cell report differs from %s/%s-example.txt", engines[i].name, goldenDir, engines[i].name)
			}
		}
	}
	w.arts = append(w.arts, engines...)
	return nil
}

// written renders an engine result.
func written[R interface{ Write(io.Writer) }](res R, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	res.Write(&buf)
	return buf.Bytes(), nil
}

// viaCells renders one engine report through the per-cell path: every cell
// on its own, then the merge.
func viaCells[C any, R interface{ Write(io.Writer) }](n int, cell func(i int) (C, error), merge func([]C) (R, error)) ([]byte, error) {
	cells := make([]C, n)
	for i := range cells {
		var err error
		if cells[i], err = cell(i); err != nil {
			return nil, err
		}
	}
	return written(merge(cells))
}

// cellPathReports renders the three worked examples through
// Prepare/RunCellIndex/Merge against one shared registry.
func cellPathReports(ctx context.Context, seed int64) ([][]byte, error) {
	opts := service.DefaultOptions()
	reg := service.NewModelRegistry(opts.Profile, opts.Empirical)

	ceng := &campaign.Engine{Source: reg}
	cp, err := ceng.Prepare(campaignExample(seed))
	if err != nil {
		return nil, err
	}
	camp, err := viaCells(cp.NumCells(),
		func(i int) (campaign.CellScore, error) { return ceng.RunCellIndex(ctx, cp, i) },
		func(cells []campaign.CellScore) (*campaign.Result, error) { return campaign.Merge(cp, cells) })
	if err != nil {
		return nil, err
	}

	reng := &robust.Engine{Source: reg}
	rp, err := reng.Prepare(robustnessExample(seed))
	if err != nil {
		return nil, err
	}
	rob, err := viaCells(rp.NumCells(),
		func(i int) (robust.CellResult, error) { return reng.RunCellIndex(ctx, rp, i, nil) },
		func(cells []robust.CellResult) (*robust.Result, error) { return robust.Merge(rp, cells) })
	if err != nil {
		return nil, err
	}

	aeng := &arrival.Engine{Source: reg}
	ap, err := aeng.Prepare(arrivalExample(seed))
	if err != nil {
		return nil, err
	}
	arr, err := viaCells(ap.NumCells(),
		func(i int) (arrival.CellJobs, error) { return aeng.RunCellIndex(ctx, ap, i) },
		func(cells []arrival.CellJobs) (*arrival.Result, error) { return arrival.Merge(ap, cells) })
	if err != nil {
		return nil, err
	}
	return [][]byte{camp, rob, arr}, nil
}

func (w *cliWorkload) teardown() { w.lab = nil }

// op makes artefact i of the current pass and verifies its bytes.
func (w *cliWorkload) op(ctx context.Context, i int) bool {
	a := w.arts[i%len(w.arts)]
	out, err := a.make(ctx)
	return err == nil && (a.want == "" || digest(out) == a.want)
}

func (w *cliWorkload) run(d time.Duration, tr *tracer) (*runStats, error) {
	ctx := context.Background()
	// One client: a pass is sequential, the studies inside it fan out over
	// one worker per CPU by themselves. The stride ends the run on a whole
	// pass.
	p := loop{Clients: 1, D: d, Stride: len(w.arts), Tracer: tr,
		Op: func(_, i int) (float64, bool) { return 1, w.op(ctx, i) }}.run()
	return &runStats{
		Ops:         p.ops(),
		Throughput:  p.ops() / p.Elapsed,
		LatenciesMS: p.latenciesMS(),
		TailQ:       0.9,
		Attempted:   p.Attempted,
		Failed:      p.Failed,
	}, nil
}

// walk times three more passes with one span per artefact inside a pass
// span, walks the campaign and arrival examples down to their cells, and
// probes the fitting and emulation layers only this workload leans on.
func (w *cliWorkload) walk(tr *tracer) (map[string]float64, error) {
	passes, n, batch := 3, 20, 1000
	if w.cfg.Tiny {
		passes, n, batch = 1, 2, 10
	}
	ctx := context.Background()
	var rest []float64
	for pass := 0; pass < passes; pass++ {
		var err error
		var other float64
		tr.nest(pass, 0, "pass", func(root int) {
			for i, a := range w.arts {
				name := "experiments.study." + a.name
				if a.name == "lab" {
					name = "experiments.newlab"
				}
				id := tr.do(pass, root, name, func() {
					if !w.op(ctx, i) {
						err = fmt.Errorf("walked artefact %s failed verification", a.name)
					}
				})
				switch a.name {
				case "lab", "fig1", "ablation", "scaling", "sensitivity", "campaign", "robustness", "arrival":
				default:
					other += float64(tr.spans[id-1].dur())
				}
			}
		})
		if err != nil {
			return nil, err
		}
		rest = append(rest, other)
	}
	out := map[string]float64{
		"experiments.newlab_ms":            tr.med("experiments.newlab") / ms,
		"experiments.study_ms.fig1":        tr.med("experiments.study.fig1") / ms,
		"experiments.study_ms.ablation":    tr.med("experiments.study.ablation") / ms,
		"experiments.study_ms.scaling":     tr.med("experiments.study.scaling") / ms,
		"experiments.study_ms.sensitivity": tr.med("experiments.study.sensitivity") / ms,
		"experiments.study_ms.rest":        median(rest) / ms,
	}

	// The paper's own result, which no speed-up may move (the goldens pin it;
	// these two numbers make it visible).
	lab := w.lab
	wrong := 0
	for _, size := range []int{2000, 3000} {
		c, err := lab.CompareHCPAMCPA("analytic", size)
		if err != nil {
			return nil, err
		}
		wrong += c.Mispredicted
	}
	out["experiments.winner_mispredictions"] = float64(wrong)
	boxes, err := lab.Figure8()
	if err != nil {
		return nil, err
	}
	for _, b := range boxes {
		if b.Model == "empirical" && b.Algo == "HCPA" {
			out["experiments.makespan_err_median_pct"] = b.Box.Median
		}
	}

	// Fitting and emulation, on the paper's environment.
	cfg := experiments.DefaultConfig()
	out["profiler.fit_profile_ms"] = probe(tr, "profiler.fit_profile", n, 1, func() {
		em, eerr := cluster.NewEmulator(cluster.Bayreuth(), cfg.NoiseSeed)
		if err = firstErr(err, eerr); err == nil {
			_, err = profiler.BuildProfileModel(em, cfg.Profile)
		}
	}) / ms
	out["profiler.fit_empirical_ms"] = probe(tr, "profiler.fit_empirical", n, 1, func() {
		em, eerr := cluster.NewEmulator(cluster.Bayreuth(), cfg.NoiseSeed)
		if err = firstErr(err, eerr); err == nil {
			_, err = profiler.BuildEmpiricalModel(em, cfg.Empirical)
		}
	}) / ms
	if err != nil {
		return nil, err
	}
	g := lab.Suite[0].Graph
	task, p := g.Task(0), 0
	out["perfmodel.tasktime_ns"] = probe(tr, "perfmodel.tasktime", 10*n, batch, func() {
		p = p%lab.Cluster().Nodes + 1
		sinkFloat = lab.Analytic.TaskTime(task, p)
	})
	schedule, err := sched.Build(sched.HCPA{}, g, lab.Cluster().Nodes,
		perfmodel.CostFunc(lab.Analytic), perfmodel.CommFunc(lab.Analytic, lab.Cluster()))
	if err != nil {
		return nil, err
	}
	out["cluster.execute_us"] = probe(tr, "cluster.execute", 10*n, 1, func() { _, err = lab.Em.Execute(schedule) }) / us
	if err != nil || w.cfg.Tiny {
		return out, err
	}

	// Campaign and arrival ladders: Run ⊃ {Prepare, every cell, Merge}.
	opts := service.DefaultOptions()
	reg := service.NewModelRegistry(opts.Profile, opts.Empirical)
	ceng := &campaign.Engine{Source: reg}
	aeng := &arrival.Engine{Source: reg}
	cspec, aspec := campaignExample(w.cfg.Seed), arrivalExample(w.cfg.Seed)
	var frames []float64
	for rep := 0; rep < n/2; rep++ {
		root := tr.do(rep, 0, "campaign.run", func() { _, err = ceng.Run(ctx, cspec) })
		var cp *campaign.Prepared
		tr.do(rep, root, "campaign.prepare", func() {
			prep, perr := ceng.Prepare(cspec)
			cp, err = prep, firstErr(err, perr)
		})
		if err != nil {
			return nil, err
		}
		cells := make([]campaign.CellScore, cp.NumCells())
		for i := range cells {
			tr.do(rep, root, "campaign.cell", func() {
				c, cerr := ceng.RunCellIndex(ctx, cp, i)
				cells[i], err = c, firstErr(err, cerr)
			})
			if err != nil {
				return nil, err
			}
			frame, ferr := campaign.EncodeCell(cells[i])
			if ferr != nil {
				return nil, ferr
			}
			frames = append(frames, float64(len(frame)))
		}
		tr.do(rep, root, "campaign.merge", func() { _, err = campaign.Merge(cp, cells) })

		root = tr.do(rep, 0, "arrival.run", func() { _, err = aeng.Run(ctx, aspec) })
		var ap *arrival.Prepared
		tr.do(rep, root, "arrival.prepare", func() {
			prep, perr := aeng.Prepare(aspec)
			ap, err = prep, firstErr(err, perr)
		})
		if err != nil {
			return nil, err
		}
		acells := make([]arrival.CellJobs, ap.NumCells())
		for i := range acells {
			tr.do(rep, root, "arrival.cell", func() {
				c, cerr := aeng.RunCellIndex(ctx, ap, i)
				acells[i], err = c, firstErr(err, cerr)
			})
		}
		tr.do(rep, root, "arrival.merge", func() {
			_, merr := arrival.Merge(ap, acells)
			err = firstErr(err, merr)
		})
		if err != nil {
			return nil, err
		}
	}
	out["campaign.prepare_ms"] = tr.med("campaign.prepare") / ms
	out["campaign.cell_ms"] = tr.med("campaign.cell") / ms
	out["campaign.merge_ms"] = tr.med("campaign.merge") / ms
	out["campaign.frame_bytes"] = median(frames)
	out["arrival.prepare_ms"] = tr.med("arrival.prepare") / ms
	out["arrival.cell_ms"] = tr.med("arrival.cell") / ms
	out["arrival.merge_ms"] = tr.med("arrival.merge") / ms
	return out, nil
}

// sinkFloat keeps the compiler from discarding a probed pure call.
var sinkFloat float64

// readExpected loads the committed digests of the artefacts testdata/golden
// does not cover.
func readExpected() (map[string]string, error) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Studies map[string]string `json:"studies"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return doc.Studies, nil
}

// updateExpected re-renders every study without a golden and rewrites the
// digest file.
func updateExpected() error {
	w := &cliWorkload{}
	lab, err := experiments.NewLab(experiments.DefaultConfig())
	if err != nil {
		return err
	}
	w.lab = lab
	studies := map[string]string{}
	for _, study := range experiments.StudyNames() {
		if paperArtefacts[study] {
			continue
		}
		out, err := w.render(context.Background(), study)
		if err != nil {
			return err
		}
		studies[study] = digest(out)
	}
	data, err := json.MarshalIndent(map[string]any{"studies": studies}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}
