package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/robust"
	"repro/internal/service"
)

// mcWorkload is mc-study: Monte Carlo robustness jobs submitted to an
// in-memory Service (no HTTP, no store) by closed-loop submitters that each
// poll their own job. Every submitter cycles through three job kinds — the
// rescheduling trial loop, the prediction-only replay loop and the sequential
// stop rule — so the run always holds the same mix.
type mcWorkload struct {
	cfg  config
	svc  *service.Service
	jobs []mcJob // one per kind, in cycle order
}

// mcJob is one job kind with the report the in-memory engine produces for
// it, which the service's job must reproduce byte for byte.
type mcJob struct {
	kind      string
	spec      robust.Spec
	trialRuns int
	want      string
}

var mcKinds = []string{"resched", "replay", "sequential"}

const (
	jobTimeout = 60 * time.Second
	jobPoll    = 2 * time.Millisecond
)

// mcSpec is the robustness study every mc-study job runs: the seed's n=2000
// Table I suite on two platform sizes, HCPA vs MCPA under the analytic model,
// three noise levels.
func mcSpec(cfg config, kind string) robust.Spec {
	spec := robust.Spec{
		Spec: campaign.Spec{
			Name:       "bench-" + kind,
			Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{16, 32}},
			Workloads:  campaign.WorkloadAxis{SuiteSeeds: []int64{cfg.Seed}, Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 16, Seed: cfg.Seed, Levels: []float64{0.05, 0.2, 0.5}},
	}
	if cfg.Tiny {
		spec.Platforms.Nodes = []int{16}
		spec.Robustness.Trials = 2
		spec.Robustness.Levels = []float64{0.2}
	}
	spec.Robustness.PredictionOnly = kind == "replay"
	spec.Robustness.Sequential = kind == "sequential"
	return spec
}

func (w *mcWorkload) setup() error {
	ctx := context.Background()
	opts := service.DefaultOptions()
	eng := robust.Engine{Source: service.NewModelRegistry(opts.Profile, opts.Empirical)}
	w.jobs = nil
	for _, kind := range mcKinds {
		spec := mcSpec(w.cfg, kind)
		plan, err := spec.Plan()
		if err != nil {
			return err
		}
		res, err := eng.Run(ctx, spec)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		res.Write(&buf)
		w.jobs = append(w.jobs, mcJob{kind: kind, spec: spec, trialRuns: plan.TrialRuns(), want: buf.String()})
	}
	w.svc = service.New(opts)
	// Warm-up: one job of each kind fits the models and fills the pools.
	for i := range w.jobs {
		if _, ok := w.submit(i); !ok {
			return fmt.Errorf("warm-up %s job failed verification", w.jobs[i].kind)
		}
	}
	return nil
}

func (w *mcWorkload) teardown() {
	if w.svc != nil {
		_ = w.svc.Close(context.Background())
		w.svc = nil
	}
}

// waitJob polls a job's status until it is terminal.
func waitJob(svc *service.Service, id string, timeout time.Duration) (service.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, ok := svc.Jobs().Get(id)
		if !ok {
			return st, fmt.Errorf("job %s vanished", id)
		}
		switch st.State {
		case service.JobDone:
			return st, nil
		case service.JobFailed, service.JobCancelled:
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(jobPoll)
	}
}

// submit runs job kind i%3 to completion and verifies its report.
func (w *mcWorkload) submit(i int) (service.JobStatus, bool) {
	j := w.jobs[i%len(w.jobs)]
	st, err := w.svc.SubmitRobustness(j.spec)
	if err != nil {
		return st, false
	}
	st, err = waitJob(w.svc, st.ID, jobTimeout)
	return st, err == nil && st.Output == j.want
}

func (w *mcWorkload) run(d time.Duration, tr *tracer) (*runStats, error) {
	n := clients()
	// Client c starts its cycle at kind c, so the kinds overlap rather than
	// run in lockstep; the stride keeps every client on whole cycles.
	p := loop{Clients: n, D: d, Stride: len(w.jobs), Tracer: tr, Op: func(c, i int) (float64, bool) {
		k := i/n + c
		_, ok := w.submit(k)
		return float64(w.jobs[k%len(w.jobs)].trialRuns), ok
	}}.run()
	return &runStats{
		Ops:         p.ops(),
		Throughput:  p.ops() / p.Elapsed,
		LatenciesMS: p.latenciesMS(),
		TailQ:       0.75,
		Attempted:   p.Attempted,
		Failed:      p.Failed,
	}, nil
}

// walk replays jobs rung by rung: job through the service ⊃ robust.Engine.Run
// ⊃ {Prepare, every RunCellIndex, Merge}.
func (w *mcWorkload) walk(tr *tracer) (map[string]float64, error) {
	reps := 3
	if w.cfg.Tiny {
		reps = 1
	}
	ctx := context.Background()
	eng := &robust.Engine{Source: w.svc.Registry()}
	var queued, frames []float64
	request := 0
	for rep := 0; rep < reps; rep++ {
		for k, j := range w.jobs {
			var err error
			root := tr.do(request, 0, "job."+j.kind, func() {
				st, ok := w.submit(k)
				if !ok {
					err = fmt.Errorf("walked %s job failed verification", j.kind)
					return
				}
				queued = append(queued, st.Started.Sub(st.Created).Seconds()*1000)
			})
			run := tr.do(request, root, "robust.run", func() { _, err = eng.Run(ctx, j.spec) })
			var prep *robust.Prepared
			tr.do(request, run, "robust.prepare", func() {
				p, perr := eng.Prepare(j.spec)
				prep, err = p, firstErr(err, perr)
			})
			if err != nil {
				return nil, err
			}
			cells := make([]robust.CellResult, prep.NumCells())
			for i := range cells {
				tr.do(request, run, "robust.cell."+j.kind, func() {
					c, cerr := eng.RunCellIndex(ctx, prep, i, nil)
					cells[i], err = c, firstErr(err, cerr)
				})
				if err != nil {
					return nil, err
				}
				frame, ferr := robust.EncodeCell(cells[i])
				if ferr != nil {
					return nil, ferr
				}
				frames = append(frames, float64(len(frame)))
			}
			tr.do(request, run, "robust.merge", func() { _, err = robust.Merge(prep, cells) })
			if err != nil {
				return nil, err
			}
			request++
		}
	}
	perCell := func(k int) float64 {
		return float64(w.jobs[k].trialRuns) / float64(len(w.jobs[k].spec.Platforms.Nodes))
	}
	return map[string]float64{
		"robust.cell_resched_ms":     tr.med("robust.cell.resched") / ms,
		"robust.cell_replay_ms":      tr.med("robust.cell.replay") / ms,
		"robust.merge_ms":            tr.med("robust.merge") / ms,
		"robust.frame_bytes":         median(frames),
		"robust.resched_trialruns_s": perCell(0) / (tr.med("robust.cell.resched") / 1e9),
		"robust.replay_trialruns_s":  perCell(1) / (tr.med("robust.cell.replay") / 1e9),
		"service.job_queue_ms":       median(queued),
	}, nil
}
