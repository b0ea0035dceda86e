package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/service"
	"repro/internal/store"
)

// clusterWorkload is cluster-durable: two in-process replicas, each with its
// own handle on one store directory, so every job and every cell goes
// through the lease/claim/complete/fsync protocol and its flock. Phase A
// submits sharded jobs of many tiny cells one at a time (a 96-cell campaign,
// a 32-cell robustness study, a 6-cell arrival scenario); phase B has
// closed-loop submitters pushing table1 study jobs, each polling its own job
// with plain status reads (never the 150 ms long-poll). One op is one durable
// unit — a cell or a job.
type clusterWorkload struct {
	cfg      config
	dir      string
	mem      *service.Service // in-memory twin: the oracle and the no-store baseline
	replicas []*service.Service
	stores   []*store.Store
	sharded  []clusterJob
	study    clusterJob
	think    []*rand.Rand // per submitter, seeded
	cycles   int          // phase A cycles so far
}

// clusterJob is one job kind: how to submit it to a replica, how to run it
// with no store at all, how many cells it shards into, and the report both
// paths must produce byte for byte.
type clusterJob struct {
	kind   string
	cells  int
	submit func(s *service.Service) (service.JobStatus, error)
	direct func(ctx context.Context, s *service.Service) (string, error)
	want   string
}

const (
	// claimTick is the cadence at which an idle replica looks for new work
	// (claimWake in internal/service).
	claimTick = 10 * time.Millisecond
	leaseTTL  = 10 * time.Second
	// retainAll keeps every job the run submits, so a status poll never
	// finds its job pruned by compaction.
	retainAll = 1 << 20
)

// clusterSpecs builds the three sharded jobs from the seed: tiny cells, so
// the store protocol rather than the engines sets the pace.
func clusterSpecs(cfg config) (campaign.Spec, robust.Spec, arrival.Spec) {
	nodes := make([]int, 0, 32)
	for n := 4; n < 36; n++ {
		nodes = append(nodes, n)
	}
	algos := []string{"CPA", "HCPA", "MCPA", "MHEFT", "SEQ", "DATAPAR"}
	if cfg.Tiny {
		nodes, algos = nodes[:3], algos[:2]
	}
	camp := campaign.Spec{
		Name:      "bench-cells",
		Seed:      cfg.Seed,
		Platforms: campaign.PlatformAxis{Base: "bayreuth", Nodes: nodes},
		Workloads: campaign.WorkloadAxis{Shapes: []string{"chain", "diamond", "forkjoin"}, Sizes: []int{2000}},
	}
	rob := robust.Spec{
		Spec: campaign.Spec{
			Name:      "bench-trials",
			Seed:      cfg.Seed,
			Platforms: campaign.PlatformAxis{Base: "bayreuth", Nodes: nodes},
			Workloads: campaign.WorkloadAxis{Shapes: []string{"diamond"}, Sizes: []int{2000}},
		},
		Robustness: robust.Axis{Trials: 2, Levels: []float64{0.2}},
	}
	arr := arrival.Spec{
		Name:        "bench-arrivals",
		Seed:        cfg.Seed,
		Algorithms:  algos,
		Workloads:   campaign.WorkloadAxis{Shapes: []string{"chain", "diamond"}, Sizes: []int{2000}},
		Jobs:        12,
		ArrivalSeed: cfg.Seed,
		Partition:   8,
	}
	return camp, rob, arr
}

func (w *clusterWorkload) setup() error {
	ctx := context.Background()
	camp, rob, arr := clusterSpecs(w.cfg)
	study := service.StudyRequest{Study: "table1", Environment: "bayreuth", SuiteSeed: w.cfg.Seed}
	w.sharded = []clusterJob{
		{kind: "campaign", cells: len(camp.Platforms.Nodes) * len(camp.Workloads.Shapes),
			submit: func(s *service.Service) (service.JobStatus, error) { return s.SubmitCampaign(camp) },
			direct: func(ctx context.Context, s *service.Service) (string, error) { return s.RunCampaign(ctx, camp) }},
		{kind: "robustness", cells: len(rob.Platforms.Nodes),
			submit: func(s *service.Service) (service.JobStatus, error) { return s.SubmitRobustness(rob) },
			direct: func(ctx context.Context, s *service.Service) (string, error) { return s.RunRobustness(ctx, rob) }},
		{kind: "arrival", cells: len(arr.Algorithms),
			submit: func(s *service.Service) (service.JobStatus, error) { return s.SubmitArrival(arr) },
			direct: func(ctx context.Context, s *service.Service) (string, error) { return s.RunArrival(ctx, arr) }},
	}
	w.study = clusterJob{kind: "table1",
		submit: func(s *service.Service) (service.JobStatus, error) { return s.SubmitStudy(study) },
		direct: func(ctx context.Context, s *service.Service) (string, error) { return s.RunStudy(ctx, study) }}

	w.think = nil
	for c := 0; c < clients(); c++ {
		w.think = append(w.think, rand.New(rand.NewSource(w.cfg.Seed+int64(c))))
	}

	w.mem = service.New(service.DefaultOptions())
	for _, j := range append([]*clusterJob{&w.study}, &w.sharded[0], &w.sharded[1], &w.sharded[2]) {
		var err error
		if j.want, err = j.direct(ctx, w.mem); err != nil {
			return fmt.Errorf("in-memory %s: %w", j.kind, err)
		}
	}

	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.TmpDir, "bench-store-"); err != nil {
		return err
	}
	for _, id := range []string{"a", "b"} {
		st, err := store.Open(w.dir, store.Options{})
		if err != nil {
			return err
		}
		w.stores = append(w.stores, st)
		w.replicas = append(w.replicas, service.New(service.Options{
			Store: st, ReplicaID: id, LeaseTTL: leaseTTL, Retain: retainAll}))
	}
	// Warm-up: every job kind once through each replica.
	for r := range w.replicas {
		for _, j := range append(w.sharded, w.study) {
			if _, ok := w.do(r, j); !ok {
				return fmt.Errorf("warm-up %s job on replica %d failed verification", j.kind, r)
			}
		}
	}
	return nil
}

func (w *clusterWorkload) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range w.replicas {
		_ = s.Close(ctx)
	}
	for _, st := range w.stores {
		_ = st.Close()
	}
	if w.mem != nil {
		_ = w.mem.Close(ctx)
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
	w.replicas, w.stores, w.mem, w.dir = nil, nil, nil, ""
}

// do submits one job to a replica, polls that replica until the job is
// terminal and verifies the report.
func (w *clusterWorkload) do(replica int, j clusterJob) (service.JobStatus, bool) {
	s := w.replicas[replica%len(w.replicas)]
	st, err := j.submit(s)
	if err != nil {
		return st, false
	}
	st, err = waitJob(s, st.ID, jobTimeout)
	return st, err == nil && st.Output == j.want
}

func (w *clusterWorkload) run(d time.Duration, tr *tracer) (*runStats, error) {
	// Phase A: one submitter, one cycle of the three sharded jobs, the
	// coordinating replica alternating from cycle to cycle.
	w.cycles++
	a := loop{Clients: 1, Stride: len(w.sharded), Tracer: tr, Op: func(_, i int) (float64, bool) {
		j := w.sharded[i%len(w.sharded)]
		_, ok := w.do(w.cycles, j)
		return float64(j.cells), ok
	}}.run()
	// Phase B, for the rest of d: one submitter per client, each on its own
	// replica. An idle replica notices new work on a 10 ms tick, so a job's
	// latency depends on where in the tick it was submitted; submitters that
	// resubmit the instant their last job ended lock onto the ticks in a way
	// that differs from one instance to the next. A seeded think time of up
	// to one tick before each submission spreads the submissions over the
	// tick instead.
	b := loop{Clients: clients(), D: d - time.Duration(a.Elapsed*float64(time.Second)), Stride: 1, Tracer: tr,
		Think: func(c int) time.Duration { return time.Duration(w.think[c].Float64() * float64(claimTick)) },
		Op: func(c, _ int) (float64, bool) {
			_, ok := w.do(c, w.study)
			return 1, ok
		}}.run()
	if a.ops() == 0 || b.ops() == 0 {
		return nil, fmt.Errorf("a phase completed nothing (%g cells, %g jobs)", a.ops(), b.ops())
	}
	// Cells and jobs cost differently, so the combined rate is taken for a
	// fixed mix — as many cells as jobs — not for whatever mix the clock
	// happened to cut.
	cellRate, jobRate := a.ops()/a.Elapsed, b.ops()/b.Elapsed
	return &runStats{
		Ops:         a.ops() + b.ops(),
		Throughput:  2 / (1/cellRate + 1/jobRate),
		LatenciesMS: b.latenciesMS(),
		TailQ:       0.95,
		Attempted:   a.Attempted + b.Attempted,
		Failed:      a.Failed + b.Failed,
	}, nil
}

// walk has three parts: durable jobs against their in-memory twins, the
// benchmark replaying the job and cell protocol itself against a scratch
// store (the rungs below a durable job), and the store scaling probe.
func (w *clusterWorkload) walk(tr *tracer) (map[string]float64, error) {
	reps, n := 5, 200
	if w.cfg.Tiny {
		reps, n = 1, 3
	}
	ctx := context.Background()
	out := map[string]float64{}

	scratch, err := os.MkdirTemp(w.cfg.TmpDir, "bench-protocol-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	st, err := store.Open(scratch, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	camp, _, _ := clusterSpecs(w.cfg)
	campJob := w.sharded[0]
	var walPerCell, syncsPerCell []float64
	request := 0
	for rep := 0; rep < reps; rep++ {
		// The sharded ladder: durable job ⊃ protocol replay ⊃ store calls,
		// cells, merge.
		root, err := w.walkJob(tr, request, rep, campJob)
		if err != nil {
			return nil, err
		}
		walBytes, syncs, err := replayCells(ctx, tr, request, root, st, camp, campJob.want)
		if err != nil {
			return nil, err
		}
		walPerCell, syncsPerCell = append(walPerCell, walBytes), append(syncsPerCell, syncs)
		request++
		for _, j := range w.sharded[1:] {
			if _, err := w.walkJob(tr, request, rep, j); err != nil {
				return nil, err
			}
			request++
		}
	}
	for rep := 0; rep < 8*reps; rep++ {
		// The job ladder: durable study job ⊃ protocol replay ⊃ submit,
		// claim, run, complete.
		root, err := w.walkJob(tr, request, rep, w.study)
		if err != nil {
			return nil, err
		}
		if err := w.replayJob(ctx, tr, request, root, st); err != nil {
			return nil, err
		}
		request++
	}
	out["store.wal_bytes_per_cell"], out["store.fsyncs_per_cell"] = median(walPerCell), median(syncsPerCell)
	cells := float64(campJob.cells)
	out["service.durable.cell_overhead_ms"] = (tr.med("durable.job.campaign") - tr.med("inmem.run.campaign")) / ms / cells
	out["service.durable.job_overhead_ms"] = (tr.med("durable.job.table1") - tr.med("inmem.run.table1")) / ms
	out["service.durable.protocol_share"] = tr.total("store.submit", "store.claim", "store.plan_cells", "store.claim_cell",
		"store.complete_cell_and_claim", "store.cell_results", "store.complete") / tr.total("protocol.replay")
	for name, metric := range map[string]string{
		"store.submit": "store.submit_us", "store.claim": "store.claim_us", "store.complete": "store.complete_us",
		"store.plan_cells": "store.plan_cells_us", "store.claim_cell": "store.claim_cell_us",
		"store.complete_cell_and_claim": "store.complete_cell_and_claim_us", "store.cell_results": "store.cell_results_us",
	} {
		out[metric] = tr.med(name) / us
	}

	// Reads and renewals against a live job, on the scratch handle and
	// through a replica.
	rec, err := st.SubmitJob("table1", []byte(`{"study":"table1"}`))
	if err != nil {
		return nil, err
	}
	if _, _, err := st.Claim("p", leaseTTL); err != nil {
		return nil, err
	}
	out["store.job_read_us"] = probe(tr, "store.job_read", n, 1, func() { _, _, err = st.Job(rec.ID) }) / us
	out["store.renew_us"] = probe(tr, "store.renew", n, 1, func() { err = firstErr(err, st.Renew(rec.ID, "p", leaseTTL, nil)) }) / us
	if err != nil {
		return nil, err
	}
	done, ok := w.do(0, w.study)
	if !ok {
		return nil, fmt.Errorf("status-read job failed verification")
	}
	out["service.durable.status_get_us"] = probe(tr, "service.durable.status_get", n, 1, func() { w.replicas[1].Jobs().Get(done.ID) }) / us

	if out["service.durable.cell_split_share"], err = w.cellSplit(campJob, reps); err != nil {
		return nil, err
	}
	if err := w.storeScaling(tr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// walkJob records one durable job as the outermost rung, and the same job
// with no store (the in-memory twin) beside it.
func (w *clusterWorkload) walkJob(tr *tracer, request, replica int, j clusterJob) (int, error) {
	var err error
	root := tr.do(request, 0, "durable.job."+j.kind, func() {
		if _, ok := w.do(replica, j); !ok {
			err = fmt.Errorf("walked %s job failed verification", j.kind)
		}
	})
	tr.do(request, standalone, "inmem.run."+j.kind, func() {
		out, derr := j.direct(context.Background(), w.mem)
		if err = firstErr(err, derr); err == nil && out != j.want {
			err = fmt.Errorf("in-memory %s report changed between runs", j.kind)
		}
	})
	return root, err
}

// replayCells plays the coordinator and the only worker of one sharded
// campaign against the scratch store, one span per protocol call and per
// cell, and checks the merged report. It returns the log bytes and the
// fsyncs the job cost per cell.
func replayCells(ctx context.Context, tr *tracer, request, parent int, st *store.Store, spec campaign.Spec, want string) (walBytes, syncs float64, err error) {
	opts := service.DefaultOptions()
	eng := &campaign.Engine{Source: service.NewModelRegistry(opts.Profile, opts.Empirical)}
	prep, err := eng.Prepare(spec)
	if err != nil {
		return 0, 0, err
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	wal0, err := st.WALSize()
	if err != nil {
		return 0, 0, err
	}
	syncs0 := fsyncCount()
	var report string
	tr.nest(request, parent, "protocol.replay", func(id int) {
		do := func(name string, fn func() error) {
			tr.do(request, id, name, func() { err = firstErr(err, fn()) })
		}
		var job store.JobRecord
		do("store.submit", func() (e error) { job, e = st.SubmitJob("campaign:"+spec.Name, payload); return })
		do("store.claim", func() (e error) { _, _, e = st.Claim("p", leaseTTL); return })
		do("store.plan_cells", func() error { return st.PlanCells(job.ID, prep.NumCells()) })
		var cell store.CellRecord
		more := false
		do("store.claim_cell", func() (e error) { cell, more, e = st.ClaimCell("p", leaseTTL, job.ID); return })
		for more && err == nil {
			var frame []byte
			do("cell.run", func() error {
				score, e := eng.RunCellIndex(ctx, prep, cell.Index)
				if e != nil {
					return e
				}
				frame, e = campaign.EncodeCell(score)
				return e
			})
			do("store.complete_cell_and_claim", func() (e error) {
				cell, more, e = st.CompleteCellAndClaim(job.ID, cell.Index, "p", frame, "", nil, true, job.ID, leaseTTL)
				return
			})
		}
		var frames [][]byte
		do("store.cell_results", func() (e error) { frames, e = st.CellResults(job.ID); return })
		do("cell.merge", func() error {
			cells := make([]campaign.CellScore, len(frames))
			for i, f := range frames {
				c, e := campaign.DecodeCell(f)
				if e != nil {
					return e
				}
				cells[i] = c
			}
			res, e := campaign.Merge(prep, cells)
			if e != nil {
				return e
			}
			var buf bytes.Buffer
			res.Write(&buf)
			report = buf.String()
			return nil
		})
		do("store.complete", func() error { return st.Complete(job.ID, "p", report, nil) })
	})
	if err != nil {
		return 0, 0, err
	}
	if report != want {
		return 0, 0, fmt.Errorf("replayed cell protocol produced a different campaign report")
	}
	wal1, err := st.WALSize()
	if err != nil {
		return 0, 0, err
	}
	cells := float64(prep.NumCells())
	return float64(wal1-wal0) / cells, (fsyncCount() - syncs0) / cells, nil
}

// replayJob plays one unsharded study job against the scratch store.
func (w *clusterWorkload) replayJob(ctx context.Context, tr *tracer, request, parent int, st *store.Store) error {
	var err error
	tr.nest(request, parent, "protocol.replay", func(id int) {
		do := func(name string, fn func() error) {
			tr.do(request, id, name, func() { err = firstErr(err, fn()) })
		}
		var job store.JobRecord
		var report string
		do("store.submit", func() (e error) { job, e = st.SubmitJob("table1", []byte(`{"study":"table1"}`)); return })
		do("store.claim", func() (e error) { _, _, e = st.Claim("p", leaseTTL); return })
		do("job.run", func() (e error) { report, e = w.study.direct(ctx, w.mem); return })
		do("store.complete", func() error { return st.Complete(job.ID, "p", report, nil) })
	})
	return err
}

// fsyncCount reads the store's fsync counter off the process's metrics page.
func fsyncCount() float64 {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "repro_store_fsync_seconds_count "); ok {
			v, _ := strconv.ParseFloat(rest, 64) // 0 if the page ever changes shape
			return v
		}
	}
	return 0
}

// cellSplit is the share of a sharded campaign's cells run by the replica
// that did not coordinate it, read from the cell plan's holders through a
// third handle while the job runs (the plan is dropped once the job ends).
func (w *clusterWorkload) cellSplit(j clusterJob, reps int) (float64, error) {
	watch, err := store.Open(w.dir, store.Options{})
	if err != nil {
		return 0, err
	}
	defer watch.Close()
	var shares []float64
	for rep := 0; rep < reps; rep++ {
		s := w.replicas[rep%len(w.replicas)]
		st, err := j.submit(s)
		if err != nil {
			return 0, err
		}
		var last []store.CellRecord
		for {
			if cells, ok, err := watch.Cells(st.ID); err == nil && ok {
				last = cells
			}
			cur, ok := s.Jobs().Get(st.ID)
			if !ok || cur.State == service.JobFailed || cur.State == service.JobCancelled {
				return 0, fmt.Errorf("split job %s did not finish: %s", st.ID, cur.Error)
			}
			if cur.State == service.JobDone {
				st = cur
				break
			}
			time.Sleep(jobPoll)
		}
		other := 0
		for _, c := range last {
			if c.Holder != "" && c.Holder != st.Replica {
				other++
			}
		}
		if len(last) > 0 {
			shares = append(shares, float64(other)/float64(len(last)))
		}
	}
	if len(shares) == 0 {
		return 0, nil
	}
	return median(shares), nil
}

// storeScaling is the flock-wall measurement: how long a handle takes to
// catch up on 1 k and 10 k frames other handles wrote, to open and to compact
// a 10 k-frame log, and what a claim costs with 2 and 8 handles contending
// for the lock — all through store.Open and the public operations. The
// latencies are this sandbox's page cache, not a device's.
func (w *clusterWorkload) storeScaling(tr *tracer, out map[string]float64) error {
	small, large, late := 1000, 10000, 3
	if w.cfg.Tiny {
		small, large, late = 30, 60, 1
	}
	dir, err := os.MkdirTemp(w.cfg.TmpDir, "bench-scaling-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*store.Store, error) { return store.Open(dir, store.Options{}) }
	writer, err := open()
	if err != nil {
		return err
	}
	defer writer.Close()
	// Handles opened on the empty store and left idle: each one's first
	// operation later replays everything written meanwhile.
	var idleSmall, idleLarge []*store.Store
	for i := 0; i < late; i++ {
		for _, list := range []*[]*store.Store{&idleSmall, &idleLarge} {
			h, err := open()
			if err != nil {
				return err
			}
			defer h.Close()
			*list = append(*list, h)
		}
	}
	// One job's life is three frames: submit, claim, complete.
	frames := 0
	fill := func(upTo int) error {
		for ; frames < upTo; frames += 3 {
			rec, err := writer.SubmitJob("table1", []byte(`{"study":"table1"}`))
			if err != nil {
				return err
			}
			if _, _, err := writer.Claim("w", leaseTTL); err != nil {
				return err
			}
			if err := writer.Complete(rec.ID, "w", "done", nil); err != nil {
				return err
			}
		}
		return nil
	}
	catchUp := func(name string, idle []*store.Store) float64 {
		for i, h := range idle {
			tr.do(i, standalone, name, func() { _, _, err = h.Job("none") })
		}
		return tr.med(name) / ms
	}
	if err := fill(small); err != nil {
		return err
	}
	out["store.refresh_1k_ms"] = catchUp("store.refresh_1k", idleSmall)
	if err := firstErr(err, fill(large)); err != nil {
		return err
	}
	out["store.refresh_10k_ms"] = catchUp("store.refresh_10k", idleLarge)
	out["store.open_10k_ms"] = probe(tr, "store.open_10k", late, 1, func() {
		h, oerr := open()
		if err = firstErr(err, oerr); oerr == nil {
			_ = h.Close()
		}
	}) / ms
	out["store.compact_10k_ms"] = probe(tr, "store.compact_10k", 1, 1, func() { err = firstErr(err, writer.Compact(64)) }) / ms
	if err != nil {
		return err
	}

	for _, handles := range []int{2, 8} {
		claims := 400 / handles
		if w.cfg.Tiny {
			claims = 2
		}
		name := fmt.Sprintf("store.claim_%dhandles", handles)
		for i := 0; i < handles*claims; i++ {
			if _, err := writer.SubmitJob("table1", nil); err != nil {
				return err
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, handles)
		for h := 0; h < handles; h++ {
			hs, err := open()
			if err != nil {
				return err
			}
			defer hs.Close()
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for i := 0; i < claims; i++ {
					tr.do(i, standalone, name, func() {
						if _, ok, err := hs.Claim(filepath.Base(name)+strconv.Itoa(h), leaseTTL); err != nil || !ok {
							errs[h] = fmt.Errorf("claim %d on handle %d: claimed=%v err=%v", i, h, ok, err)
						}
					})
				}
			}(h)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		out[fmt.Sprintf("store.claim_us_%dhandles", handles)] = tr.med(name) / us
	}
	return nil
}
