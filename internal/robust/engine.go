package robust

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/stats"
	"repro/internal/tgrid"
)

// Robustness telemetry: Monte Carlo cells and trials (split by whether the
// trial replayed the base schedule or rescheduled from scratch), trials the
// sequential stop rule saved against the budget, and runner-pool traffic.
// All updates are batched per (instance, level) outside the trial loop —
// the loop itself stays allocation-free and contention-free — and nothing
// the engine reports feeds back into its results.
var (
	robustCellsCompleted = obs.Default.Counter("repro_robust_cells_completed_total",
		"Monte Carlo stability cells fully aggregated.")
	trialsReplay = obs.Default.Counter("repro_robust_trials_total",
		"Monte Carlo perturbation trials executed, by mode.", obs.L("mode", "replay"))
	trialsResched = obs.Default.Counter("repro_robust_trials_total",
		"Monte Carlo perturbation trials executed, by mode.", obs.L("mode", "resched"))
	trialsSaved = obs.Default.Counter("repro_robust_trials_saved_total",
		"Trials the sequential stop rule saved against the full budget.")
	runnerAcquires = obs.Default.Counter("repro_pool_acquires_total",
		"Pool acquisitions, by pool.", obs.L("pool", "robust_runner"))
	runnerReleases = obs.Default.Counter("repro_pool_releases_total",
		"Pool releases, by pool.", obs.L("pool", "robust_runner"))
	runnerNews = obs.Default.Counter("repro_pool_news_total",
		"Pool misses that built a fresh object, by pool.", obs.L("pool", "robust_runner"))
	surfaceOverflows = obs.Default.Counter("repro_robust_surface_overflows_total",
		"Perturbed-model error-surface draws that bypassed a full per-trial table.")
)

// fragileLimit caps the per-pair "most fragile instances" table.
const fragileLimit = 10

// Engine executes robustness plans cell by cell: each grid cell is scored as
// its base campaign cell (with per-instance makespans and schedules retained
// only until the cell is done), then put through the Monte Carlo stage — R
// seeded perturbation draws per noise level, each re-scheduling and
// re-simulating all axis algorithms under a perturbed model and platform —
// and aggregated into winner-stability statistics against the base simulated
// winners.
//
// The trial loop is allocation-free at steady state: schedules are built in
// pooled scratch storage (sched.Scratch), every simulation is a schedule
// replay over recycled engine state (tgrid.Replayer), and when the draws
// provably cannot change any scheduler input — prediction-only specs, or
// noise the bound model is invariant under — the base campaign's schedules
// are replayed without rescheduling at all. Both paths are bit-identical to
// the direct build-and-simulate loop they replaced (oracle_test.go keeps
// that loop alive as a differential witness).
type Engine struct {
	// Source supplies ground truths and registry-cached fitted models; the
	// base campaign and the trials resolve the same fit per cell.
	Source campaign.ModelSource
	// Workers bounds the per-instance worker pool (<= 0: one per CPU).
	// Reports are byte-identical for every value.
	Workers int
	// Progress, when non-nil, receives live cell and trial counts: the grid's
	// cells (a cell is done once scored and stabilised), and the trial budget
	// versus trials actually drawn. It is write-only — the engine never reads
	// it back, so attaching one cannot change any result.
	Progress *obs.Progress
	// runners pools per-worker trial state (scheduling scratches, replayers,
	// makespan buffers) across cells and instances.
	runners sync.Pool
}

// Result is a completed robustness study: the base campaign result plus one
// stability record per grid cell. Write renders the deterministic report;
// with trials == 0 the result is exactly the base campaign and renders
// byte-identically to it.
type Result struct {
	Plan *Plan
	// Base is the unperturbed campaign.
	Base *campaign.Result
	// Cells holds the Monte Carlo stage's stability records, in the base
	// campaign's cell order; empty when trials == 0.
	Cells []CellStability
}

// CellStability is the Monte Carlo outcome of one grid cell.
type CellStability struct {
	Platform  campaign.PlatformPoint
	Workload  campaign.WorkloadPoint
	Model     string
	Instances int
	Pairs     []PairStability
	// TrialsUsed sums, per level in spec order, the trials actually drawn
	// across the cell's instances under sequential stopping; nil when the
	// spec runs the full budget.
	TrialsUsed []int
	// TrialBudget is the per-level budget (instances × trials) TrialsUsed
	// compares against; 0 when TrialsUsed is nil.
	TrialBudget int
}

// PairStability reports winner stability for one algorithm pair of one grid
// cell: the per-level sweep plus the critical-level summary.
type PairStability struct {
	A, B string
	// Levels holds one entry per noise level, in spec order.
	Levels []LevelStability
	// MedianCritical is the median critical noise level over the instances
	// that flip at some level — the noise magnitude at which the cell's
	// typical flippable instance loses its base winner. NaN when no
	// instance ever flips.
	MedianCritical float64
	// NeverFlipped counts instances whose flip probability stays below the
	// threshold at every level.
	NeverFlipped int
	// Fragile lists the most easily flipped instances (smallest critical
	// level first, at most fragileLimit), for the per-instance detail table.
	Fragile []InstanceStability
}

// LevelStability aggregates one (pair, noise level) over the cell's
// instances.
type LevelStability struct {
	// Level is the noise level.
	Level float64
	// MeanFlipProb and MaxFlipProb summarise the per-instance flip
	// probabilities (the fraction of trials whose simulated winner differs
	// from the base simulated winner).
	MeanFlipProb, MaxFlipProb float64
	// Flipped counts instances whose flip probability reaches the spec's
	// threshold.
	Flipped int
	// MedianRatio is the median, over instances, of the per-instance mean
	// trial makespan ratio B/A; MedianCIHalf is the median 95% confidence
	// half-width of those per-instance means (NaN with fewer than 2
	// trials).
	MedianRatio, MedianCIHalf float64
}

// InstanceStability is one instance's stability record within a pair.
type InstanceStability struct {
	// Name is the suite instance name.
	Name string
	// FlipProb is the instance's flip probability per level, in spec order.
	FlipProb []float64
	// Critical is the smallest level whose flip probability reaches the
	// threshold; NaN when the instance never flips.
	Critical float64
}

// Run expands, validates and executes a robustness study: Prepare, every
// cell in plan order, Merge — the same three steps a sharded execution
// spreads over replicas, so the two cannot disagree.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	p, err := e.Prepare(spec)
	if err != nil {
		return nil, err
	}
	cells, err := experiments.CellsInOrder(ctx, e.Progress, p.NumCells(), func(i int) (CellResult, error) {
		return e.RunCellIndex(ctx, p, i, e.Progress)
	})
	if err != nil {
		return nil, err
	}
	return Merge(p, cells)
}

// trialSetup is one prepared perturbation draw: the perturbed model wrapped
// for scheduling (cost/comm) and simulation, plus the (possibly perturbed)
// platform and its network. Setups are built sequentially from per-trial
// seeds before any parallel work, so trial draws never depend on the worker
// count.
type trialSetup struct {
	cluster platform.Cluster
	cost    dag.CostFunc
	comm    dag.CommFunc
	model   *perfmodel.Perturbed
	net     *simgrid.Net
	// sim is the perturbed model pre-wrapped for replay; building the
	// interface value here keeps the boxing allocation out of the trial loop.
	sim tgrid.TimingScaler
}

// perturbationDraw is one trial's full draw: the model perturbation plus
// the platform bandwidth/latency factors.
type perturbationDraw struct {
	model              perfmodel.Perturbation
	bandwidth, latency float64
}

// drawPerturbation consumes one salt plus one standard-normal variate per
// noise component in a fixed order (task ×/+, startup ×/+, redist ×/+,
// bandwidth ×, latency ×), so a trial's draw depends only on its seed —
// never on which dimensions are active. Shape sigmas scale with the level
// but need no variate here: each trial gets a fresh error surface through
// its salt.
func drawPerturbation(rng *rand.Rand, n Noise, level float64) perturbationDraw {
	var out perturbationDraw
	out.model.Salt = rng.Uint64()
	mult := func(d Dim) float64 {
		z := rng.NormFloat64()
		if d.MultSigma == 0 {
			return 1
		}
		return math.Exp(z * d.MultSigma * level)
	}
	add := func(d Dim) float64 {
		z := rng.NormFloat64()
		if d.AddSigma == 0 {
			return 0
		}
		return z * d.AddSigma * level
	}
	out.model.TaskFactor = mult(n.TaskTime)
	out.model.TaskOffset = add(n.TaskTime)
	out.model.StartupFactor = mult(n.Startup)
	out.model.StartupOffset = add(n.Startup)
	out.model.RedistFactor = mult(n.Redist)
	out.model.RedistOffset = add(n.Redist)
	out.bandwidth = mult(n.Bandwidth)
	out.latency = mult(n.Latency)
	out.model.TaskShape = n.TaskTime.ShapeSigma * level
	out.model.StartupShape = n.Startup.ShapeSigma * level
	out.model.RedistShape = n.Redist.ShapeSigma * level
	return out
}

// stabilizeCell runs the Monte Carlo stage of one grid cell: up to R trials
// per noise level, each re-scheduling (or, when the draws cannot change the
// schedule, replaying) and re-simulating every axis algorithm on every suite
// instance under the trial's perturbed model. Instances run on the
// experiments worker pool with index-addressed results, so reports never
// depend on the worker count; per-worker scratches and replayers come from
// the engine's runner pool, so steady-state trials allocate nothing. With
// sequential stopping enabled, each (instance, level) stops drawing trials
// once every pair's flip probability is decided against the flip threshold
// by its Wilson interval (after MinTrials, within the Trials budget).
// Trial counts flow through prog — the engine's own Progress under Run, a
// per-cell record when a cluster runs the cell.
func (e *Engine) stabilizeCell(ctx context.Context, plan *Plan, cp *campaign.Plan,
	pt campaign.PlatformPoint, wp campaign.WorkloadPoint, kind string,
	truth *cluster.Hidden, platNet *simgrid.Net, suite []dag.SuiteInstance,
	model perfmodel.Model, baseCell *campaign.CellScore, prog *obs.Progress) (CellStability, error) {

	axis := plan.Spec.Robustness
	algos, err := cp.Schedulers()
	if err != nil {
		return CellStability{}, err
	}
	study := "robust/" + pt.Env + "/" + wp.Key() + "/" + kind
	nL, nT := len(axis.Levels), axis.Trials
	prog.AddTrialBudget(int64(len(suite)) * int64(nL) * int64(nT))

	setups := make([][]trialSetup, nL)
	// One generator per cell, reseeded per trial: Seed leaves it in exactly
	// the state a fresh rand.NewSource would have.
	rng := rand.New(rand.NewSource(0))
	for li, level := range axis.Levels {
		setups[li] = make([]trialSetup, nT)
		for t := 0; t < nT; t++ {
			rng.Seed(experiments.CellSeed(axis.Seed, study+"/level-"+strconv.Itoa(li), t))
			draw := drawPerturbation(rng, axis.Noise, level)
			pm, err := perfmodel.NewPerturbed(model, draw.model)
			if err != nil {
				return CellStability{}, fmt.Errorf("robust: %s: %w", study, err)
			}
			c := truth.Cluster
			net := platNet
			if axis.Noise.platform() {
				// Platform noise changes the network itself; the scheduler's
				// communication estimates and the simulated transfers both
				// see the perturbed bandwidth and latency.
				c.LinkBandwidth *= draw.bandwidth
				c.BackplaneBandwidth *= draw.bandwidth
				c.LinkLatency *= draw.latency
				if net, err = simgrid.NewNet(c); err != nil {
					return CellStability{}, fmt.Errorf("robust: %s: %w", study, err)
				}
			}
			setups[li][t] = trialSetup{
				cluster: c,
				cost:    perfmodel.CostFunc(pm),
				comm:    perfmodel.CommFunc(pm, c),
				model:   pm,
				net:     net,
				sim:     tgrid.ScaledTiming{Model: pm},
			}
		}
	}

	npairs := len(algos) * (len(algos) - 1) / 2
	outs := make([][][]levelOut, len(suite)) // [instance][pair][level]
	useds := make([][]int, len(suite))       // [instance][level] trials drawn
	raw := baseCell.Raw
	if raw == nil {
		return CellStability{}, fmt.Errorf("robust: %s: base campaign retained no per-instance data", study)
	}
	// A perturbed schedule equals the base schedule whenever the draw leaves
	// every scheduler input untouched — declared (prediction_only) or proven
	// (scheduleInvariant). Then rescheduling is pure waste: replay the base
	// campaign's schedules through the perturbed simulator instead.
	replayAll := axis.PredictionOnly || scheduleInvariant(axis.Noise, model, truth.Cluster.Nodes)
	baseTiming := tgrid.Timing(tgrid.ModelTiming{Model: model})
	err = experiments.ForEachCellCtx(ctx, e.Workers, len(suite), func(i int) error {
		g := suite[i].Graph
		run := e.acquireRunner(len(algos))
		if replayAll {
			for ai := range algos {
				if err := run.reps[ai].Bind(platNet, raw.Schedules[i][ai], baseTiming); err != nil {
					return fmt.Errorf("robust: %s: bind %s on %s: %w", study, algos[ai].Name(), suite[i].Name(), err)
				}
			}
		}
		o := make([][]levelOut, npairs)
		for pi := range o {
			o[pi] = make([]levelOut, nL)
			for li := range o[pi] {
				o[pi][li].ratios = make([]float64, 0, nT)
			}
		}
		used := make([]int, nL)
		for li := range setups {
			for t := range setups[li] {
				setup := &setups[li][t]
				if !replayAll {
					run.sc.Bind(g, setup.cluster.Nodes, setup.cost)
				}
				for ai, algo := range algos {
					var ms float64
					if replayAll {
						r, err := run.reps[ai].Replay(setup.net, setup.sim)
						if err != nil {
							return fmt.Errorf("robust: simulate %s: %s on %s: %w", study, algo.Name(), suite[i].Name(), err)
						}
						ms = r
					} else {
						s, err := run.sc.BuildOn(algo, setup.cluster, setup.comm)
						if err != nil {
							return fmt.Errorf("robust: %s: %s on %s: %w", study, algo.Name(), suite[i].Name(), err)
						}
						if err := run.rep.Bind(setup.net, s, baseTiming); err != nil {
							return fmt.Errorf("robust: %s: bind %s on %s: %w", study, algo.Name(), suite[i].Name(), err)
						}
						if ms, err = run.rep.Replay(setup.net, setup.sim); err != nil {
							return fmt.Errorf("robust: simulate %s: %s on %s: %w", study, algo.Name(), suite[i].Name(), err)
						}
					}
					run.sims[ai] = ms
				}
				pi := 0
				for ai := 0; ai < len(algos); ai++ {
					for bi := ai + 1; bi < len(algos); bi++ {
						baseRel := stats.RelDiff(raw.Sim[i][ai], raw.Sim[i][bi])
						rel := stats.RelDiff(run.sims[ai], run.sims[bi])
						lo := &o[pi][li]
						if !stats.SameSign(baseRel, rel, 0) {
							lo.flips++
						}
						lo.ratios = append(lo.ratios, run.sims[bi]/run.sims[ai])
						pi++
					}
				}
				used[li] = t + 1
				if axis.Sequential && used[li] >= axis.MinTrials && allDecided(o, li, used[li], axis.FlipThreshold, axis.StopZ) {
					break
				}
			}
		}
		outs[i] = o
		useds[i] = used
		// Batched trial accounting, once per instance: the trial loop itself
		// touches no shared counters.
		var drawn int64
		for _, u := range used {
			drawn += int64(u)
		}
		if replayAll {
			trialsReplay.Add(uint64(drawn) * uint64(len(algos)))
		} else {
			trialsResched.Add(uint64(drawn) * uint64(len(algos)))
		}
		prog.AddTrialsUsed(drawn)
		if axis.Sequential {
			trialsSaved.Add(uint64(int64(nL)*int64(nT) - drawn))
		}
		// Not deferred: a runner held at an error or a panic is dropped,
		// its scratch and replayers with it, never pooled.
		e.releaseRunner(run)
		return nil
	})
	if err != nil {
		return CellStability{}, err
	}
	var overflows uint64
	for li := range setups {
		for t := range setups[li] {
			overflows += setups[li][t].model.SurfaceOverflows()
		}
	}
	surfaceOverflows.Add(overflows)

	cell := CellStability{Platform: pt, Workload: wp, Model: kind, Instances: len(suite)}
	if axis.Sequential {
		cell.TrialsUsed = make([]int, nL)
		for i := range suite {
			for li := range axis.Levels {
				cell.TrialsUsed[li] += useds[i][li]
			}
		}
		cell.TrialBudget = len(suite) * nT
	}
	pi := 0
	for ai := 0; ai < len(algos); ai++ {
		for bi := ai + 1; bi < len(algos); bi++ {
			ps := PairStability{A: cp.Algorithms[ai], B: cp.Algorithms[bi]}
			flipProb := make([][]float64, nL) // [level][instance]
			for li, level := range axis.Levels {
				probs := make([]float64, len(suite))
				means := make([]float64, len(suite))
				halves := make([]float64, len(suite))
				flipped := 0
				maxProb := 0.0
				for i := range suite {
					lo := outs[i][pi][li]
					p := float64(lo.flips) / float64(useds[i][li])
					probs[i] = p
					if p >= axis.FlipThreshold {
						flipped++
					}
					if p > maxProb {
						maxProb = p
					}
					means[i] = stats.Mean(lo.ratios)
					halves[i] = ci95Half(lo.ratios)
				}
				flipProb[li] = probs
				ps.Levels = append(ps.Levels, LevelStability{
					Level:        level,
					MeanFlipProb: stats.Mean(probs),
					MaxFlipProb:  maxProb,
					Flipped:      flipped,
					MedianRatio:  stats.Median(means),
					MedianCIHalf: stats.Median(halves),
				})
			}

			var criticals []float64
			fragile := make([]InstanceStability, 0, len(suite))
			for i := range suite {
				inst := InstanceStability{
					Name:     suite[i].Name(),
					FlipProb: make([]float64, nL),
					Critical: math.NaN(),
				}
				maxProb := 0.0
				for li := range axis.Levels {
					p := flipProb[li][i]
					inst.FlipProb[li] = p
					if p > maxProb {
						maxProb = p
					}
					if math.IsNaN(inst.Critical) && p >= axis.FlipThreshold {
						inst.Critical = axis.Levels[li]
					}
				}
				if !math.IsNaN(inst.Critical) {
					criticals = append(criticals, inst.Critical)
				}
				if maxProb > 0 {
					fragile = append(fragile, inst)
				}
			}
			ps.NeverFlipped = len(suite) - len(criticals)
			if len(criticals) > 0 {
				ps.MedianCritical = stats.Median(criticals)
			} else {
				ps.MedianCritical = math.NaN()
			}
			// Most fragile first: smallest critical level, then largest flip
			// probability, then suite order — a deterministic total order.
			sort.SliceStable(fragile, func(a, b int) bool {
				ca, cb := fragile[a].Critical, fragile[b].Critical
				if math.IsNaN(ca) != math.IsNaN(cb) {
					return !math.IsNaN(ca)
				}
				if !math.IsNaN(ca) && ca != cb {
					return ca < cb
				}
				ma, mb := maxOf(fragile[a].FlipProb), maxOf(fragile[b].FlipProb)
				if ma != mb {
					return ma > mb
				}
				return false
			})
			if len(fragile) > fragileLimit {
				fragile = fragile[:fragileLimit]
			}
			ps.Fragile = fragile
			cell.Pairs = append(cell.Pairs, ps)
			pi++
		}
	}
	return cell, nil
}

// levelOut accumulates one (instance, pair, level)'s trial outcomes.
type levelOut struct {
	flips  int
	ratios []float64
}

// trialRunner is one worker's reusable trial state: a scheduling scratch and
// a replayer for the reschedule path, one replayer per algorithm for the
// replay-all path, and the per-trial makespan buffer.
type trialRunner struct {
	sc   *sched.Scratch
	rep  *tgrid.Replayer
	reps []*tgrid.Replayer
	sims []float64
}

func (e *Engine) acquireRunner(nAlgos int) *trialRunner {
	runnerAcquires.Inc()
	run, _ := e.runners.Get().(*trialRunner)
	if run == nil {
		runnerNews.Inc()
		run = &trialRunner{sc: sched.NewScratch(), rep: tgrid.NewReplayer()}
	}
	for len(run.reps) < nAlgos {
		run.reps = append(run.reps, tgrid.NewReplayer())
	}
	if cap(run.sims) < nAlgos {
		run.sims = make([]float64, nAlgos)
	}
	run.sims = run.sims[:nAlgos]
	return run
}

func (e *Engine) releaseRunner(run *trialRunner) {
	runnerReleases.Inc()
	e.runners.Put(run)
}

// scheduleInvariant reports whether the noise axis cannot change any input
// the schedulers read from this particular model — task-time costs, startup
// overheads, redistribution overheads, or the platform itself. When it
// holds, a trial's rescheduling would reproduce the base schedule exactly
// (the algorithms are deterministic functions of their inputs), so the
// engine replays the base schedules instead. Multiplicative and shape noise
// on an identically-zero overhead surface is invariant (any factor times 0
// is still 0); additive noise never is, and task-time or platform noise
// always reaches the scheduler. The redistribution probe walks the full
// (pSrc, pDst) grid the schedulers can query, so it is only attempted on
// clusters small enough for the one-time cost to be negligible.
func scheduleInvariant(n Noise, model perfmodel.Model, clusterSize int) bool {
	if n.TaskTime.active() || n.Bandwidth.active() || n.Latency.active() {
		return false
	}
	if n.Startup.active() {
		if n.Startup.AddSigma != 0 {
			return false
		}
		for p := 1; p <= clusterSize; p++ {
			if model.StartupOverhead(p) != 0 {
				return false
			}
		}
	}
	if n.Redist.active() {
		if n.Redist.AddSigma != 0 || clusterSize > 64 {
			return false
		}
		for pSrc := 1; pSrc <= clusterSize; pSrc++ {
			for pDst := 1; pDst <= clusterSize; pDst++ {
				if model.RedistOverhead(pSrc, pDst) != 0 {
					return false
				}
			}
		}
	}
	return true
}

// wilsonCI returns the Wilson score interval for flips successes in n
// Bernoulli trials at z-score z.
func wilsonCI(flips, n int, z float64) (lo, hi float64) {
	ph := float64(flips) / float64(n)
	nf := float64(n)
	z2 := z * z
	den := 1 + z2/nf
	center := ph + z2/(2*nf)
	half := float64(z * math.Sqrt(ph*(1-ph)/nf+z2/(4*nf*nf)))
	return (center - half) / den, (center + half) / den
}

// seqDecided reports whether a flip probability is decided against threshold
// thr after n trials: the Wilson interval lies entirely above or entirely
// below it.
func seqDecided(flips, n int, thr, z float64) bool {
	lo, hi := wilsonCI(flips, n, z)
	return lo > thr || hi < thr
}

// allDecided reports whether every pair's flip count at level li is decided
// after n trials.
func allDecided(o [][]levelOut, li, n int, thr, z float64) bool {
	for pi := range o {
		if !seqDecided(o[pi][li].flips, n, thr, z) {
			return false
		}
	}
	return true
}

// ci95Half returns the 95% confidence half-width of the sample mean under
// the normal approximation; NaN with fewer than two samples.
func ci95Half(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return 1.96 * stats.StdDev(xs) / math.Sqrt(float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
