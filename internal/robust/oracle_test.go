package robust

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/simgrid"
	"repro/internal/stats"
	"repro/internal/tgrid"
)

// This file preserves the PR 5 Monte Carlo trial loop verbatim as a
// test-only oracle. The production engine (engine.go) replaced it with the
// allocation-free fast path — scratch scheduling, schedule replay, optional
// sequential stopping — and the differential tests in differential_test.go
// assert the fast path reproduces this oracle's reports byte for byte
// whenever sequential stopping and prediction-only replay are off.
//
// Apart from the oracle* renames (and reading the new useds/TrialsUsed
// outputs as the full budget), the code below is the PR 5 engine code
// unchanged. Do not "improve" it: its value is being the old loop.

// oracleEngine executes robustness plans with the PR 5 trial loop.
type oracleEngine struct {
	Source  campaign.ModelSource
	Workers int
}

// Run mirrors Engine.Run with the oracle cell loop.
func (e *oracleEngine) Run(ctx context.Context, spec Spec) (*Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	if e.Source == nil {
		return nil, fmt.Errorf("robust: engine has no model source")
	}
	trials := plan.Spec.Robustness.Trials
	ceng := campaign.Engine{Source: e.Source, Workers: e.Workers, Keep: trials > 0}
	base, err := ceng.Run(ctx, plan.Spec.Spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan, Base: base}
	if trials == 0 {
		return res, nil
	}

	cp := base.Plan
	ci := 0
	for _, pt := range cp.Platforms {
		truth, err := e.Source.Environment(pt.Env)
		if err != nil {
			return nil, err
		}
		platNet, err := simgrid.NewNet(truth.Cluster)
		if err != nil {
			return nil, fmt.Errorf("robust: platform %s: %w", pt.Env, err)
		}
		for _, wp := range cp.Workloads {
			suite, err := dag.GenerateSuite(wp.SuiteSeed)
			if err != nil {
				return nil, err
			}
			suite = campaign.FilterSizes(suite, wp.Sizes)
			for _, kind := range cp.Models {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				model, _, err := e.Source.GetModel(pt.Env, kind, cp.Spec.Seed)
				if err != nil {
					return nil, fmt.Errorf("robust: fit %s/%s: %w", pt.Env, kind, err)
				}
				cell, err := e.stabilizeCell(ctx, plan, cp, pt, wp, kind, truth, platNet, suite, model, &base.Cells[ci])
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, cell)
				ci++
			}
		}
	}
	return res, nil
}

// oracleTrialSetup is PR 5's trialSetup.
type oracleTrialSetup struct {
	cluster platform.Cluster
	cost    dag.CostFunc
	comm    dag.CommFunc
	model   *perfmodel.Perturbed
	net     *simgrid.Net
}

// stabilizeCell is PR 5's trial loop, verbatim: R trials per noise level,
// each re-scheduling and re-simulating every axis algorithm on every suite
// instance under the trial's perturbed model.
func (e *oracleEngine) stabilizeCell(ctx context.Context, plan *Plan, cp *campaign.Plan,
	pt campaign.PlatformPoint, wp campaign.WorkloadPoint, kind string,
	truth *cluster.Hidden, platNet *simgrid.Net, suite []dag.SuiteInstance,
	model perfmodel.Model, baseCell *campaign.CellScore) (CellStability, error) {

	axis := plan.Spec.Robustness
	algos := cp.Algorithms
	study := "robust/" + pt.Env + "/" + wp.Key() + "/" + kind
	nL, nT := len(axis.Levels), axis.Trials

	setups := make([][]oracleTrialSetup, nL)
	for li, level := range axis.Levels {
		setups[li] = make([]oracleTrialSetup, nT)
		for t := 0; t < nT; t++ {
			rng := rand.New(rand.NewSource(experiments.CellSeed(axis.Seed, study+"/level-"+strconv.Itoa(li), t)))
			draw := drawPerturbation(rng, axis.Noise, level)
			pm, err := perfmodel.NewPerturbed(model, draw.model)
			if err != nil {
				return CellStability{}, fmt.Errorf("robust: %s: %w", study, err)
			}
			c := truth.Cluster
			net := platNet
			if axis.Noise.platform() {
				c.LinkBandwidth *= draw.bandwidth
				c.BackplaneBandwidth *= draw.bandwidth
				c.LinkLatency *= draw.latency
				if net, err = simgrid.NewNet(c); err != nil {
					return CellStability{}, fmt.Errorf("robust: %s: %w", study, err)
				}
			}
			setups[li][t] = oracleTrialSetup{
				cluster: c,
				cost:    perfmodel.CostFunc(pm),
				comm:    perfmodel.CommFunc(pm, c),
				model:   pm,
				net:     net,
			}
		}
	}

	npairs := len(algos) * (len(algos) - 1) / 2
	type levelOut struct {
		flips  int
		ratios []float64
	}
	outs := make([][][]levelOut, len(suite)) // [instance][pair][level]
	raw := baseCell.Raw
	if raw == nil {
		return CellStability{}, fmt.Errorf("robust: %s: base campaign retained no per-instance data", study)
	}
	err := experiments.ForEachCellCtx(ctx, e.Workers, len(suite), func(i int) error {
		g := suite[i].Graph
		o := make([][]levelOut, npairs)
		for pi := range o {
			o[pi] = make([]levelOut, nL)
			for li := range o[pi] {
				o[pi][li].ratios = make([]float64, 0, nT)
			}
		}
		sims := make([]float64, len(algos))
		for li := range setups {
			for t := range setups[li] {
				setup := &setups[li][t]
				for ai, name := range algos {
					s, err := campaign.BuildSchedule(name, g, setup.cluster, setup.cost, setup.comm)
					if err != nil {
						return fmt.Errorf("robust: %s: %s on %s: %w", study, name, suite[i].Params.Name(), err)
					}
					s.Model = kind
					r, err := tgrid.Run(setup.net, s, tgrid.ModelTiming{Model: setup.model})
					if err != nil {
						return fmt.Errorf("robust: simulate %s: %s on %s: %w", study, name, suite[i].Params.Name(), err)
					}
					sims[ai] = r.Makespan
				}
				pi := 0
				for ai := 0; ai < len(algos); ai++ {
					for bi := ai + 1; bi < len(algos); bi++ {
						baseRel := stats.RelDiff(raw.Sim[i][ai], raw.Sim[i][bi])
						rel := stats.RelDiff(sims[ai], sims[bi])
						lo := &o[pi][li]
						if !stats.SameSign(baseRel, rel, 0) {
							lo.flips++
						}
						lo.ratios = append(lo.ratios, sims[bi]/sims[ai])
						pi++
					}
				}
			}
		}
		outs[i] = o
		return nil
	})
	if err != nil {
		return CellStability{}, err
	}

	cell := CellStability{Platform: pt, Workload: wp, Model: kind, Instances: len(suite)}
	pi := 0
	for ai := 0; ai < len(algos); ai++ {
		for bi := ai + 1; bi < len(algos); bi++ {
			ps := PairStability{A: algos[ai], B: algos[bi]}
			flipProb := make([][]float64, nL) // [level][instance]
			for li, level := range axis.Levels {
				probs := make([]float64, len(suite))
				means := make([]float64, len(suite))
				halves := make([]float64, len(suite))
				flipped := 0
				maxProb := 0.0
				for i := range suite {
					lo := outs[i][pi][li]
					p := float64(lo.flips) / float64(nT)
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
					Name:     suite[i].Params.Name(),
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
