package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// The axes the API workloads cross the generated DAGs with.
var (
	apiAlgorithms = []string{"CPA", "HCPA", "MCPA"}
	apiModels     = []string{"analytic", "profile", "empirical"}
)

// oracle computes, straight from the schedulers and tgrid.Run, the makespans
// the service must return: the same three models (fitted by a registry of
// the benchmark's own, so the fits are the deterministic twins of the
// service's) on the same platform, with no service code in between.
type oracle struct {
	cluster platform.Cluster
	net     *simgrid.Net
	models  map[string]perfmodel.Model
}

func newOracle() (*oracle, error) {
	opts := service.DefaultOptions()
	reg := service.NewModelRegistry(opts.Profile, opts.Empirical)
	truth, err := reg.Environment("bayreuth")
	if err != nil {
		return nil, err
	}
	net, err := simgrid.NewNet(truth.Cluster)
	if err != nil {
		return nil, err
	}
	o := &oracle{cluster: truth.Cluster, net: net, models: map[string]perfmodel.Model{}}
	for _, kind := range apiModels {
		m, _, err := reg.GetModel("bayreuth", kind, experiments.DefaultConfig().NoiseSeed)
		if err != nil {
			return nil, fmt.Errorf("oracle: fit %s: %w", kind, err)
		}
		o.models[kind] = m
	}
	return o, nil
}

// build schedules g directly.
func (o *oracle) build(g *dag.Graph, algo, model string) (*sched.Schedule, error) {
	m := o.models[model]
	return campaign.BuildSchedule(algo, g, o.cluster, perfmodel.CostFunc(m), perfmodel.CommFunc(m, o.cluster))
}

// buildPooled schedules g the way the service's synchronous paths do — a
// reused sched.Scratch, detached with Clone — so a ladder walk can time the
// rung the service actually stands on. Bit-identical to build.
func (o *oracle) buildPooled(sc *sched.Scratch, g *dag.Graph, algo, model string) (*sched.Schedule, error) {
	m := o.models[model]
	cost := perfmodel.CostFunc(m)
	sc.Bind(g, o.cluster.Nodes, cost)
	s, err := campaign.BuildScheduleScratch(sc, algo, g, o.cluster, cost, perfmodel.CommFunc(m, o.cluster))
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

// simulate replays a schedule directly and returns the makespan.
func (o *oracle) simulate(s *sched.Schedule, model string) (float64, error) {
	res, err := tgrid.Run(o.net, s, tgrid.ModelTiming{Model: o.models[model]})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// makespan is build followed by simulate.
func (o *oracle) makespan(g *dag.Graph, algo, model string) (float64, error) {
	s, err := o.build(g, algo, model)
	if err != nil {
		return 0, err
	}
	return o.simulate(s, model)
}
