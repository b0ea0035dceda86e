// Package repro is a from-scratch Go reproduction of
//
//	Sascha Hunold, Henri Casanova, Frédéric Suter.
//	"From Simulation to Experiment: A Case Study on Multiprocessor Task
//	Scheduling", APDCM/IPDPS 2011.
//
// The paper asks whether the analytical simulation models pervasive in the
// scheduling literature support scientifically valid conclusions, using the
// scheduling of mixed-parallel applications (DAGs of moldable data-parallel
// tasks) on a 32-node cluster as a case study. This package is the public
// façade over the full reproduction:
//
//   - a discrete-event simulation kernel with SimGrid's Ptask_L07
//     parallel-task model (internal/simgrid);
//   - the CPA, HCPA and MCPA two-phase scheduling algorithms
//     (internal/sched);
//   - the three simulator variants — analytic, brute-force profile,
//     empirical regression (internal/perfmodel, internal/profiler,
//     internal/regression);
//   - a calibrated ground-truth environment standing in for the paper's
//     Bayreuth cluster + TGrid runtime (internal/cluster), replayed in
//     virtual time by the same runtime the simulators use (internal/tgrid);
//   - the full evaluation pipeline regenerating every table and figure
//     (internal/experiments), also exposed through cmd/mixedsim. Studies
//     decompose into independent (instance × algorithm × model/variant)
//     cells executed on a bounded worker pool with deterministic per-cell
//     noise seeding, so reports are byte-identical for every worker count;
//     Config.Parallelism (and the commands' -parallel flag) bounds the
//     pool;
//   - a scheduling service (internal/service, served by cmd/reprosrv):
//     a registry that fits the measured models once per (environment, seed)
//     and reuses them across concurrent schedule/simulate requests, plus a
//     bounded job queue running whole studies asynchronously;
//   - a campaign engine (internal/campaign, POST /v1/campaigns and
//     mixedsim -campaign): declarative what-if sweeps over hypothetical
//     platforms, workloads, algorithms and models — §IX's "scaled to
//     simulate hypothetical platforms" as a grid the registry's fit-once
//     economics make cheap to explore;
//   - a robustness engine (internal/robust, POST /v1/robustness and
//     mixedsim -robust): Monte Carlo perturbation of fitted models and
//     platform characteristics with winner-stability reports — how wrong
//     can a model be before the §V conclusions flip;
//   - a workload-import and online-arrival layer (internal/dag's DOT/JSON
//     importer, the internal/dag/shapes catalogue, internal/arrival, POST
//     /v1/arrivals and mixedsim -arrival): externally authored or canonical
//     workflows arriving over time on a shared cluster, scheduled online
//     against the fitted models with queueing, utilisation, stretch and
//     fairness reports (docs/WORKLOADS.md).
//
// The quickest entry points:
//
//	lab, _ := repro.NewLab(repro.DefaultConfig())
//	fig1, _ := lab.CompareHCPAMCPA("analytic", 2000)
//	fig1.Write(os.Stdout)
//
// See README.md for the architecture overview, docs/PAPER_MAP.md for the
// paper-section-to-code map, and docs/SERVICE.md for the HTTP API.
package repro

import (
	"context"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/robust"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// Core workload types.
type (
	// Graph is a mixed-parallel application DAG of moldable tasks.
	Graph = dag.Graph
	// Task is one moldable task.
	Task = dag.Task
	// GenParams configures the paper's random DAG generator (Table I).
	GenParams = dag.GenParams
	// Cluster describes a homogeneous platform.
	Cluster = platform.Cluster
	// Schedule is a two-phase scheduling result.
	Schedule = sched.Schedule
	// Model is a simulator performance model (analytic, profile, empirical).
	Model = perfmodel.Model
	// Result reports one virtual-time execution of a schedule.
	Result = tgrid.Result
	// Lab is the assembled experimental setup of the paper's evaluation.
	Lab = experiments.Lab
	// Config selects the evaluation's seeds and measurement effort.
	Config = experiments.Config
)

// Service-layer types (internal/service, served over HTTP by cmd/reprosrv).
type (
	// Service is the scheduling-as-a-service layer: registry-cached fitted
	// models, synchronous schedule/simulate calls, async study jobs.
	Service = service.Service
	// ServiceOptions configures a Service.
	ServiceOptions = service.Options
	// ServiceClient is the typed HTTP client for a reprosrv daemon.
	ServiceClient = service.Client
	// ScheduleRequest asks the service to schedule one DAG.
	ScheduleRequest = service.ScheduleRequest
	// StudyRequest submits an evaluation study as an async job.
	StudyRequest = service.StudyRequest
	// JobStatus is the externally visible record of a queued study run.
	JobStatus = service.JobStatus
	// ModelRegistry lazily builds and caches fitted performance models.
	ModelRegistry = service.ModelRegistry
)

// Campaign types (internal/campaign): declarative what-if sweeps.
type (
	// CampaignSpec declares a parameter grid over platforms, workloads,
	// algorithms and models (docs/CAMPAIGNS.md).
	CampaignSpec = campaign.Spec
	// CampaignResult is a completed campaign; Write renders the report.
	CampaignResult = campaign.Result
)

// Robustness types (internal/robust): Monte Carlo winner-stability studies.
type (
	// RobustnessSpec is a campaign spec plus the Monte Carlo perturbation
	// axis (docs/ROBUSTNESS.md).
	RobustnessSpec = robust.Spec
	// RobustnessAxis declares the perturbation effort, noise shape and
	// level sweep of a robustness study.
	RobustnessAxis = robust.Axis
	// RobustnessResult is a completed study; Write renders the base
	// campaign report followed by the winner-stability sections.
	RobustnessResult = robust.Result
)

// Arrival types (internal/arrival): online workflows on a shared cluster.
type (
	// ArrivalSpec declares an online-arrival scenario: a job population
	// (suites, imported traces, canonical shapes), an arrival process and
	// the partition geometry (docs/WORKLOADS.md).
	ArrivalSpec = arrival.Spec
	// ArrivalResult is a completed scenario; Write renders the online
	// scorecard: queueing delay, utilisation, stretch and fairness.
	ArrivalResult = arrival.Result
)

// ImportDAG parses a DOT or JSON export (dag.WriteDOT / dag.WriteJSON)
// back into a Graph; Import(Export(g)) round-trips byte-identically.
func ImportDAG(data []byte) (*Graph, error) { return dag.Import(data) }

// RunCampaign executes a declarative what-if sweep against a fresh
// fit-once model registry. Long-running callers should prefer a Service
// (POST /v1/campaigns), which shares the registry across campaigns and
// schedule requests.
func RunCampaign(ctx context.Context, spec CampaignSpec) (*CampaignResult, error) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := campaign.Engine{Source: reg, Workers: cfg.Parallelism}
	return eng.Run(ctx, spec)
}

// RunRobustness executes a Monte Carlo winner-stability study against a
// fresh fit-once model registry: the spec's base campaign runs first, then
// every grid cell is re-scheduled and re-simulated under seeded model and
// platform perturbations to measure how much model error the simulated
// winner survives (docs/ROBUSTNESS.md). A spec whose robustness axis has
// trials == 0 reduces exactly to RunCampaign. Long-running callers should
// prefer a Service (POST /v1/robustness), which shares the registry across
// studies, campaigns and schedule requests.
func RunRobustness(ctx context.Context, spec RobustnessSpec) (*RobustnessResult, error) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := robust.Engine{Source: reg, Workers: cfg.Parallelism}
	return eng.Run(ctx, spec)
}

// RunArrival executes an online-arrival scenario against a fresh fit-once
// model registry: the population's jobs arrive by the spec's process, are
// scheduled online with each axis algorithm and run FCFS on fixed-size
// partitions of the emulated cluster (docs/WORKLOADS.md). Long-running
// callers should prefer a Service (POST /v1/arrivals), which shares the
// registry across scenarios, campaigns and schedule requests.
func RunArrival(ctx context.Context, spec ArrivalSpec) (*ArrivalResult, error) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := arrival.Engine{Source: reg, Workers: cfg.Parallelism}
	return eng.Run(ctx, spec)
}

// NewService assembles the scheduling service; zero fields of opts fall
// back to DefaultServiceOptions.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// DefaultServiceOptions mirrors the paper's evaluation setup.
func DefaultServiceOptions() ServiceOptions { return service.DefaultOptions() }

// NewServiceClient returns a typed client for a reprosrv base URL.
func NewServiceClient(base string) *ServiceClient { return service.NewClient(base) }

// GenerateDAG runs the paper's random-DAG generator.
func GenerateDAG(p GenParams) (*Graph, error) { return dag.Generate(p) }

// GenerateSuite produces the 54-instance Table I workload.
func GenerateSuite(baseSeed int64) ([]dag.SuiteInstance, error) {
	return dag.GenerateSuite(baseSeed)
}

// Bayreuth returns the paper's platform: 32 nodes at an effective
// 250 MFlop/s behind Gigabit Ethernet.
func Bayreuth() Cluster { return platform.Bayreuth() }

// NewAnalyticModel returns the flop-count/latency-bandwidth model of §IV.
func NewAnalyticModel(c Cluster) Model { return perfmodel.NewAnalytic(c) }

// Algorithms returns the schedulers of the case study plus baselines:
// CPA, HCPA, MCPA, SEQ, DATAPAR.
func Algorithms() []sched.Algorithm {
	return []sched.Algorithm{
		sched.CPA{}, sched.HCPA{}, sched.MCPA{}, sched.Sequential{}, sched.DataParallel{},
	}
}

// BuildSchedule runs a two-phase scheduler under a performance model.
func BuildSchedule(algo sched.Algorithm, g *Graph, c Cluster, m Model) (*Schedule, error) {
	return sched.Build(algo, g, c.Nodes, perfmodel.CostFunc(m), perfmodel.CommFunc(m, c))
}

// NewHeterogeneousCluster builds a platform with explicit per-node speeds;
// the fastest node becomes the reference speed CPA-family allocations are
// normalised to (HCPA's original heterogeneous setting).
func NewHeterogeneousCluster(name string, powers []float64, bandwidth, latency float64) Cluster {
	return platform.NewHeterogeneous(name, powers, bandwidth, latency)
}

// BuildHeteroSchedule schedules onto a heterogeneous platform: the
// allocation phase reasons on the reference cluster and the mapping phase
// trades node speed against availability.
func BuildHeteroSchedule(algo sched.Algorithm, g *Graph, c Cluster, m Model) (*Schedule, error) {
	return sched.BuildHetero(algo, g, c, perfmodel.CostFunc(m), perfmodel.CommFunc(m, c))
}

// Simulate replays a schedule under a performance model — one of the
// paper's simulators.
func Simulate(c Cluster, s *Schedule, m Model) (*Result, error) {
	net, err := simgrid.NewNet(c)
	if err != nil {
		return nil, err
	}
	return tgrid.Run(net, s, tgrid.ModelTiming{Model: m})
}

// Experiment executes a schedule on the emulated ground-truth environment
// (the reproduction's stand-in for the paper's real cluster), with the
// given noise seed.
func Experiment(s *Schedule, seed int64) (*Result, error) {
	em, err := cluster.NewEmulator(cluster.Bayreuth(), seed)
	if err != nil {
		return nil, err
	}
	return em.Execute(s)
}

// DefaultConfig mirrors the paper's evaluation setup. Config.Parallelism
// bounds the study-execution worker pool (zero: one worker per CPU);
// reports are byte-identical for every value.
func DefaultConfig() Config { return experiments.DefaultConfig() }

// DefaultParallelism returns the worker count the study engine uses when
// Config.Parallelism is zero: one per logical CPU.
func DefaultParallelism() int { return experiments.DefaultParallelism() }

// NewLab assembles the full evaluation: environment, profiling campaigns,
// models and workload.
func NewLab(cfg Config) (*Lab, error) { return experiments.NewLab(cfg) }
