package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"log/slog"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/store"
	"repro/internal/tgrid"
)

// Options configures a Service.
type Options struct {
	// Seed is the default measurement-campaign noise seed (DefaultConfig's
	// when zero).
	Seed int64
	// SuiteSeed is the default Table I suite seed for study jobs.
	SuiteSeed int64
	// Parallelism bounds the cell-engine worker pool of what runs in
	// process — a simulate batch's DAGs, a RunStudy's cells (0 = one worker
	// per CPU). A job's cells run on the claim loops instead.
	Parallelism int
	// JobWorkers is the number of claim loops (default 2): how many one-cell
	// jobs and cells of larger jobs run at once.
	JobWorkers int
	// QueueCap bounds the jobs waiting to run (default 16) — with a Store,
	// across every replica on it.
	QueueCap int
	// Retain is how many finished jobs keep their results (default 64).
	Retain int
	// Profile and Empirical configure the fitting campaigns the registry
	// runs (defaults mirror the paper).
	Profile   profiler.ProfileOptions
	Empirical profiler.EmpiricalOptions
	// Logger receives one structured line per HTTP request; nil disables
	// request logging (metrics are always on).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on Handler().
	// Off by default: profiles expose internals and cost CPU to capture.
	EnablePprof bool
	// Store, when non-nil, makes the service a replica of a durable cluster:
	// jobs live in the shared WAL'd pool (claimed by lease, reclaimed on
	// crash) and fitted models persist under the store directory, so both
	// survive restarts and are shared by every replica on the directory. A
	// nil Store runs the same job lifecycle over a pool that dies with the
	// service (store.NewMemory).
	Store *store.Store
	// ReplicaID is this process's lease-holder identity (hostname-pid when
	// empty). Only meaningful with a Store.
	ReplicaID string
	// LeaseTTL is how long a claimed job's lease lasts between renewals
	// (default 10s). A replica that misses renewals for a full TTL loses its
	// jobs to the reclaimer. Only meaningful with a Store.
	LeaseTTL time.Duration
}

// DefaultOptions mirrors the paper's evaluation setup.
func DefaultOptions() Options {
	cfg := experiments.DefaultConfig()
	return Options{
		Seed:       cfg.NoiseSeed,
		SuiteSeed:  cfg.SuiteSeed,
		JobWorkers: 2,
		QueueCap:   16,
		Retain:     64,
		Profile:    cfg.Profile,
		Empirical:  cfg.Empirical,
	}
}

// Service is the scheduling-as-a-service layer: it serves schedule and
// simulate requests synchronously over registry-cached models, and study
// and family jobs asynchronously on the job queue. Safe for concurrent use.
type Service struct {
	opts     Options
	registry *ModelRegistry
	jobs     *JobManager
	logger   *slog.Logger
	start    time.Time

	// families is the job-family table (family.go): New fills it with the
	// built-ins, and everything that handles family jobs — submit, run,
	// shard, route, label — looks kinds up here. It must not change once
	// jobs are submitted or Handler is called.
	families []*Family

	labMu sync.Mutex
	labs  map[labKey]*resolved[*experiments.Lab]

	// nets caches one simgrid.Net per environment so schedule, simulate and
	// batch requests share it instead of building a network per request.
	netMu sync.Mutex
	nets  map[string]*simgrid.Net

	// The prepared-plan cache behind plan (plans.go).
	planMu    sync.Mutex
	plans     map[string]*resolved[Plan]
	planOrder []string
}

// labKey identifies one assembled lab (one workload × one environment).
type labKey struct {
	env       string
	seed      int64
	suiteSeed int64
	trials    int
}

// New assembles a service; fields of opts left zero fall back to defaults.
func New(opts Options) *Service {
	def := DefaultOptions()
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if opts.SuiteSeed == 0 {
		opts.SuiteSeed = def.SuiteSeed
	}
	if opts.JobWorkers == 0 {
		opts.JobWorkers = def.JobWorkers
	}
	if opts.QueueCap == 0 {
		opts.QueueCap = def.QueueCap
	}
	if opts.Retain == 0 {
		opts.Retain = def.Retain
	}
	if opts.Profile.Sizes == nil {
		opts.Profile = def.Profile
	}
	if opts.Empirical.Sizes == nil {
		opts.Empirical = def.Empirical
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.ReplicaID == "" {
		opts.ReplicaID = defaultReplicaID()
	}
	s := &Service{
		opts:     opts,
		registry: NewModelRegistry(opts.Profile, opts.Empirical),
		logger:   logger,
		start:    time.Now(),
		labs:     make(map[labKey]*resolved[*experiments.Lab]),
		nets:     make(map[string]*simgrid.Net),
		plans:    make(map[string]*resolved[Plan]),
	}
	s.families = append([]*Family{s.studies()}, Families(s.registry, opts.Parallelism)...)
	// Every family's duration series exists from the first scrape.
	for _, f := range s.families {
		jobDuration(f.Name)
	}
	st, replica, ttl, sweep := opts.Store, opts.ReplicaID, opts.LeaseTTL, leaseSweep
	if st != nil {
		s.registry.SetStore(st)
		s.registry.Warm()
	} else {
		// One process: a pool no other handle can open, held under a lease
		// that cannot run out — so there is none to sweep for, and an idle
		// worker sleeps until it is woken.
		st, replica, ttl, sweep = store.NewMemory(store.Options{}), "", noExpiry, noExpiry
	}
	s.jobs = newJobManager(opts.JobWorkers, opts.QueueCap, opts.Retain, st, replica, ttl, s.dispatch(), sweep)
	return s
}

// dispatch is what the job manager runs submissions through: two lookups in
// the family table.
func (s *Service) dispatch() Dispatch {
	return Dispatch{Plan: s.plan, Family: s.familyName}
}

// family returns the table entry a job kind belongs to, nil for a kind no
// family claims.
func (s *Service) family(kind string) *Family {
	for _, f := range s.families {
		if f.matches(kind) {
			return f
		}
	}
	return nil
}

// named returns the table entry called name.
func (s *Service) named(name string) *Family {
	for _, f := range s.families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// familyName is a job kind's label on the duration histogram: its family's
// name. The table is closed, so label cardinality cannot grow with
// user-chosen spec names.
func (s *Service) familyName(kind string) string {
	if f := s.family(kind); f != nil {
		return f.Name
	}
	return ""
}

// defaults are the seeds family specs inherit from the service options, so
// campaigns, schedule requests and study jobs all share the same fitted
// models by default.
func (s *Service) defaults() Defaults {
	return Defaults{Seed: s.opts.Seed, SuiteSeed: s.opts.SuiteSeed}
}

// submit validates a family spec by preparing it — the family's whole
// rejection surface, so an invalid spec is a bad request here and never a
// failed job later — seeds the plan cache with the result, and queues the
// canonical spec as a job of the family's kind for it. Because specs are
// default-filled here, every replica that runs the job resolves the same
// seeds — and so the same report — as the submitting one would have.
func (s *Service) submit(f *Family, spec []byte) (JobStatus, error) {
	p, err := f.Prepare(spec, s.defaults())
	return s.enqueue(f, p, err)
}

// enqueue is submit's second half, for a plan already prepared (or its
// rejection).
func (s *Service) enqueue(f *Family, p Plan, err error) (JobStatus, error) {
	if err != nil {
		return JobStatus{}, badRequest{err}
	}
	kind := f.kind(p)
	s.cachedPlan(kind, p.Spec(), func() (Plan, error) { return p, nil })
	return s.jobs.SubmitPayload(kind, p.Spec())
}

// submitSpec is submit for a typed spec of the named family.
func (s *Service) submitSpec(family string, spec any) (JobStatus, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, badRequest{err}
	}
	return s.submit(s.named(family), data)
}

// runSpec executes a typed spec of the named family synchronously, on the
// path a queued job of the family runs, and returns the rendered report.
func (s *Service) runSpec(ctx context.Context, family string, spec any) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	p, err := s.named(family).Prepare(data, s.defaults())
	if err != nil {
		return "", err
	}
	return p.Run(ctx, nil)
}

// net returns the cached network of an environment, building it on first
// use.
func (s *Service) net(env string, c platform.Cluster) (*simgrid.Net, error) {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	if n, ok := s.nets[env]; ok {
		return n, nil
	}
	n, err := simgrid.NewNet(c)
	if err != nil {
		return nil, err
	}
	s.nets[env] = n
	return n, nil
}

// Registry exposes the fitted-model registry.
func (s *Service) Registry() *ModelRegistry { return s.registry }

// Jobs exposes the job manager.
func (s *Service) Jobs() *JobManager { return s.jobs }

// Close shuts the job queue down, cancelling queued and running jobs.
func (s *Service) Close(ctx context.Context) error { return s.jobs.Shutdown(ctx) }

// ---------------------------------------------------------------- schedule

// ScheduleRequest asks for a schedule of one DAG.
type ScheduleRequest struct {
	// DAG is the application, in the cmd/daggen node/edge-list format.
	DAG *dag.Graph `json:"dag"`
	// Algorithm selects the scheduler (default "HCPA"); one of
	// sched.Names(): CPA, HCPA, MCPA, MHEFT, SEQ, DATAPAR.
	Algorithm string `json:"algorithm,omitempty"`
	// Model selects the performance model (default "analytic").
	Model string `json:"model,omitempty"`
	// Environment selects the modelled environment (default "bayreuth").
	Environment string `json:"environment,omitempty"`
	// Seed selects the measurement campaign (0 = the service default).
	Seed int64 `json:"seed,omitempty"`
}

// ScheduledTask is one task of a computed schedule.
type ScheduledTask struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	P         int     `json:"p"`
	Hosts     []int   `json:"hosts"`
	EstStart  float64 `json:"est_start"`
	EstFinish float64 `json:"est_finish"`
}

// ScheduleResponse is the computed schedule plus the simulated (predicted)
// makespan under the requested model.
type ScheduleResponse struct {
	Algorithm   string `json:"algorithm"`
	Model       string `json:"model"`
	Environment string `json:"environment"`
	Seed        int64  `json:"seed"`
	// CacheHit reports whether the model came from the registry cache.
	CacheHit bool `json:"cache_hit"`
	// EstMakespan is the mapping phase's own estimate; SimMakespan is the
	// simulator's replay of the schedule under the same model.
	EstMakespan float64         `json:"est_makespan"`
	SimMakespan float64         `json:"sim_makespan"`
	Tasks       []ScheduledTask `json:"tasks"`
}

// badRequest marks an error as caused by the request itself (unknown
// names, missing DAG) rather than a server-side failure; the HTTP layer
// maps it to 400 and everything else to 500.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// IsBadRequest reports whether err was caused by the request itself.
func IsBadRequest(err error) bool {
	var b badRequest
	return errors.As(err, &b)
}

// normalize fills request defaults and validates the request-supplied
// names, so every error past this point is a server-side failure.
func (s *Service) normalize(req *ScheduleRequest) error {
	if req.DAG == nil || req.DAG.Len() == 0 {
		return badRequest{fmt.Errorf("service: request has no dag")}
	}
	return s.normalizeNames(&req.Algorithm, &req.Model, &req.Environment, &req.Seed)
}

// normalizeNames fills the (algorithm, model, environment, seed) defaults
// and validates the model kind — the part of request normalization shared by
// single and batched requests.
func (s *Service) normalizeNames(algorithm, model, environment *string, seed *int64) error {
	if *algorithm == "" {
		*algorithm = "HCPA"
	}
	if *model == "" {
		*model = "analytic"
	}
	if !slices.Contains(perfmodel.Kinds(), *model) {
		return badRequest{fmt.Errorf("service: unknown model kind %q (want one of %v)", *model, perfmodel.Kinds())}
	}
	if *environment == "" {
		*environment = "bayreuth"
	}
	if *seed == 0 {
		*seed = s.opts.Seed
	}
	return nil
}

// build resolves a request into a schedule, the model it used and the
// environment's cluster, pulling the fitted model from the registry.
func (s *Service) build(req *ScheduleRequest) (*sched.Schedule, perfmodel.Model, *simgrid.Net, bool, error) {
	if err := s.normalize(req); err != nil {
		return nil, nil, nil, false, err
	}
	algo, err := sched.ByName(req.Algorithm)
	if err != nil {
		return nil, nil, nil, false, badRequest{err}
	}
	truth, err := s.registry.Environment(req.Environment)
	if err != nil {
		return nil, nil, nil, false, badRequest{err}
	}
	model, hit, err := s.registry.Get(ModelKey{Environment: req.Environment, Kind: req.Model, Seed: req.Seed})
	if err != nil {
		return nil, nil, nil, false, err
	}
	c := truth.Cluster
	schedule, err := s.buildSchedule(algo, req.DAG, c, model, req.Model)
	if err != nil {
		return nil, nil, nil, false, err
	}
	net, err := s.net(req.Environment, c)
	if err != nil {
		return nil, nil, nil, false, err
	}
	return schedule, model, net, hit, nil
}

// buildSchedule runs one scheduling pass under the given model, mapping
// heterogeneously when the cluster is. Shared by the single and batched
// paths so their schedules agree by construction. Builds go through a pooled
// scheduling scratch and are detached with Clone before the scratch returns
// to the pool, so concurrent requests reuse buffers without aliasing each
// other's responses.
func (s *Service) buildSchedule(algo sched.Algorithm, g *dag.Graph, c platform.Cluster, model perfmodel.Model, kind string) (*sched.Schedule, error) {
	cost := perfmodel.CostFunc(model)
	sc := sched.AcquireScratch()
	sc.Bind(g, c.Nodes, cost)
	schedule, err := sc.BuildOn(algo, c, perfmodel.CommFunc(model, c))
	if err == nil {
		schedule = schedule.Clone()
	}
	sched.ReleaseScratch(sc)
	if err != nil {
		return nil, err
	}
	schedule.Model = kind
	return schedule, nil
}

// Schedule computes a schedule and its simulated makespan.
func (s *Service) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	schedule, model, net, hit, err := s.build(&req)
	if err != nil {
		return nil, err
	}
	sim, err := tgrid.Makespan(net, schedule, tgrid.ModelTiming{Model: model})
	if err != nil {
		return nil, err
	}
	resp := &ScheduleResponse{
		Algorithm:   req.Algorithm,
		Model:       req.Model,
		Environment: req.Environment,
		Seed:        req.Seed,
		CacheHit:    hit,
		EstMakespan: schedule.EstMakespan(),
		SimMakespan: sim,
	}
	for _, id := range schedule.Order() {
		resp.Tasks = append(resp.Tasks, ScheduledTask{
			ID:        id,
			Name:      req.DAG.Task(id).Name,
			P:         schedule.Alloc[id],
			Hosts:     schedule.Hosts[id],
			EstStart:  schedule.EstStart[id],
			EstFinish: schedule.EstFinish[id],
		})
	}
	return resp, nil
}

// ---------------------------------------------------------------- simulate

// SimulatedTask is one task of a simulated execution timeline.
type SimulatedTask struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	P       int     `json:"p"`
	Hosts   []int   `json:"hosts"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Startup float64 `json:"startup"`
}

// SimulateResponse is the simulated timeline of a schedule.
type SimulateResponse struct {
	Algorithm   string          `json:"algorithm"`
	Model       string          `json:"model"`
	Environment string          `json:"environment"`
	Seed        int64           `json:"seed"`
	CacheHit    bool            `json:"cache_hit"`
	Makespan    float64         `json:"makespan"`
	Tasks       []SimulatedTask `json:"tasks"`
}

// simulateTimeline replays one schedule on a pooled replayer and assembles
// the per-task timeline from the windows it recorded. Both the single and
// batched simulate paths go through it, so a batch item is identical to the
// corresponding single response by construction.
func simulateTimeline(g *dag.Graph, schedule *sched.Schedule, model perfmodel.Model, net *simgrid.Net) (float64, []SimulatedTask, error) {
	// Released on success only: a replayer held at an error or a panic is
	// dropped, never pooled.
	rep := tgrid.AcquireReplayer()
	makespan, err := rep.Simulate(net, schedule, tgrid.ModelTiming{Model: model})
	if err != nil {
		return 0, nil, err
	}
	tasks := make([]SimulatedTask, 0, g.Len())
	for _, id := range schedule.Order() {
		start, finish, startup := rep.TaskWindow(id)
		tasks = append(tasks, SimulatedTask{
			ID:      id,
			Name:    g.Task(id).Name,
			P:       schedule.Alloc[id],
			Hosts:   schedule.Hosts[id],
			Start:   start,
			Finish:  finish,
			Startup: startup,
		})
	}
	tgrid.ReleaseReplayer(rep)
	return makespan, tasks, nil
}

// Simulate computes a schedule and returns the simulator's full per-task
// timeline — one of the paper's simulators as a service call.
func (s *Service) Simulate(ctx context.Context, req ScheduleRequest) (*SimulateResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	schedule, model, net, hit, err := s.build(&req)
	if err != nil {
		return nil, err
	}
	makespan, tasks, err := simulateTimeline(req.DAG, schedule, model, net)
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{
		Algorithm:   req.Algorithm,
		Model:       req.Model,
		Environment: req.Environment,
		Seed:        req.Seed,
		CacheHit:    hit,
		Makespan:    makespan,
		Tasks:       tasks,
	}, nil
}

// SimulateBatchRequest asks for the simulated timelines of many DAGs that
// share one (algorithm, model, environment, seed) tuple. The expensive parts
// of request handling — model-registry resolution (which may trigger a
// fitting campaign on a cold cache) and network construction — are paid once
// and amortized over the whole batch, and the per-DAG builds and replays run
// on pooled scratches and replayers.
type SimulateBatchRequest struct {
	// DAGs are the applications, in the cmd/daggen node/edge-list format.
	DAGs []*dag.Graph `json:"dags"`
	// Algorithm selects the scheduler for every DAG (default "HCPA").
	Algorithm string `json:"algorithm,omitempty"`
	// Model selects the performance model (default "analytic").
	Model string `json:"model,omitempty"`
	// Environment selects the modelled environment (default "bayreuth").
	Environment string `json:"environment,omitempty"`
	// Seed selects the measurement campaign (0 = the service default).
	Seed int64 `json:"seed,omitempty"`
}

// SimulateBatchItem is one DAG's simulated execution within a batch.
type SimulateBatchItem struct {
	Makespan float64         `json:"makespan"`
	Tasks    []SimulatedTask `json:"tasks"`
}

// SimulateBatchResponse reports a batched simulation: the shared resolution
// once, then one item per input DAG, in input order.
type SimulateBatchResponse struct {
	Algorithm   string `json:"algorithm"`
	Model       string `json:"model"`
	Environment string `json:"environment"`
	Seed        int64  `json:"seed"`
	// CacheHit reports whether the batch's single model lookup hit the
	// registry cache.
	CacheHit bool                `json:"cache_hit"`
	Results  []SimulateBatchItem `json:"results"`
}

// SimulateBatch schedules and simulates every DAG of the batch under one
// model resolution. Per-DAG work runs on the service's worker pool with
// index-addressed results, so responses are deterministic for any
// parallelism; the first failing DAG (by input order) aborts the batch.
func (s *Service) SimulateBatch(ctx context.Context, req SimulateBatchRequest) (*SimulateBatchResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(req.DAGs) == 0 {
		return nil, badRequest{fmt.Errorf("service: batch has no dags")}
	}
	for i, g := range req.DAGs {
		if g == nil || g.Len() == 0 {
			return nil, badRequest{fmt.Errorf("service: batch dag %d is empty", i)}
		}
	}
	if err := s.normalizeNames(&req.Algorithm, &req.Model, &req.Environment, &req.Seed); err != nil {
		return nil, err
	}
	algo, err := sched.ByName(req.Algorithm)
	if err != nil {
		return nil, badRequest{err}
	}
	truth, err := s.registry.Environment(req.Environment)
	if err != nil {
		return nil, badRequest{err}
	}
	// One registry resolution for the whole batch.
	model, hit, err := s.registry.Get(ModelKey{Environment: req.Environment, Kind: req.Model, Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	c := truth.Cluster
	net, err := s.net(req.Environment, c)
	if err != nil {
		return nil, err
	}

	resp := &SimulateBatchResponse{
		Algorithm:   req.Algorithm,
		Model:       req.Model,
		Environment: req.Environment,
		Seed:        req.Seed,
		CacheHit:    hit,
		Results:     make([]SimulateBatchItem, len(req.DAGs)),
	}
	err = experiments.ForEachCellCtx(ctx, s.opts.Parallelism, len(req.DAGs), func(i int) error {
		g := req.DAGs[i]
		schedule, err := s.buildSchedule(algo, g, c, model, req.Model)
		if err != nil {
			return fmt.Errorf("service: batch dag %d: %w", i, err)
		}
		makespan, tasks, err := simulateTimeline(g, schedule, model, net)
		if err != nil {
			return fmt.Errorf("service: batch dag %d: %w", i, err)
		}
		resp.Results[i] = SimulateBatchItem{Makespan: makespan, Tasks: tasks}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// ------------------------------------------------------------- study jobs

// StudyRequest submits one of the evaluation's studies as an async job.
type StudyRequest struct {
	// Study names the study, one of experiments.StudyNames, as in
	// cmd/mixedsim -experiment.
	Study string `json:"study"`
	// Environment selects the lab's ground truth (default "bayreuth");
	// the standalone studies, which assemble their own, ignore it.
	Environment string `json:"environment,omitempty"`
	// Seed overrides the noise seed (0 = service default).
	Seed int64 `json:"seed,omitempty"`
	// SuiteSeed overrides the Table I suite seed (0 = service default).
	SuiteSeed int64 `json:"suite_seed,omitempty"`
	// Trials overrides the emulated runs per measured makespan (0 = 1).
	Trials int `json:"trials,omitempty"`
}

// studies is the study family: a job of kind "table1", "fig1", … runs one
// of the evaluation's studies as a plan over the study table's cells, so a
// multi-cell study shards over claim loops and replicas like any other job.
// Its read routes are the generic "jobs", which serve every job.
func (s *Service) studies() *Family {
	return &Family{Name: "study", Kinds: experiments.StudyNames(), Route: "jobs", Noun: "job",
		Prepare: func(spec []byte, d Defaults) (Plan, error) {
			var req StudyRequest
			if err := json.Unmarshal(spec, &req); err != nil {
				return nil, err
			}
			return s.planStudy(req, d)
		}}
}

// planStudy validates a study request — a known study and environment
// ("bayreuth" when empty) — fills its zero seeds from d and resolves it
// against the study table. It builds no lab and fits nothing: the plan does
// that when its first cell runs.
func (s *Service) planStudy(req StudyRequest, d Defaults) (Plan, error) {
	req.Environment = cmp.Or(req.Environment, "bayreuth")
	truth, err := s.registry.Environment(req.Environment)
	if err != nil {
		return nil, err
	}
	req.Seed, req.SuiteSeed = cmp.Or(req.Seed, d.Seed), cmp.Or(req.SuiteSeed, d.SuiteSeed)
	cfg := experiments.DefaultConfig()
	cfg.NoiseSeed, cfg.SuiteSeed, cfg.ExpTrials = req.Seed, req.SuiteSeed, max(req.Trials, 1)
	cfg.Parallelism, cfg.Profile, cfg.Empirical = s.opts.Parallelism, s.opts.Profile, s.opts.Empirical
	p, err := experiments.PlanStudy(req.Study, cfg, truth.Cluster.Nodes,
		func() (*experiments.Lab, error) { return s.lab(req.Environment, cfg) })
	if err != nil {
		return nil, err
	}
	canonical, err := json.Marshal(req)
	return studyPlan{p, canonical}, err
}

// studyPlan is a study job's plan: the study table's plan and the
// canonical request it was resolved from.
type studyPlan struct {
	*experiments.Plan
	spec []byte
}

func (p studyPlan) Label() string { return p.Study() }
func (p studyPlan) Spec() []byte  { return p.spec }

// lab returns the lazily assembled lab for a study request, reusing the
// registry's fitted models: the campaigns run once per (environment, seed)
// no matter how many labs and requests share them.
func (s *Service) lab(env string, cfg experiments.Config) (*experiments.Lab, error) {
	key := labKey{env: env, seed: cfg.NoiseSeed, suiteSeed: cfg.SuiteSeed, trials: cfg.ExpTrials}
	s.labMu.Lock()
	e, ok := s.labs[key]
	if !ok {
		e = &resolved[*experiments.Lab]{}
		s.labs[key] = e
	}
	s.labMu.Unlock()
	e.once.Do(func() {
		truth, em, prof, emp, err := s.registry.Campaign(env, cfg.NoiseSeed)
		if e.err = err; err == nil {
			e.v, e.err = experiments.AssembleLab(cfg, truth, em, prof, emp)
		}
	})
	return e.v, e.err
}

// SubmitStudy validates a study request — a known study and environment
// ("bayreuth" when empty) — and queues it as an async job of the study's
// kind ("table1", "fig1", …).
func (s *Service) SubmitStudy(req StudyRequest) (JobStatus, error) {
	p, err := s.planStudy(req, s.defaults())
	return s.enqueue(s.named("study"), p, err)
}

// RunStudy executes one study synchronously and returns the rendered
// report, byte-identical to cmd/mixedsim's output for the same seeds (both
// render through the experiments study table; only the lab's provenance
// differs — the service assembles its labs from registry-cached fits).
func (s *Service) RunStudy(ctx context.Context, req StudyRequest) (string, error) {
	p, err := s.planStudy(req, s.defaults())
	if err != nil {
		return "", err
	}
	return p.Run(ctx, nil)
}
