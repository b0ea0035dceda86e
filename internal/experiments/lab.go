// Package experiments orchestrates the paper's evaluation (§V–§VII): it
// assembles the platform, the ground-truth environment, the three simulator
// models and the 54-DAG workload, and regenerates every table and figure.
// Every study is an entry of the study table (table.go): independent cells
// whose merge prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// Config selects the workload seeds and measurement effort.
type Config struct {
	// SuiteSeed derives the 54 random DAGs of Table I.
	SuiteSeed int64
	// NoiseSeed seeds the environment's run-to-run noise.
	NoiseSeed int64
	// ExpTrials is the number of emulated cluster runs averaged per
	// measured makespan (the paper executes each schedule once).
	ExpTrials int
	// Parallelism bounds the study-execution worker pool; zero selects one
	// worker per logical CPU. Study reports are byte-identical for every
	// value, including 1.
	Parallelism int
	// Profile configures the brute-force campaign of §VI.
	Profile profiler.ProfileOptions
	// Empirical configures the sparse campaign of §VII.
	Empirical profiler.EmpiricalOptions
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		SuiteSeed: 2011,
		NoiseSeed: 42,
		ExpTrials: 1,
		Profile:   profiler.DefaultProfileOptions(),
		Empirical: profiler.DefaultEmpiricalOptions(),
	}
}

// Lab is the assembled experimental setup: platform, environment, workload
// and the three simulator models (the profile-based and empirical models
// are built by actually running the measurement campaigns against the
// environment, never by reading its hidden curves).
type Lab struct {
	Cfg   Config
	Truth *cluster.Hidden
	Em    *cluster.Emulator
	Net   *simgrid.Net
	Suite []dag.SuiteInstance

	Analytic  *perfmodel.Analytic
	Profile   *perfmodel.Profile
	Empirical *perfmodel.Empirical

	// ctx, when non-nil, cancels the lab's studies (see WithContext).
	ctx context.Context
	// cache is shared between a lab and its WithContext copies.
	cache *recordCache
}

// recordCache holds the cached suite passes per model name.
type recordCache struct {
	mu      sync.Mutex
	records map[string][]Record
}

// WithContext returns a lab view whose studies abort once ctx is done:
// cells that have not started are skipped and the study returns ctx.Err().
// The view shares the environment, the models and the record cache with the
// receiver, so a long-running service can hand each request its own
// cancellable view of one lab.
func (l *Lab) WithContext(ctx context.Context) *Lab {
	view := *l
	view.ctx = ctx
	return &view
}

// context returns the lab's cancellation context (Background if unset).
func (l *Lab) context() context.Context {
	if l.ctx == nil {
		return context.Background()
	}
	return l.ctx
}

// session is the private measurement stream of cell i of the named study,
// the one the lab's runner hands that cell.
func (l *Lab) session(study string, i int) *cluster.Session {
	return l.Em.Session(CellSeed(l.Cfg.NoiseSeed, study, i))
}

// NewLab builds the full setup, including both profiling campaigns.
func NewLab(cfg Config) (*Lab, error) {
	truth := cluster.Bayreuth()
	em, err := cluster.NewEmulator(truth, cfg.NoiseSeed)
	if err != nil {
		return nil, err
	}
	prof, err := profiler.BuildProfileModel(em, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("experiments: profile campaign: %w", err)
	}
	emp, err := profiler.BuildEmpiricalModel(em, cfg.Empirical)
	if err != nil {
		return nil, fmt.Errorf("experiments: empirical campaign: %w", err)
	}
	return AssembleLab(cfg, truth, em, prof, emp)
}

// AssembleLab builds a lab around an already-measured environment: the
// caller supplies the ground truth, the emulator the campaigns probed and
// the two fitted models (typically from a registry cache that ran the
// campaigns once and reuses the fits across many labs — the paper's
// fit-once/reuse-many economics). Studies on the assembled lab are
// byte-identical to NewLab's for the same Config, provided the models were
// built the way NewLab builds them: profile campaign first, then empirical,
// on a fresh emulator seeded with Config.NoiseSeed.
func AssembleLab(cfg Config, truth *cluster.Hidden, em *cluster.Emulator,
	prof *perfmodel.Profile, emp *perfmodel.Empirical) (*Lab, error) {
	net, err := simgrid.NewNet(truth.Cluster)
	if err != nil {
		return nil, err
	}
	suite, err := dag.GenerateSuite(cfg.SuiteSeed)
	if err != nil {
		return nil, err
	}
	return &Lab{
		Cfg:       cfg,
		Truth:     truth,
		Em:        em,
		Net:       net,
		Suite:     suite,
		Analytic:  perfmodel.NewAnalytic(truth.Cluster),
		Profile:   prof,
		Empirical: emp,
		cache:     &recordCache{records: make(map[string][]Record)},
	}, nil
}

// Cluster returns the nominal platform.
func (l *Lab) Cluster() platform.Cluster { return l.Truth.Cluster }

// Model returns the simulator model by name ("analytic", "profile",
// "empirical").
func (l *Lab) Model(name string) (perfmodel.Model, error) {
	switch name {
	case "analytic":
		return l.Analytic, nil
	case "profile":
		return l.Profile, nil
	case "empirical":
		return l.Empirical, nil
	default:
		return nil, fmt.Errorf("experiments: unknown model %q", name)
	}
}

// Record is one suite instance pushed through the pipeline with one model:
// per-algorithm simulated and experimentally measured makespans.
type Record struct {
	Instance dag.SuiteInstance
	// Sim and Exp map algorithm name to makespan in seconds.
	Sim, Exp map[string]float64
}

// ComparedAlgorithms are the two algorithms of the case study.
func ComparedAlgorithms() []sched.Algorithm {
	return []sched.Algorithm{sched.HCPA{}, sched.MCPA{}}
}

// Positions of the two algorithms in ComparedAlgorithms.
const hcpa, mcpa = 0, 1

// RunSuite pushes the whole 54-DAG suite through the pipeline with the
// given model: schedule (per algorithm) → simulate → execute on the
// emulated cluster. Instances run as independent cells on the study engine;
// results are cached per model name.
func (l *Lab) RunSuite(modelName string) ([]Record, error) {
	ctx := l.context()
	if err := ctx.Err(); err != nil {
		return nil, err // honour WithContext even when the cache could answer
	}
	if recs := l.suiteRecords(modelName, nil); recs != nil {
		return recs, nil
	}
	recs := make([]Record, len(l.Suite))
	err := ForEachCellCtx(ctx, l.Cfg.Parallelism, len(l.Suite), func(i int) error {
		sc, err := l.suiteCell(modelName, i)
		recs[i] = sc.record(l.Suite[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return l.suiteRecords(modelName, recs), nil
}

// suiteRecords returns the model's cached suite pass, nil if the lab holds
// none, caching recs first when it holds none and recs is not nil.
func (l *Lab) suiteRecords(modelName string, recs []Record) []Record {
	l.cache.mu.Lock()
	defer l.cache.mu.Unlock()
	if kept, ok := l.cache.records[modelName]; ok || recs == nil {
		return kept
	}
	l.cache.records[modelName] = recs
	return recs
}

// suiteCell is the scoring cell of suite instance k under the named model,
// answered from the model's cached pass when the lab holds one.
func (l *Lab) suiteCell(modelName string, k int) (scored, error) {
	if recs := l.suiteRecords(modelName, nil); recs != nil {
		return scoredOf(recs[k].floats()), nil
	}
	model, err := l.Model(modelName)
	if err != nil {
		return scored{}, err
	}
	p := l.pass(model)
	return p.score(l.Suite[k].Graph, p.Session("suite/"+modelName, k))
}

// pass is the scoring pass of one of the lab's models on its environment.
func (l *Lab) pass(model perfmodel.Model) Pass {
	return NewPass(l.Em, l.Net, model, l.Cfg.NoiseSeed, l.Cfg.ExpTrials)
}

// record is a scored suite instance as a Record.
func (s scored) record(inst dag.SuiteInstance) Record {
	rec := Record{Instance: inst, Sim: make(map[string]float64, 2), Exp: make(map[string]float64, 2)}
	for ai, algo := range ComparedAlgorithms() {
		rec.Sim[algo.Name()], rec.Exp[algo.Name()] = s.sim[ai], s.exp[ai]
	}
	return rec
}

// floats is a Record as its scoring cell's float64s.
func (r Record) floats() []float64 {
	return []float64{r.Sim["HCPA"], r.Sim["MCPA"], r.Exp["HCPA"], r.Exp["MCPA"]}
}
