// Package experiments orchestrates the paper's evaluation (§V–§VII): it
// assembles the platform, the ground-truth environment, the three simulator
// models and the 54-DAG workload, and regenerates every table and figure.
// Each experiment returns a typed result with a Write method that prints
// the same rows/series the paper reports.
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
	"repro/internal/tgrid"
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

// recordCache holds the cached pipeline runs per model name, plus the
// in-flight markers that let concurrent RunSuite callers coalesce on one
// computation instead of racing to duplicate it.
type recordCache struct {
	mu       sync.Mutex
	records  map[string][]Record
	inflight map[string]chan struct{} // closed when the winner finishes
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

// runner returns the lab's study-execution engine.
func (l *Lab) runner() Runner {
	return Runner{Workers: l.Cfg.Parallelism, Seed: l.Cfg.NoiseSeed, Em: l.Em, Ctx: l.ctx}
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
		cache: &recordCache{
			records:  make(map[string][]Record),
			inflight: make(map[string]chan struct{}),
		},
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

// ModelNames lists the three simulator variants in paper order.
func ModelNames() []string { return []string{"analytic", "profile", "empirical"} }

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
// results are cached per model name, and concurrent callers for the same
// model coalesce on a single computation.
func (l *Lab) RunSuite(modelName string) ([]Record, error) {
	ctx := l.context()
	c := l.cache
	for {
		if err := ctx.Err(); err != nil {
			return nil, err // honour WithContext even when the cache could answer
		}
		c.mu.Lock()
		if recs, ok := c.records[modelName]; ok {
			c.mu.Unlock()
			return recs, nil
		}
		wait, running := c.inflight[modelName]
		if !running {
			c.inflight[modelName] = make(chan struct{})
			c.mu.Unlock()
			break // this caller computes
		}
		c.mu.Unlock()
		select {
		case <-wait:
			// The winner finished (or failed — then the next lap retries).
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	recs, err := l.runSuite(modelName)
	c.mu.Lock()
	if err == nil {
		c.records[modelName] = recs
	}
	wait := c.inflight[modelName]
	delete(c.inflight, modelName)
	c.mu.Unlock()
	close(wait)
	return recs, err
}

// runSuite computes the suite records of one model (the cache-miss path).
func (l *Lab) runSuite(modelName string) ([]Record, error) {
	model, err := l.Model(modelName)
	if err != nil {
		return nil, err
	}
	builder := buildWith(model, l.Cluster())
	timing := tgrid.Timing(tgrid.ModelTiming{Model: model})
	algos := ComparedAlgorithms()

	recs := make([]Record, len(l.Suite))
	err = l.runner().Run("suite/"+modelName, len(l.Suite), func(i int, sess *cluster.Session) error {
		inst := l.Suite[i]
		rec := Record{
			Instance: inst,
			Sim:      make(map[string]float64, len(algos)),
			Exp:      make(map[string]float64, len(algos)),
		}
		build := builder.bind(inst.Graph)
		for _, algo := range algos {
			s, err := build.build(algo)
			if err != nil {
				return fmt.Errorf("experiments: %s/%s on %s: %w",
					modelName, algo.Name(), inst.Params.Name(), err)
			}
			sim, err := tgrid.Makespan(l.Net, s, timing)
			if err != nil {
				return fmt.Errorf("experiments: simulate %s/%s on %s: %w",
					modelName, algo.Name(), inst.Params.Name(), err)
			}
			exp, err := sess.MeasureMakespan(s, l.Cfg.ExpTrials)
			if err != nil {
				return fmt.Errorf("experiments: execute %s/%s on %s: %w",
					modelName, algo.Name(), inst.Params.Name(), err)
			}
			rec.Sim[algo.Name()] = sim
			rec.Exp[algo.Name()] = exp
		}
		recs[i] = rec
		build.release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}
