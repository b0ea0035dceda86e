// Package service turns the reproduction into a long-running scheduling
// service: a registry that fits the measured performance models once and
// caches them across requests (the paper's §VI/§VII economics — models are
// expensive to build, cheap to reuse), a bounded job queue for asynchronous
// study runs, and HTTP handlers plus a typed client used by cmd/reprosrv.
package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/store"
)

// Registry telemetry: how often model lookups hit the cache, how many
// fitting campaigns actually ran and how long they took, and how many
// callers were coalesced onto a build already in flight — the paper's
// fit-once economics, observable at runtime.
var (
	modelFits = obs.Default.Counter("repro_model_fits_total",
		"Fitting campaigns run (profile + empirical, once per environment and seed).")
	modelFitSeconds = obs.Default.Histogram("repro_model_fit_seconds",
		"Wall-clock duration of fitting campaigns.", obs.FitBuckets)
	modelHits = obs.Default.Counter("repro_model_cache_hits_total",
		"Model lookups served from cache.")
	modelMisses = obs.Default.Counter("repro_model_cache_misses_total",
		"Model lookups that were the first for their key.")
	modelCoalesced = obs.Default.Counter("repro_model_fit_coalesced_waits_total",
		"Model lookups that blocked on a fitting campaign another caller was already running.")
	modelLoads = obs.Default.Counter("repro_model_disk_loads_total",
		"Fitting campaigns skipped because a durable model cache entry was loaded instead.")
)

// ModelKey identifies one fitted model: the environment it was measured on,
// the model kind ("analytic", "profile", "empirical") and the noise seed of
// the measurement campaign. The analytic model needs no measurements; the
// other two are built by running the §VI/§VII campaigns against the
// environment exactly once per (environment, seed) and reused afterwards.
type ModelKey struct {
	Environment string `json:"environment"`
	Kind        string `json:"kind"`
	Seed        int64  `json:"seed"`
}

// ModelInfo describes one registry entry for GET /v1/models.
type ModelInfo struct {
	ModelKey
	// BuildMillis is the wall-clock cost this entry paid when it was first
	// requested: the full campaign for the key that triggered the build,
	// ~0 for keys that reused an existing campaign or the analytic model.
	BuildMillis float64 `json:"build_millis"`
	// Hits counts requests served from cache (requests after the first).
	Hits int64 `json:"hits"`
}

// EnvFunc constructs a ground-truth environment (a fresh value per call;
// Hidden is treated as immutable once built).
type EnvFunc func() *cluster.Hidden

// Environments lists the ground-truth environments the registry can serve,
// by name.
func Environments() map[string]EnvFunc {
	return map[string]EnvFunc{
		"bayreuth": cluster.Bayreuth,
		"modern":   cluster.Modern,
	}
}

// fitCampaign is the measured state of one (environment, seed): the
// emulator the campaigns probed and both fitted models. Models are built in
// NewLab order — profile first, then empirical, on a fresh emulator — so
// labs assembled from a campaign reproduce NewLab byte-for-byte.
type fitCampaign struct {
	once  sync.Once
	truth *cluster.Hidden
	em    *cluster.Emulator
	prof  *perfmodel.Profile
	emp   *perfmodel.Empirical
	err   error
	dur   time.Duration
	// fromDisk marks a build served from the durable model cache: the fitted
	// models were loaded instead of re-measured, so no campaign ran.
	fromDisk bool
	// done flips once the build finished (either way); campaignFor reads it
	// before blocking on once to tell a coalesced wait from a cheap re-read.
	done atomic.Bool
}

type campaignKey struct {
	env  string
	seed int64
}

// entry tracks per-ModelKey cache statistics.
type entry struct {
	built       bool
	buildMillis float64
	hits        int64
}

// ModelRegistry lazily builds and caches fitted performance models. It is
// safe for concurrent use; concurrent first requests for the same
// (environment, seed) run the measurement campaigns exactly once.
type ModelRegistry struct {
	profile   profiler.ProfileOptions
	empirical profiler.EmpiricalOptions
	envs      map[string]EnvFunc

	// st, when non-nil, is the durable model cache: fitted models are
	// persisted after a campaign and loaded instead of re-measured on later
	// runs (or by other replicas sharing the store directory).
	st *store.Store

	mu        sync.Mutex
	campaigns map[campaignKey]*fitCampaign
	entries   map[ModelKey]*entry
	analytic  map[string]*perfmodel.Analytic
}

// NewModelRegistry builds an empty registry over the standard environments.
func NewModelRegistry(profile profiler.ProfileOptions, empirical profiler.EmpiricalOptions) *ModelRegistry {
	return &ModelRegistry{
		profile:   profile,
		empirical: empirical,
		envs:      Environments(),
		campaigns: make(map[campaignKey]*fitCampaign),
		entries:   make(map[ModelKey]*entry),
		analytic:  make(map[string]*perfmodel.Analytic),
	}
}

// Environment resolves an environment name to a fresh ground truth.
func (r *ModelRegistry) Environment(name string) (*cluster.Hidden, error) {
	r.mu.Lock()
	mk, ok := r.envs[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown environment %q", name)
	}
	return mk(), nil
}

// RegisterEnv adds a derived environment (e.g. a scaled or re-parameterised
// platform built by the campaign engine) under the given name. The first
// registration of a name wins and later ones are no-ops, so callers that
// derive names deterministically from the platform parameters share one set
// of fitted models per derived platform.
func (r *ModelRegistry) RegisterEnv(name string, mk func() *cluster.Hidden) error {
	if name == "" {
		return fmt.Errorf("service: empty environment name")
	}
	if mk == nil {
		return fmt.Errorf("service: nil environment constructor for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.envs[name]; !ok {
		r.envs[name] = mk
	}
	return nil
}

// GetModel is Get with plain arguments; it exists so packages that cannot
// name ModelKey (campaign's ModelSource interface) can still count cache
// hits per lookup.
func (r *ModelRegistry) GetModel(env, kind string, seed int64) (perfmodel.Model, bool, error) {
	return r.Get(ModelKey{Environment: env, Kind: kind, Seed: seed})
}

// build runs both campaigns for a (environment, seed), exactly once, and
// reports whether this call was the one that ran them (callers that merely
// blocked on another goroutine's build get false). With a durable cache the
// campaigns are skipped when a saved fit for the key loads cleanly; study
// paths draw noise from per-cell sessions rather than the emulator's shared
// stream, so a fresh emulator plus loaded models reproduces the reports of
// a fitted run byte-for-byte.
func (c *fitCampaign) build(envName string, env EnvFunc, seed int64, p profiler.ProfileOptions, e profiler.EmpiricalOptions, st *store.Store) bool {
	ran := false
	c.once.Do(func() {
		ran = true
		defer c.done.Store(true)
		start := time.Now()
		c.truth = env()
		em, err := cluster.NewEmulator(c.truth, seed)
		if err != nil {
			c.err = err
			return
		}
		c.em = em
		if st != nil {
			if prof, emp, ok := st.LoadModels(envName, seed); ok {
				c.prof, c.emp = prof, emp
				c.fromDisk = true
				c.dur = time.Since(start)
				modelLoads.Inc()
				return
			}
		}
		if c.prof, c.err = profiler.BuildProfileModel(em, p); c.err != nil {
			return
		}
		// The sparse-campaign options are expressed for the paper's 32-node
		// reference platform; rescale the measurement points for derived
		// environments of a different size (identity at 32 nodes).
		e = e.ScaledTo(c.truth.Cluster.Nodes, platform.Bayreuth().Nodes)
		if c.emp, c.err = profiler.BuildEmpiricalModel(em, e); c.err != nil {
			return
		}
		c.dur = time.Since(start)
		if st != nil {
			// Persistence is best-effort: a failed save costs the next process
			// a refit, never correctness.
			_ = st.SaveModels(envName, seed, c.prof, c.emp, float64(c.dur)/float64(time.Millisecond))
		}
	})
	return ran
}

// campaignFor returns the measured state of (environment, seed), running
// the campaigns on first use. The bool reports whether this call ran them.
func (r *ModelRegistry) campaignFor(env string, seed int64) (*fitCampaign, bool, error) {
	key := campaignKey{env: env, seed: seed}
	r.mu.Lock()
	mk, ok := r.envs[env]
	if !ok {
		r.mu.Unlock()
		return nil, false, fmt.Errorf("service: unknown environment %q", env)
	}
	c, ok := r.campaigns[key]
	if !ok {
		c = &fitCampaign{}
		r.campaigns[key] = c
	}
	r.mu.Unlock()
	wasDone := c.done.Load()
	ran := c.build(env, mk, seed, r.profile, r.empirical, r.st)
	switch {
	case ran && c.fromDisk:
		// Served from the durable cache; no measurement campaign ran, so
		// neither the fit counter nor its histogram moves.
	case ran:
		modelFits.Inc()
		if c.err == nil {
			modelFitSeconds.Observe(c.dur.Seconds())
		}
	case !wasDone:
		// Another caller owned the build and this one blocked on it.
		modelCoalesced.Inc()
	}
	if c.err != nil {
		return nil, false, c.err
	}
	return c, ran, nil
}

// Campaign returns the measured state of (environment, seed), running the
// campaigns on first use. The returned values are shared and read-only.
func (r *ModelRegistry) Campaign(env string, seed int64) (*cluster.Hidden, *cluster.Emulator,
	*perfmodel.Profile, *perfmodel.Empirical, error) {
	c, _, err := r.campaignFor(env, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return c.truth, c.em, c.prof, c.emp, nil
}

// Get returns the fitted model for a key, building it on first use. The
// second return reports whether this request was a cache hit (the model
// had already been requested under the same key).
func (r *ModelRegistry) Get(key ModelKey) (perfmodel.Model, bool, error) {
	var model perfmodel.Model
	var buildMillis float64
	switch key.Kind {
	case "analytic":
		truth, err := r.Environment(key.Environment)
		if err != nil {
			return nil, false, err
		}
		r.mu.Lock()
		a, ok := r.analytic[key.Environment]
		if !ok {
			a = perfmodel.NewAnalytic(truth.Cluster)
			r.analytic[key.Environment] = a
		}
		r.mu.Unlock()
		model = a
	case "profile", "empirical":
		c, ran, err := r.campaignFor(key.Environment, key.Seed)
		if err != nil {
			return nil, false, err
		}
		if ran { // only the call that ran the campaigns owns their cost
			buildMillis = float64(c.dur) / float64(time.Millisecond)
		}
		if key.Kind == "profile" {
			model = c.prof
		} else {
			model = c.emp
		}
	default:
		return nil, false, fmt.Errorf("service: unknown model kind %q", key.Kind)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok {
		e = &entry{}
		r.entries[key] = e
	}
	hit := e.built
	if hit {
		e.hits++
		modelHits.Inc()
	} else {
		e.built = true
		e.buildMillis = buildMillis
		modelMisses.Inc()
	}
	return model, hit, nil
}

// SetStore attaches a durable model cache. Call before the first lookup;
// campaigns already in flight keep their original (cacheless) behaviour.
func (r *ModelRegistry) SetStore(st *store.Store) { r.st = st }

// Warm pre-registers every fit found in the durable cache, so a restarted
// (or newly joined) replica's GET /v1/models lists the keys measured in
// previous lives and the first lookup for each counts as a cache hit. The
// fitted models themselves still load lazily, on first use.
func (r *ModelRegistry) Warm() int {
	if r.st == nil {
		return 0
	}
	keys := r.st.ModelKeys()
	r.mu.Lock()
	defer r.mu.Unlock()
	warmed := 0
	for _, k := range keys {
		for _, kind := range []string{"profile", "empirical"} {
			mk := ModelKey{Environment: k.Environment, Kind: kind, Seed: k.Seed}
			if _, ok := r.entries[mk]; ok {
				continue
			}
			r.entries[mk] = &entry{built: true}
			warmed++
		}
	}
	return warmed
}

// Models lists the registry contents in a stable order.
func (r *ModelRegistry) Models() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, 0, len(r.entries))
	for key, e := range r.entries {
		out = append(out, ModelInfo{ModelKey: key, BuildMillis: e.buildMillis, Hits: e.hits})
	}
	sort.Slice(out, func(a, b int) bool {
		ka, kb := out[a].ModelKey, out[b].ModelKey
		if ka.Environment != kb.Environment {
			return ka.Environment < kb.Environment
		}
		if ka.Seed != kb.Seed {
			return ka.Seed < kb.Seed
		}
		return kindOrder(ka.Kind) < kindOrder(kb.Kind)
	})
	return out
}

func kindOrder(kind string) int {
	for i, k := range perfmodel.Kinds() {
		if k == kind {
			return i
		}
	}
	return len(perfmodel.Kinds())
}
