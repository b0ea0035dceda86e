package perfmodel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
)

// Perturbation is one deterministic draw of model-parameter noise: the
// robustness engine (internal/robust) perturbs a fitted model's predictions
// — task execution times, task-startup overheads and redistribution
// overheads — to ask how wrong the model can be before the scheduling
// conclusions built on it flip (the §V question, quantified). Each component
// pairs a multiplicative factor with an additive offset in seconds; the
// identity draw (all factors 1, all offsets 0) leaves the base model's
// predictions bit-for-bit untouched.
type Perturbation struct {
	// TaskFactor and TaskOffset perturb TaskTime predictions.
	TaskFactor, TaskOffset float64
	// StartupFactor and StartupOffset perturb StartupOverhead predictions.
	StartupFactor, StartupOffset float64
	// RedistFactor and RedistOffset perturb RedistOverhead predictions.
	RedistFactor, RedistOffset float64
	// TaskShape, StartupShape and RedistShape are the sigmas of structured
	// per-configuration error surfaces: every distinct prediction point —
	// (kernel, n, p) for task times, p for startups, (pSrc, pDst) for
	// redistributions — gets its own fixed lognormal factor exp(z·sigma),
	// deterministic in Salt. A factor perturbs every prediction the same
	// way (a systematic bias); a shape perturbs each configuration
	// independently, which is how fitted models are actually wrong
	// (Figure 2's per-(n, p) error fluctuation). 0 disables a surface.
	TaskShape, StartupShape, RedistShape float64
	// Salt seeds the error surfaces; draws with different salts are
	// decorrelated surfaces of the same magnitude.
	Salt uint64
}

// IdentityPerturbation returns the no-op draw.
func IdentityPerturbation() Perturbation {
	return Perturbation{TaskFactor: 1, StartupFactor: 1, RedistFactor: 1}
}

// IsIdentity reports whether the draw leaves every prediction unchanged
// (the salt of disabled surfaces is irrelevant).
func (p Perturbation) IsIdentity() bool {
	p.Salt = 0
	return p == IdentityPerturbation()
}

// Perturbed wraps a fitted Model with a fixed Perturbation. Predictions are
// clamped at zero (a perturbed overhead can shrink to nothing but never
// become a time machine), so any perturbed model is still a valid Model for
// both the scheduling algorithms and the simulator.
//
// Each error-surface point is drawn once: the first prediction at a point
// stores its factor in a private table, and every later prediction there
// reads the stored bits. The table is safe for concurrent readers, so one
// model can serve every worker of a robustness trial. A Perturbed must not
// be copied after first use.
type Perturbed struct {
	// Base is the fitted model being perturbed.
	Base Model
	// P is the fixed draw applied to every prediction.
	P Perturbation

	mu        sync.Mutex                   // serialises table inserts and growth
	table     atomic.Pointer[surfaceTable] // nil until the first surface draw
	overflows atomic.Uint64                // draws that bypassed a full table
}

// NewPerturbed validates the draw and wraps the base model. Every field must
// be finite (a NaN or infinite draw would poison every prediction). Factors
// must be non-negative (a negative factor would not model "the fit is off by
// x%", it would invert the prediction's meaning), and so must the shape
// sigmas.
func NewPerturbed(base Model, p Perturbation) (*Perturbed, error) {
	if base == nil {
		return nil, fmt.Errorf("perfmodel: perturbed base model is nil")
	}
	for _, v := range [...]float64{p.TaskFactor, p.TaskOffset, p.StartupFactor, p.StartupOffset,
		p.RedistFactor, p.RedistOffset, p.TaskShape, p.StartupShape, p.RedistShape} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfmodel: perturbation fields must be finite, got %+v", p)
		}
	}
	if p.TaskFactor < 0 || p.StartupFactor < 0 || p.RedistFactor < 0 {
		return nil, fmt.Errorf("perfmodel: perturbation factors must be non-negative, got %+v", p)
	}
	if p.TaskShape < 0 || p.StartupShape < 0 || p.RedistShape < 0 {
		return nil, fmt.Errorf("perfmodel: perturbation shape sigmas must be non-negative, got %+v", p)
	}
	return &Perturbed{Base: base, P: p}, nil
}

// Name implements Model.
func (m *Perturbed) Name() string { return m.Base.Name() + "~perturbed" }

// SurfaceOverflows reports how many error-surface draws bypassed the model's
// table because it was full. A nonzero count changes no prediction, only
// the cost of computing it.
func (m *Perturbed) SurfaceOverflows() uint64 { return m.overflows.Load() }

// taskFactor is the full multiplicative factor of one task configuration:
// the global factor times the configuration's error-surface point.
func (m *Perturbed) taskFactor(task *dag.Task, p int) float64 {
	f := m.P.TaskFactor
	if m.P.TaskShape > 0 {
		k, n, q := uint64(task.Kernel), uint64(task.N), uint64(p)
		var key uint32
		if k < 1<<3 && n < 1<<16 && q < 1<<11 {
			key = uint32(1<<30 | k<<27 | n<<11 | q)
		}
		f *= m.surfacePoint(key, m.P.TaskShape, 1, k, n, q)
	}
	return f
}

// TaskTime implements Model.
func (m *Perturbed) TaskTime(task *dag.Task, p int) float64 {
	return clampNonNeg(float64(m.Base.TaskTime(task, p)*m.taskFactor(task, p)) + m.P.TaskOffset)
}

// StartupOverhead implements Model.
func (m *Perturbed) StartupOverhead(p int) float64 {
	f := m.P.StartupFactor
	if m.P.StartupShape > 0 {
		q := uint64(p)
		var key uint32
		if q < 1<<30 {
			key = uint32(2<<30 | q)
		}
		f *= m.surfacePoint(key, m.P.StartupShape, 2, q)
	}
	return clampNonNeg(float64(m.Base.StartupOverhead(p)*f) + m.P.StartupOffset)
}

// RedistOverhead implements Model.
func (m *Perturbed) RedistOverhead(pSrc, pDst int) float64 {
	f := m.P.RedistFactor
	if m.P.RedistShape > 0 {
		s, d := uint64(pSrc), uint64(pDst)
		var key uint32
		if s < 1<<15 && d < 1<<15 {
			key = uint32(3<<30 | s<<15 | d)
		}
		f *= m.surfacePoint(key, m.P.RedistShape, 3, s, d)
	}
	return clampNonNeg(float64(m.Base.RedistOverhead(pSrc, pDst)*f) + m.P.RedistOffset)
}

// TaskPtask implements Model. A multiplicative-only task perturbation keeps
// the base model's parallel-task description, with the per-rank flop counts
// scaled by the configuration's factor — L07 contention semantics survive,
// and the task's compute time scales exactly like TaskTime. An additive
// offset has no per-rank flop representation, so the task falls back to a
// fixed TaskTime duration (the same degradation the measured models use,
// §VI-D).
func (m *Perturbed) TaskPtask(task *dag.Task, p int) ([]float64, [][]float64) {
	comp, bytes := m.Base.TaskPtask(task, p)
	if comp == nil && bytes == nil {
		return nil, nil
	}
	if m.P.TaskOffset != 0 {
		return nil, nil
	}
	f := m.taskFactor(task, p)
	if f == 1 {
		return comp, bytes
	}
	scaled := make([]float64, len(comp))
	for i, c := range comp {
		scaled[i] = c * f
	}
	return scaled, bytes
}

// TaskPtaskScale reports the factor relating this draw's parallel-task
// description to the base model's (see TaskPtask): multiplicative-only task
// noise scales the base per-rank flop counts by the configuration's factor,
// while an additive offset has no per-rank representation, so no factor
// exists and callers must fall back to the fixed TaskTime path. This is the
// tgrid.TimingScaler hook that lets schedule replay re-arm recorded tasks
// without materialising perturbed descriptions.
func (m *Perturbed) TaskPtaskScale(task *dag.Task, p int) (float64, bool) {
	if m.P.TaskOffset != 0 {
		return 0, false
	}
	return m.taskFactor(task, p), true
}

// surfacePoint returns the error-surface point exp(shape·surfaceNormal(Salt,
// keys...)), keyed in the table by its packed coordinates key. The surface
// id sits in the key's top two bits, so 0 is never a packed key; key 0 means
// the coordinates do not fit the packing and the point is drawn every time.
func (m *Perturbed) surfacePoint(key uint32, shape float64, keys ...uint64) float64 {
	t := m.table.Load()
	if t != nil && t.draw != m.drawID() {
		key = 0 // the table belongs to the draw P held before it changed
	}
	if key != 0 && t != nil {
		if v, ok := t.get(key); ok {
			return v
		}
	}
	v := math.Exp(shape * surfaceNormal(m.P.Salt, keys...))
	if key != 0 {
		m.insert(key, v)
	}
	return v
}

// insert stores a freshly drawn point; the caller has checked that the
// table, if any, was filled under the current draw. The table is allocated
// on the first draw, records that draw, doubles by copy-on-write up to
// maxSurfaceSlots and is published atomically; past that, points are drawn
// directly and counted as overflows.
func (m *Perturbed) insert(key uint32, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.drawID()
	t := m.table.Load()
	if t == nil {
		t = newSurfaceTable(id, minSurfaceSlots)
		m.table.Store(t)
	}
	if _, ok := t.get(key); ok {
		return // another reader drew the same point first
	}
	if 4*(t.n+1) > 3*len(t.keys) {
		if len(t.keys) >= maxSurfaceSlots {
			m.overflows.Add(1)
			return
		}
		g := newSurfaceTable(id, 2*len(t.keys))
		for i := range t.keys {
			if k := t.keys[i].Load(); k != 0 {
				g.put(k, t.vals[i].Load())
			}
		}
		t = g
		m.table.Store(t)
	}
	t.put(key, math.Float64bits(v))
}

// drawID is the part of the draw the surface points depend on.
func (m *Perturbed) drawID() surfaceDraw {
	return surfaceDraw{m.P.Salt, m.P.TaskShape, m.P.StartupShape, m.P.RedistShape}
}

// Error-surface table bounds: a table starts small, since a tiny robustness
// cell draws a handful of points per trial, and stops growing at a size a
// 32-node trial never fills.
const (
	minSurfaceSlots = 32
	maxSurfaceSlots = 1024
)

// surfaceDraw identifies the draw a table was filled under.
type surfaceDraw struct {
	salt                  uint64
	task, startup, redist float64
}

// surfaceTable is an open-addressed, linearly probed map from packed point
// coordinates to the point's float64 bits. Readers probe it without a lock;
// inserts run under the owning model's mutex and store a slot's value
// before its key, so a reader that sees the key also sees the value.
type surfaceTable struct {
	draw  surfaceDraw
	shift uint // 64 - log2(len(keys))
	n     int  // occupied slots; written under the owner's mutex
	keys  []atomic.Uint32
	vals  []atomic.Uint64
}

func newSurfaceTable(draw surfaceDraw, size int) *surfaceTable {
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	return &surfaceTable{draw: draw, shift: shift, keys: make([]atomic.Uint32, size), vals: make([]atomic.Uint64, size)}
}

// get returns the point stored under key.
func (t *surfaceTable) get(key uint32) (float64, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := (uint64(key) * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i].Load() {
		case key:
			return math.Float64frombits(t.vals[i].Load()), true
		case 0:
			return 0, false
		}
	}
}

// put stores a point known to be absent; the table has a free slot.
func (t *surfaceTable) put(key uint32, bits uint64) {
	mask := uint64(len(t.keys) - 1)
	i := (uint64(key) * 0x9e3779b97f4a7c15) >> t.shift
	for t.keys[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.vals[i].Store(bits)
	t.keys[i].Store(key)
	t.n++
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// surfaceNormal returns a deterministic standard-normal variate keyed by
// (salt, keys): SplitMix64 finalizers turn the coordinates into two
// uniforms, Box-Muller turns those into a normal. Allocation-free, so the
// scheduling algorithms can evaluate perturbed predictions in their inner
// allocation loops at full speed.
func surfaceNormal(salt uint64, keys ...uint64) float64 {
	x := salt
	for _, k := range keys {
		x = mix64(x + k)
	}
	u1 := (float64(mix64(x)>>11) + 1) / float64(1<<53) // (0, 1]
	u2 := float64(mix64(x+1)>>11) / float64(1<<53)     // [0, 1)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
