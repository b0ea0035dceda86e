package perfmodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/platform"
)

// directPerturbed is the perturbed model as it was before surface tables:
// every prediction draws its error-surface point afresh. It is the reference
// the tabled Perturbed must match bit for bit.
type directPerturbed struct {
	Base Model
	P    Perturbation
}

func (m *directPerturbed) taskFactor(task *dag.Task, p int) float64 {
	f := m.P.TaskFactor
	if m.P.TaskShape > 0 {
		f *= math.Exp(m.P.TaskShape * surfaceNormal(m.P.Salt, 1, uint64(task.Kernel), uint64(task.N), uint64(p)))
	}
	return f
}

func (m *directPerturbed) TaskTime(task *dag.Task, p int) float64 {
	return clampNonNeg(float64(m.Base.TaskTime(task, p)*m.taskFactor(task, p)) + m.P.TaskOffset)
}

func (m *directPerturbed) StartupOverhead(p int) float64 {
	f := m.P.StartupFactor
	if m.P.StartupShape > 0 {
		f *= math.Exp(m.P.StartupShape * surfaceNormal(m.P.Salt, 2, uint64(p)))
	}
	return clampNonNeg(float64(m.Base.StartupOverhead(p)*f) + m.P.StartupOffset)
}

func (m *directPerturbed) RedistOverhead(pSrc, pDst int) float64 {
	f := m.P.RedistFactor
	if m.P.RedistShape > 0 {
		f *= math.Exp(m.P.RedistShape * surfaceNormal(m.P.Salt, 3, uint64(pSrc), uint64(pDst)))
	}
	return clampNonNeg(float64(m.Base.RedistOverhead(pSrc, pDst)*f) + m.P.RedistOffset)
}

func (m *directPerturbed) TaskPtaskScale(task *dag.Task, p int) (float64, bool) {
	if m.P.TaskOffset != 0 {
		return 0, false
	}
	return m.taskFactor(task, p), true
}

// gridModel predicts a positive, coordinate-dependent value at every point,
// including coordinates no fitted model accepts (negative or huge), so the
// surface tables can be probed outside their packing range.
type gridModel struct{}

func (gridModel) Name() string { return "grid" }

func (gridModel) TaskTime(task *dag.Task, p int) float64 {
	return gridValue(uint64(task.Kernel), uint64(task.N), uint64(p))
}

func (gridModel) StartupOverhead(p int) float64 { return gridValue(uint64(p)) }

func (gridModel) RedistOverhead(pSrc, pDst int) float64 {
	return gridValue(uint64(pSrc), uint64(pDst))
}

func (g gridModel) TaskPtask(task *dag.Task, p int) ([]float64, [][]float64) {
	return []float64{g.TaskTime(task, p)}, nil
}

func gridValue(keys ...uint64) float64 {
	x := uint64(0)
	for _, k := range keys {
		x = mix64(x + k)
	}
	return 0.5 + float64(x>>11)/float64(1<<53)
}

// surfaceQuery is one prediction of each kind at one point.
type surfaceQuery struct {
	task        dag.Task
	p, src, dst int
}

// randomQuery mostly picks points from a small grid, so predictions repeat
// and hit the table, and sometimes picks coordinates at the edges of the
// packing range: the widest that fit their bit field, one past it, or
// negative.
func randomQuery(rng *rand.Rand) surfaceQuery {
	q := surfaceQuery{
		task: dag.Task{Kernel: dag.Kernel(rng.Intn(3)), N: []int{0, 100, 2000, 4000}[rng.Intn(4)]},
		p:    1 + rng.Intn(32), src: 1 + rng.Intn(16), dst: 1 + rng.Intn(16),
	}
	switch rng.Intn(10) {
	case 0:
		q.task.N = 1<<16 - 1 + rng.Intn(2)
	case 1:
		q.task.Kernel = dag.Kernel(7 + rng.Intn(2))
	case 2:
		q.p = 1<<11 - 1 + rng.Intn(2)
	case 3:
		q.p, q.src = -1-rng.Intn(4), -1-rng.Intn(4)
	case 4:
		q.src = 1<<15 - 1 + rng.Intn(2)
	case 5:
		q.dst = 1<<15 - 1 + rng.Intn(2)
	case 6:
		q.task.N, q.p = 1<<40, 1<<40
	case 7:
		q.task = dag.Task{Kernel: 7, N: 1<<16 - 1}
		q.p, q.src, q.dst = 1<<11-1, 1<<15-1, 1<<15-1
	}
	return q
}

func randomDraw(rng *rand.Rand) Perturbation {
	shape := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return 1.5 * rng.Float64()
	}
	offset := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return 0.1 * rng.NormFloat64()
	}
	return Perturbation{
		TaskFactor: 2 * rng.Float64(), TaskOffset: offset(),
		StartupFactor: 2 * rng.Float64(), StartupOffset: offset(),
		RedistFactor: 2 * rng.Float64(), RedistOffset: offset(),
		TaskShape: shape(), StartupShape: shape(), RedistShape: shape(),
		Salt: rng.Uint64(),
	}
}

// sameBits reports whether every prediction of m at q equals ref's, bit for
// bit.
func sameBits(t *testing.T, m *Perturbed, ref *directPerturbed, q surfaceQuery) bool {
	t.Helper()
	eq := func(what string, got, want float64) bool {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s at %+v = %v, want %v (draw %+v)", what, q, got, want, m.P)
			return false
		}
		return true
	}
	ok := eq("TaskTime", m.TaskTime(&q.task, q.p), ref.TaskTime(&q.task, q.p))
	ok = eq("StartupOverhead", m.StartupOverhead(q.p), ref.StartupOverhead(q.p)) && ok
	ok = eq("RedistOverhead", m.RedistOverhead(q.src, q.dst), ref.RedistOverhead(q.src, q.dst)) && ok
	f, fok := m.TaskPtaskScale(&q.task, q.p)
	rf, rok := ref.TaskPtaskScale(&q.task, q.p)
	if fok != rok {
		t.Errorf("TaskPtaskScale at %+v ok = %v, want %v", q, fok, rok)
		ok = false
	}
	return eq("TaskPtaskScale", f, rf) && ok
}

// TestSurfaceTableMatchesDirectDraw holds the tabled model to the direct
// draw, bit for bit, across random draws and points: repeated points (table
// hits), coordinates outside the packing range, a table filled past its
// cap, and P changed after use (the table then belongs to another draw).
func TestSurfaceTableMatchesDirectDraw(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		draw := randomDraw(rng)
		m := &Perturbed{Base: gridModel{}, P: draw}
		ref := &directPerturbed{Base: gridModel{}, P: draw}
		queries := make([]surfaceQuery, 200)
		for i := range queries {
			queries[i] = randomQuery(rng)
		}
		ok := true
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				ok = sameBits(t, m, ref, q) && ok
			}
		}

		// Change P after use, one field at a time: a new salt or shape is
		// another surface, which the table (filled under the old draw) must
		// not serve; a new factor or offset keeps the surface. Restoring P
		// serves the old table again.
		for _, change := range []func(*Perturbation){
			func(p *Perturbation) { p.Salt++ },
			func(p *Perturbation) { p.TaskShape += 0.25 },
			func(p *Perturbation) { p.StartupShape += 0.25 },
			func(p *Perturbation) { p.RedistShape += 0.25 },
			func(p *Perturbation) { p.TaskFactor *= 2; p.RedistOffset += 0.5 },
		} {
			other := draw
			change(&other)
			m.P, ref.P = other, other
			for _, q := range queries[:50] {
				ok = sameBits(t, m, ref, q) && ok
			}
		}
		m.P, ref.P = draw, draw

		for _, q := range queries[:50] {
			ok = sameBits(t, m, ref, q) && ok
		}

		// Past the cap: more distinct redistribution points than the
		// largest table holds, then the random points again.
		draw.RedistShape = 0.5
		full := &Perturbed{Base: gridModel{}, P: draw}
		fullRef := &directPerturbed{Base: gridModel{}, P: draw}
		for pass := 0; pass < 2; pass++ {
			for src := 1; src <= 40; src++ {
				for dst := 1; dst <= 40; dst++ {
					ok = sameBits(t, full, fullRef, surfaceQuery{task: queries[0].task, p: 1, src: src, dst: dst}) && ok
				}
			}
		}
		if full.SurfaceOverflows() == 0 {
			t.Errorf("1600 distinct points did not overflow a %d-slot table", maxSurfaceSlots)
			ok = false
		}
		for _, q := range queries {
			ok = sameBits(t, full, fullRef, q) && ok
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSurfaceTableFill checks the table's bookkeeping: every in-range point
// is stored once, out-of-range points are never stored, growth stops at the
// cap, and a full table still answers the points it holds.
func TestSurfaceTableFill(t *testing.T) {
	m := &Perturbed{Base: gridModel{}, P: Perturbation{RedistFactor: 1, RedistShape: 0.3, Salt: 5}}
	if m.table.Load() != nil {
		t.Fatal("table allocated before the first draw")
	}
	m.RedistOverhead(-1, 2)
	m.RedistOverhead(1<<15, 2)
	if m.table.Load() != nil {
		t.Fatal("out-of-range points allocated a table")
	}
	m.RedistOverhead(1, 2)
	if tab := m.table.Load(); tab == nil || len(tab.keys) != minSurfaceSlots || tab.n != 1 {
		t.Fatalf("first draw: table %+v, want %d slots holding 1 point", tab, minSurfaceSlots)
	}
	for i := 0; i < 3; i++ {
		for src := 1; src <= 40; src++ {
			for dst := 1; dst <= 40; dst++ {
				m.RedistOverhead(src, dst)
			}
		}
	}
	tab := m.table.Load()
	if len(tab.keys) != maxSurfaceSlots || tab.n != 3*maxSurfaceSlots/4 {
		t.Errorf("full table: %d slots holding %d points, want %d holding %d",
			len(tab.keys), tab.n, maxSurfaceSlots, 3*maxSurfaceSlots/4)
	}
	if got, want := m.SurfaceOverflows(), uint64(3*(1600-3*maxSurfaceSlots/4)); got != want {
		t.Errorf("overflows = %d, want %d", got, want)
	}
	// Every stored point holds exactly the bits of its draw.
	for i := range tab.keys {
		k := tab.keys[i].Load()
		if k == 0 {
			continue
		}
		src, dst := uint64(k>>15&(1<<15-1)), uint64(k&(1<<15-1))
		want := math.Exp(0.3 * surfaceNormal(5, 3, src, dst))
		if got := tab.vals[i].Load(); got != math.Float64bits(want) {
			t.Errorf("slot (%d, %d) holds %v, want %v", src, dst, math.Float64frombits(got), want)
		}
	}
}

// TestSurfaceTableConcurrentFill has eight goroutines fill and read one
// model at once, first all in the same point order (so they miss on the
// same points together), then each in its own order. Every prediction must
// match the direct draw. On a grid that fits the table, every point must be
// stored exactly once; on one past the cap, the values must still match.
func TestSurfaceTableConcurrentFill(t *testing.T) {
	draw := Perturbation{
		TaskFactor: 1.1, StartupFactor: 0.9, RedistFactor: 1.2,
		TaskShape: 0.4, StartupShape: 0.3, RedistShape: 0.5, Salt: 77,
	}
	ref := &directPerturbed{Base: gridModel{}, P: draw}
	for _, side := range []int{15, 30} {
		m := &Perturbed{Base: gridModel{}, P: draw}
		var queries []surfaceQuery
		for src := 1; src <= side; src++ {
			for dst := 1; dst <= side; dst++ {
				queries = append(queries, surfaceQuery{
					task: dag.Task{Kernel: dag.Kernel(src % 3), N: 1000 * dst}, p: src, src: src, dst: dst,
				})
			}
		}
		want := make([][3]float64, len(queries))
		for i, q := range queries {
			want[i] = [3]float64{ref.TaskTime(&q.task, q.p), ref.StartupOverhead(q.p), ref.RedistOverhead(q.src, q.dst)}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own := rand.New(rand.NewSource(int64(g))).Perm(len(queries))
				for pass := 0; pass < 2; pass++ {
					for k := range queries {
						i := k
						if pass == 1 {
							i = own[k]
						}
						q := queries[i]
						got := [3]float64{m.TaskTime(&q.task, q.p), m.StartupOverhead(q.p), m.RedistOverhead(q.src, q.dst)}
						if got != want[i] {
							errs <- "prediction differs from the direct draw"
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%d×%d grid: %s", side, side, e)
		}
		points := 2*side*side + side // task and redist per (src, dst), startup per src
		if tab := m.table.Load(); points <= 3*maxSurfaceSlots/4 && (tab.n != points || m.SurfaceOverflows() != 0) {
			t.Errorf("%d×%d grid: table holds %d points with %d overflows, want %d points and none",
				side, side, tab.n, m.SurfaceOverflows(), points)
		}
	}
}

var benchSink float64

// BenchmarkPerturbedPredictions compares a warm table hit with the direct
// draw it replaces, over one prediction of each kind at 64 points.
func BenchmarkPerturbedPredictions(b *testing.B) {
	base := NewAnalytic(platform.Bayreuth())
	draw := Perturbation{
		TaskFactor: 1, StartupFactor: 1, RedistFactor: 1,
		TaskShape: 0.2, StartupShape: 0.2, RedistShape: 0.2, Salt: 3,
	}
	task := perturbTask()
	type predictor interface {
		TaskTime(*dag.Task, int) float64
		StartupOverhead(int) float64
		RedistOverhead(int, int) float64
	}
	run := func(b *testing.B, m predictor) {
		for i := 0; i < b.N; i++ {
			p := 1 + i&63
			benchSink = m.TaskTime(task, p) + m.StartupOverhead(p) + m.RedistOverhead(p, 65-p)
		}
	}
	b.Run("table", func(b *testing.B) {
		m := &Perturbed{Base: base, P: draw}
		for p := 1; p <= 64; p++ { // warm every point
			m.TaskTime(task, p)
			m.StartupOverhead(p)
			m.RedistOverhead(p, 65-p)
		}
		b.ResetTimer()
		run(b, m)
	})
	b.Run("direct", func(b *testing.B) {
		run(b, &directPerturbed{Base: base, P: draw})
	})
}
