package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
)

// Scratch is the scheduler: it runs the CPA-family allocation loops, the
// baselines, the M-HEFT one-phase scheduler and both mapping phases, and
// owns every buffer they need, so repeated builds — the robustness engine's
// Monte Carlo trials, study, campaign and arrival cells, service requests —
// reuse storage instead of allocating it per schedule (the internal/simgrid
// solver pattern, one layer up). Build, MHEFT.Build and BuildHetero run on a
// pooled one.
//
// A Scratch additionally memoizes the bound cost function per (task, p):
// CPA-family allocation loops evaluate the same configurations thousands of
// times per build, and perturbed-model costs (exp/log/cos per call) dominate
// the trial loop's profile. Memoization is transparent because cost models
// are pure functions.
//
// Usage: Bind once per (graph, cluster size, cost model) context, then Build
// any number of algorithms against it — the memo persists across builds of
// the same binding. The returned schedule aliases the scratch's buffers and
// is invalidated by the next Build; callers that retain schedules must
// Clone them. A Scratch is not safe for concurrent use; AcquireScratch pools
// one per worker.
type Scratch struct {
	g    *dag.Graph
	p    int // cluster size
	cost dag.CostFunc

	// cost memo, epoch-stamped so rebinding is O(1).
	epoch    uint64
	memoVal  []float64
	memoEp   []uint64
	memoCost dag.CostFunc // bound method value, created once

	// per-graph caches (graphs are immutable once built).
	cachedG *dag.Graph
	topo    []int
	topoPos []int // topoPos[id] is id's index in topo
	entries []int
	levels  []int
	width   []int

	// allocation phase
	alloc   []int
	bl      []float64
	cp      []int
	area    []float64 // area[id] = cost(id, alloc[id])·alloc[id], T_A's terms
	dirty   []uint64  // bottom-level update marks, stamped with dirtyEp
	dirtyEp uint64

	// mapping phase
	nPredsLeft []int
	ready      []int
	hostsAt    []hostAvail // the host queue, kept in cmpHostAvail order
	hostsFlat  []int
	avail      []float64 // heterogeneous mapping: per-host next-free time
	order      []int     // heterogeneous mapping: hosts in candidate order

	// output schedule, reused across builds
	out Schedule
}

type hostAvail struct {
	host int
	at   float64
}

// NewScratch returns an empty scratch ready for Bind.
func NewScratch() *Scratch {
	sc := &Scratch{}
	sc.memoCost = sc.lookupCost
	return sc
}

// Scratch-pool telemetry, alongside the replayer pool's (internal/tgrid).
var (
	scratchAcquires = obs.Default.Counter("repro_pool_acquires_total",
		"Pool acquisitions, by pool.", obs.L("pool", "scratch"))
	scratchReleases = obs.Default.Counter("repro_pool_releases_total",
		"Pool releases, by pool.", obs.L("pool", "scratch"))
	scratchNews = obs.Default.Counter("repro_pool_news_total",
		"Pool misses that built a fresh object, by pool.", obs.L("pool", "scratch"))

	scratches = sync.Pool{New: func() any {
		scratchNews.Inc()
		return NewScratch()
	}}
)

// AcquireScratch returns a scratch from the process-wide pool — one warm
// scratch per concurrent worker in steady state, shared by every caller that
// builds schedules cell by cell or request by request. Bind it before use
// and pair the acquire with ReleaseScratch once the built schedule has been
// consumed (or Cloned).
func AcquireScratch() *Scratch {
	scratchAcquires.Inc()
	return scratches.Get().(*Scratch)
}

// ReleaseScratch returns a scratch to the pool; schedules it built are
// invalid from here on.
func ReleaseScratch(sc *Scratch) {
	scratchReleases.Inc()
	scratches.Put(sc)
}

// Bind sets the scheduling context. The cost memo is invalidated; per-graph
// analyses (topological order, entries, precedence levels) are recomputed
// only when the graph changes.
func (sc *Scratch) Bind(g *dag.Graph, clusterSize int, cost dag.CostFunc) {
	sc.g, sc.p, sc.cost = g, clusterSize, cost
	sc.epoch++
	need := g.Len() * max(clusterSize, 0) // builds refuse clusterSize < 1
	if cap(sc.memoVal) < need {
		sc.memoVal = make([]float64, need)
		sc.memoEp = make([]uint64, need)
	}
	sc.memoVal = sc.memoVal[:need]
	sc.memoEp = sc.memoEp[:need]
	if sc.cachedG != g {
		sc.cachedG = g
		topo, err := g.TopoOrder()
		if err != nil {
			panic(err) // same contract as dag's analyses on cyclic graphs
		}
		sc.topo = topo
		sc.topoPos = grow(sc.topoPos, len(topo))
		for i, id := range topo {
			sc.topoPos[id] = i
		}
		sc.entries = g.Entries()
		var nLevels int
		sc.levels, nLevels = g.Levels()
		if cap(sc.width) < nLevels {
			sc.width = make([]int, nLevels)
		}
		sc.width = sc.width[:nLevels]
		for i := range sc.width {
			sc.width[i] = 0
		}
		for _, l := range sc.levels {
			sc.width[l]++
		}
	}
}

// lookupCost is the memoized cost function bound at construction time (a
// method value, so Build paths can pass it around without allocating a
// closure per build).
func (sc *Scratch) lookupCost(t *dag.Task, p int) float64 {
	idx := t.ID*sc.p + p - 1
	if sc.memoEp[idx] == sc.epoch {
		return sc.memoVal[idx]
	}
	v := sc.cost(t, p)
	sc.memoVal[idx] = v
	sc.memoEp[idx] = sc.epoch
	return v
}

// Cost returns the scratch's memoized view of the bound cost function.
func (sc *Scratch) Cost() dag.CostFunc { return sc.memoCost }

// Build runs a CPA-family (or baseline) allocation phase plus the shared
// mapping phase against the bound context, entirely in scratch storage. The
// returned schedule aliases the scratch and is invalidated by the next
// build; Clone it to retain it.
func (sc *Scratch) Build(algo Algorithm, comm dag.CommFunc) (*Schedule, error) {
	if err := sc.check(algo.Name()); err != nil {
		return nil, err
	}
	alloc, err := sc.allocate(algo)
	if err != nil {
		return nil, err
	}
	s := sc.mapInto(alloc, comm)
	s.Algorithm = algo.Name()
	if err := s.Validate(sc.p); err != nil {
		return nil, err
	}
	return s, nil
}

// check refuses a build the bound context cannot serve.
func (sc *Scratch) check(name string) error {
	if sc.g == nil {
		return fmt.Errorf("sched: scratch build before Bind")
	}
	if sc.g.Len() == 0 {
		return fmt.Errorf("sched %s: empty application", name)
	}
	if sc.p < 1 {
		return fmt.Errorf("sched %s: cluster size %d", name, sc.p)
	}
	return nil
}

// allocate runs the allocation phase of a two-phase algorithm in scratch
// storage (no closures, no fresh slices).
func (sc *Scratch) allocate(algo Algorithm) ([]int, error) {
	n := sc.g.Len()
	if cap(sc.alloc) < n {
		sc.alloc = make([]int, n)
	}
	alloc := sc.alloc[:n]
	p := 0 // the baselines' one processor count
	switch a := algo.(type) {
	case CPA:
		return sc.cpaLoop(growNone, 0), nil
	case HCPA:
		floor := a.MinEfficiency
		if floor <= 0 {
			floor = DefaultMinEfficiency
		}
		return sc.cpaLoop(growHCPA, floor), nil
	case MCPA:
		return sc.cpaLoop(growMCPA, 0), nil
	case Sequential:
		p = 1
	case DataParallel:
		p = sc.p
	case Fixed:
		p = min(max(a.P, 1), sc.p)
	default:
		return nil, fmt.Errorf("sched: unknown algorithm %q", algo.Name())
	}
	for i := range alloc {
		alloc[i] = p
	}
	return alloc, nil
}

// growMode selects the CPA-family growth constraint without a per-build
// closure.
type growMode int

const (
	growNone growMode = iota
	growHCPA
	growMCPA
)

// cpaLoop is the CPA-family allocation loop, paying per iteration for what
// the iteration changed: one task's allocation. The bottom levels are
// computed once and then updated for the grown task and the ancestors it
// moves (updateBottomLevels); T_A's per-task terms are kept and only the
// grown task's is recomputed, then summed in task order; MCPA's per-level
// total is not recounted per candidate (its veto is implied by the cap).
// Every value comes from the same operations on the same operands as
// dag's CriticalPathLength, AverageArea and CriticalPath over a freshly
// computed vector would use, so the allocations are those of the textbook
// loop that recomputes all three per iteration.
func (sc *Scratch) cpaLoop(mode growMode, floor float64) []int {
	g, clusterSize, cost := sc.g, sc.p, sc.memoCost
	n := g.Len()
	alloc := sc.alloc[:n]
	for i := range alloc {
		alloc[i] = 1
	}
	if n == 0 {
		return alloc
	}
	bl := sc.bottomLevels(alloc, nil)
	sc.area = grow(sc.area, n)
	area := sc.area
	for _, t := range g.Tasks {
		area[t.ID] = cost(t, alloc[t.ID]) * float64(alloc[t.ID])
	}
	maxIter := n * clusterSize
	for iter := 0; iter < maxIter; iter++ {
		tcp := 0.0
		for _, v := range bl {
			if v > tcp {
				tcp = v
			}
		}
		ta := 0.0
		for _, v := range area {
			ta += v
		}
		ta /= float64(clusterSize)
		if tcp <= ta {
			break
		}
		cp := sc.criticalPath(bl)

		best, bestGain := -1, 0.0
		for _, id := range cp {
			a := alloc[id]
			if a >= clusterSize {
				continue
			}
			task := g.Task(id)
			switch mode {
			case growHCPA:
				p := alloc[task.ID] + 1
				t1 := cost(task, 1)
				tp := cost(task, p)
				if tp <= 0 {
					continue
				}
				if t1/(float64(p)*tp) < floor {
					continue
				}
			case growMCPA:
				l := sc.levels[task.ID]
				cap := clusterSize / sc.width[l]
				if cap < 1 {
					cap = 1
				}
				// MCPA's second veto, the level's total reaching N, is
				// implied here: no task ever exceeds its cap, so with this
				// one below it the total is < width·cap ≤ N (and when
				// width > N the cap is 1 and the test above vetoes). The
				// reference's O(V) recount per candidate is left out.
				if alloc[task.ID] >= cap {
					continue
				}
			}
			gain := cost(task, a)/float64(a) - cost(task, a+1)/float64(a+1)
			if gain > bestGain || (gain == bestGain && best >= 0 && id < best) {
				if gain > 0 {
					best, bestGain = id, gain
				}
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		area[best] = cost(g.Tasks[best], alloc[best]) * float64(alloc[best])
		sc.updateBottomLevels(bl, alloc, best)
	}
	return alloc
}

// updateBottomLevels brings bl up to date after alloc[changed] moved: it
// recomputes changed and then every ancestor one of whose successors' bottom
// levels changed, walking the cached topological order backwards from
// changed's position. Each recomputation is bottomLevels' (comm == nil) over
// the same operands, and a task none of whose successors changed would
// recompute its old bits, so bl ends bit-identical to a full recomputation.
// The walk stops once no marked task is left; a task whose value comes out
// unchanged marks nobody — on plateaued cost curves that is often changed
// itself.
func (sc *Scratch) updateBottomLevels(bl []float64, alloc []int, changed int) {
	g, cost := sc.g, sc.memoCost
	sc.dirty = grow(sc.dirty, len(g.Tasks)) // stale stamps are older epochs
	sc.dirtyEp++
	ep := sc.dirtyEp
	sc.dirty[changed] = ep
	pending := 1
	for i := sc.topoPos[changed]; pending > 0; i-- {
		id := sc.topo[i]
		if sc.dirty[id] != ep {
			continue
		}
		pending--
		t := g.Tasks[id]
		best := 0.0
		for _, s := range t.Succs() {
			if v := bl[s]; v > best {
				best = v
			}
		}
		v := cost(t, alloc[id]) + best
		if math.Float64bits(v) == math.Float64bits(bl[id]) {
			continue
		}
		bl[id] = v
		for _, p := range t.Preds() {
			if sc.dirty[p] != ep {
				sc.dirty[p] = ep
				pending++
			}
		}
	}
}

// bottomLevels is dag.BottomLevels over the cached topological order, writing
// into the scratch vector.
func (sc *Scratch) bottomLevels(alloc []int, comm dag.CommFunc) []float64 {
	g, cost := sc.g, sc.memoCost
	n := len(g.Tasks)
	if cap(sc.bl) < n {
		sc.bl = make([]float64, n)
	}
	bl := sc.bl[:n]
	order := sc.topo
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		t := g.Tasks[id]
		best := 0.0
		for _, s := range t.Succs() {
			v := bl[s]
			if comm != nil {
				v += comm(t, g.Tasks[s], alloc[id], alloc[s])
			}
			if v > best {
				best = v
			}
		}
		bl[id] = cost(t, alloc[id]) + best
	}
	return bl
}

// criticalPath follows dag.CriticalPath's walk over an already-computed
// bottom-level vector (comm == nil, the CPA-family case).
func (sc *Scratch) criticalPath(bl []float64) []int {
	g := sc.g
	if len(g.Tasks) == 0 {
		return nil
	}
	start, best := -1, -1.0
	for _, id := range sc.entries {
		if bl[id] > best {
			start, best = id, bl[id]
		}
	}
	path := sc.cp[:0]
	cur := start
	for cur >= 0 {
		path = append(path, cur)
		next, nbest := -1, -1.0
		for _, s := range g.Tasks[cur].Succs() {
			v := bl[s]
			if v > nbest || (v == nbest && next >= 0 && s < next) {
				next, nbest = s, v
			}
		}
		cur = next
	}
	sc.cp = path
	return path
}

// mapInto is the mapping phase shared by the two-phase algorithms: list
// scheduling in decreasing bottom-level order. Ready tasks (all predecessors
// mapped) are mapped one at a time; the chosen task receives the alloc[t]
// processors that become available earliest (ties by host ID), and starts
// once both its processors are free and its input data has arrived
// (predecessor finish plus redistribution estimate from the comm model, when
// provided). The host queue stays in availability order across tasks
// (assignHosts) instead of being re-sorted per task.
func (sc *Scratch) mapInto(alloc []int, comm dag.CommFunc) *Schedule {
	g, clusterSize := sc.g, sc.p
	cost := sc.memoCost
	n := g.Len()
	s := sc.prepareOut(n)
	s.Alloc = append(s.Alloc[:0], alloc...)
	alloc = s.Alloc // the scratch alloc buffer stays untouched below

	bl := sc.bottomLevels(alloc, comm)

	nPredsLeft := sc.resizeNPreds(n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}
	ready := append(sc.ready[:0], sc.entries...)

	total := 0
	for _, k := range alloc {
		total += k
	}
	if cap(sc.hostsFlat) < total {
		sc.hostsFlat = make([]int, total)
	}
	flat := sc.hostsFlat[:total]
	next := 0

	hs := sc.resetHostQueue(clusterSize)
	for count := 0; count < n; count++ {
		best := -1
		for _, id := range ready {
			if best < 0 || bl[id] > bl[best] || (bl[id] == bl[best] && id < best) {
				best = id
			}
		}
		if best < 0 {
			panic("sched: mapping ran out of ready tasks before mapping everything")
		}
		id := best
		for i, r := range ready {
			if r == id {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		task := g.Task(id)
		k := alloc[id]

		procReady := 0.0
		for _, h := range hs[:k] {
			if h.at > procReady {
				procReady = h.at
			}
		}

		dataReady := 0.0
		for _, p := range task.Preds() {
			t := s.EstFinish[p]
			if comm != nil {
				t += comm(g.Task(p), task, alloc[p], k)
			}
			if t > dataReady {
				dataReady = t
			}
		}

		start := procReady
		if dataReady > start {
			start = dataReady
		}
		finish := start + cost(task, k)
		chosen := flat[next : next+k : next+k]
		next += k
		assignHosts(hs, chosen, finish)
		s.Hosts[id] = chosen
		s.EstStart[id] = start
		s.EstFinish[id] = finish

		for _, succ := range task.Succs() {
			nPredsLeft[succ]--
			if nPredsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	sc.ready = ready[:0]
	return s
}

// cmpHostAvail is the host comparator: availability, then host ID — a strict
// total order (hosts are distinct), so a queue kept sorted by it is the
// permutation any sort of the availability array produces.
func cmpHostAvail(a, b hostAvail) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return a.host - b.host
}

// assignHosts hands the len(chosen) earliest-free hosts — the front of the
// queue hs, kept in cmpHostAvail order — to a task that holds them until
// `until`. It writes their IDs into chosen in ascending order and merges them
// back into the untouched rest of the queue: all of them become free at
// `until` and are in host order, so one O(P) merge leaves hs as a per-task
// sort of the availability array would.
// The merge runs in place from the front: the write position never passes
// the read position, because the k vacated slots are filled first.
func assignHosts(hs []hostAvail, chosen []int, until float64) {
	k := len(chosen)
	for i := range chosen {
		chosen[i] = hs[i].host
	}
	slices.Sort(chosen)
	w, r := 0, k
	for _, h := range chosen {
		freed := hostAvail{host: h, at: until}
		for r < len(hs) && cmpHostAvail(hs[r], freed) < 0 {
			hs[w] = hs[r]
			w++
			r++
		}
		hs[w] = freed
		w++
	}
}

// BuildMHEFT runs the one-phase M-HEFT scheduler against the bound context
// in scratch storage: tasks in decreasing bottom-level order (at unit
// allocation), each trying every allocation size on the earliest-available
// hosts and keeping the earliest finish, ties to fewer processors. Same
// aliasing rules as Build.
func (sc *Scratch) BuildMHEFT(m MHEFT, comm dag.CommFunc) (*Schedule, error) {
	if err := sc.check(m.Name()); err != nil {
		return nil, err
	}
	g, clusterSize := sc.g, sc.p
	cost := sc.memoCost
	n := g.Len()
	s := sc.prepareOut(n)
	s.Algorithm = m.Name()
	if cap(s.Alloc) < n {
		s.Alloc = make([]int, n)
	}
	s.Alloc = s.Alloc[:n]
	for i := range s.Alloc {
		s.Alloc[i] = 0
	}
	allocCap := m.AllocCap
	if allocCap <= 0 || allocCap > clusterSize {
		allocCap = clusterSize
	}

	// Priorities: bottom levels at unit allocation (the scratch alloc buffer
	// serves as the all-ones vector).
	if cap(sc.alloc) < n {
		sc.alloc = make([]int, n)
	}
	ones := sc.alloc[:n]
	for i := range ones {
		ones[i] = 1
	}
	bl := sc.bottomLevels(ones, comm)

	nPredsLeft := sc.resizeNPreds(n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}
	ready := append(sc.ready[:0], sc.entries...)

	// Host windows: M-HEFT allocations are not known up front, so the flat
	// backing is sized for the worst case once.
	if worst := n * allocCap; cap(sc.hostsFlat) < worst {
		sc.hostsFlat = make([]int, worst)
	}
	flatNext := 0

	hs := sc.resetHostQueue(clusterSize)
	for mapped := 0; mapped < n; mapped++ {
		best := -1
		for _, id := range ready {
			if best < 0 || bl[id] > bl[best] || (bl[id] == bl[best] && id < best) {
				best = id
			}
		}
		if best < 0 {
			panic("sched: MHEFT ran out of ready tasks")
		}
		for i, r := range ready {
			if r == best {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		task := g.Task(best)

		bestP, bestStart, bestFinish := 0, 0.0, 0.0
		for p := 1; p <= allocCap; p++ {
			procReady := hs[p-1].at
			dataReady := 0.0
			for _, pr := range task.Preds() {
				t := s.EstFinish[pr]
				if comm != nil {
					t += comm(g.Task(pr), task, s.Alloc[pr], p)
				}
				if t > dataReady {
					dataReady = t
				}
			}
			start := procReady
			if dataReady > start {
				start = dataReady
			}
			finish := start + cost(task, p)
			if bestP == 0 || finish < bestFinish-1e-12 {
				bestP, bestStart, bestFinish = p, start, finish
			}
		}

		chosen := sc.hostsFlat[flatNext : flatNext+bestP : flatNext+bestP]
		flatNext += bestP
		assignHosts(hs, chosen, bestFinish)
		s.Alloc[best] = bestP
		s.Hosts[best] = chosen
		s.EstStart[best] = bestStart
		s.EstFinish[best] = bestFinish
		for _, succ := range task.Succs() {
			nPredsLeft[succ]--
			if nPredsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	sc.ready = ready[:0]
	if err := s.Validate(clusterSize); err != nil {
		return nil, err
	}
	return s, nil
}

// prepareOut readies the reusable output schedule for n tasks.
func (sc *Scratch) prepareOut(n int) *Schedule {
	s := &sc.out
	s.Algorithm, s.Model = "", ""
	s.Graph = sc.g
	if cap(s.Hosts) < n {
		s.Hosts = make([][]int, n)
	}
	s.Hosts = s.Hosts[:n]
	for i := range s.Hosts {
		s.Hosts[i] = nil
	}
	if cap(s.EstStart) < n {
		s.EstStart = make([]float64, n)
		s.EstFinish = make([]float64, n)
	}
	s.EstStart = s.EstStart[:n]
	s.EstFinish = s.EstFinish[:n]
	for i := 0; i < n; i++ {
		s.EstStart[i] = 0
		s.EstFinish[i] = 0
	}
	return s
}

func (sc *Scratch) resizeNPreds(n int) []int {
	sc.nPredsLeft = grow(sc.nPredsLeft, n)
	return sc.nPredsLeft
}

// resetHostQueue returns the host queue for clusterSize idle processors: all
// free at 0, hence in host order. Its capacity is its length, so a task asking
// for more hosts than exist panics.
func (sc *Scratch) resetHostQueue(clusterSize int) []hostAvail {
	sc.hostsAt = grow(sc.hostsAt, clusterSize)
	hs := sc.hostsAt[:clusterSize:clusterSize]
	for h := range hs {
		hs[h] = hostAvail{host: h}
	}
	return hs
}

// grow returns buf with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
