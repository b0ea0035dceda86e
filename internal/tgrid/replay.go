package tgrid

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/redist"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// TimingScaler is a Timing that can additionally report, for a parallel
// task, the multiplicative factor relating its per-rank flop counts to the
// bound base timing's. The replay path uses it to re-arm a recorded parallel
// task by scaling its CPU usage in place instead of rebuilding the whole
// L07 description — the allocation-free equivalent of TaskWork.
type TimingScaler interface {
	Timing
	// TaskScale returns (f, true) when this timing's parallel-task
	// description for the configuration is the base description with all
	// per-rank flop counts multiplied by f (communication unchanged), or
	// (0, false) when no such factor exists and the task must fall back
	// to a fixed TaskWork duration.
	TaskScale(task *dag.Task, p int) (float64, bool)
}

// Unscaled adapts the bound base Timing itself to TimingScaler: replaying
// with Unscaled{base} executes the schedule under base itself.
type Unscaled struct{ Timing }

// TaskScale implements TimingScaler with the identity factor.
func (Unscaled) TaskScale(*dag.Task, int) (float64, bool) { return 1, true }

// ScaledTiming adapts a perturbed performance model to TimingScaler the same
// way ModelTiming adapts a model to Timing. The model's TaskPtaskScale
// (perfmodel.Perturbed implements it) reports the per-configuration flop
// factor relative to its base model, so a Replayer bound with
// ModelTiming{base} replays ScaledTiming{perturbed} without ever
// materialising the perturbed parallel-task descriptions.
type ScaledTiming struct {
	Model interface {
		TaskTime(task *dag.Task, p int) float64
		StartupOverhead(p int) float64
		RedistOverhead(pSrc, pDst int) float64
		TaskPtask(task *dag.Task, p int) (comp []float64, bytes [][]float64)
		TaskPtaskScale(task *dag.Task, p int) (factor float64, ok bool)
	}
}

// TaskStartup implements Timing.
func (m ScaledTiming) TaskStartup(task *dag.Task, p int) float64 {
	return m.Model.StartupOverhead(p)
}

// TaskWork implements Timing (the fixed-duration fallback path).
func (m ScaledTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	p := len(hosts)
	comp, bytes := m.Model.TaskPtask(task, p)
	if comp != nil || bytes != nil {
		return 0, comp, bytes
	}
	return m.Model.TaskTime(task, p), nil, nil
}

// RedistOverhead implements Timing.
func (m ScaledTiming) RedistOverhead(pSrc, pDst int) float64 {
	return m.Model.RedistOverhead(pSrc, pDst)
}

// TaskScale implements TimingScaler.
func (m ScaledTiming) TaskScale(task *dag.Task, p int) (float64, bool) {
	return m.Model.TaskPtaskScale(task, p)
}

// replayTask is the recorded execution of one task: a recycled action plus
// everything needed to re-arm it under a new timing.
type replayTask struct {
	act     simgrid.Action
	p       int
	hosts   []int // window into the replayer's flat host copy
	isPtask bool
	cross   bool      // any cross-host communication (pays route latency)
	cpuIdx  []int     // position in act.Usage of each computing rank's CPU entry
	cpuBase []float64 // base per-rank flop count, scaled by TaskScale
	startup float64   // startup overhead paid in the latest replay
}

// replayEdge is the recorded redistribution of one DAG edge.
type replayEdge struct {
	act        simgrid.Action
	src, dst   int
	pSrc, pDst int
	hasBytes   bool
	cross      bool
	overhead   float64 // redistribution overhead paid in the latest replay
}

type ptaskKey struct {
	kernel dag.Kernel
	n, p   int
}

// ptaskDesc is a base timing's TaskWork output for one configuration, with
// the communication matrix reduced to its row-major transfer list.
type ptaskDesc struct {
	isPtask bool
	comp    []float64
	comm    []simgrid.Transfer
}

// descCache holds the parallel-task descriptions of one base timing.
type descCache struct {
	base Timing
	m    map[ptaskKey]ptaskDesc
}

type commKey struct {
	n, pSrc, pDst int
}

const (
	// maxBases is how many base timings' descriptions a replayer keeps, so
	// a pooled replayer that alternates between the simulators and the
	// emulated cluster of one study re-derives nothing.
	maxBases = 4
	// maxCached bounds the elements (per-rank flop counts and transfers) a
	// replayer's caches hold — about 3 MB; past it every cache is dropped
	// and refills on demand. The full 32-node working set fits.
	maxCached = 1 << 17
)

// Replayer replays one schedule through the simulator many times under
// varying timings without allocating in steady state — the fast path of the
// robustness trial loop. Bind records the schedule's execution structure
// (actions, usage shapes, dependency counts) against a base Timing; each
// Replay then re-arms the recorded actions under a TimingScaler and a
// (possibly re-parameterised) net of the same shape, and returns the
// makespan. Replay with ScaledTiming{perturbed} equals Run under the
// perturbed model bit for bit. Result materialises the latest replay's full
// execution record; Run and Makespan are Simulate on a pooled replayer.
//
// A Replayer may be re-Bound to different schedules of the same or different
// graphs, nets and base timings; its internal caches (parallel-task
// descriptions keyed by base timing and configuration, redistribution
// transfer lists) persist across binds, so binding per trial in a reschedule
// loop — or per request from a pool — is cheap. The parallel-task cache
// relies on Timing's contract: descriptions depend only on (task.Kernel,
// task.N, len(hosts)). A Replayer is not safe for concurrent use.
type Replayer struct {
	net  *simgrid.Net // layout reference from the last Bind
	g    *dag.Graph
	base Timing

	eng      *simgrid.Engine
	rnet     *simgrid.Net // net of the Replay in progress
	cur      TimingScaler
	makespan float64 // of the latest replay

	hostsFlat []int
	hosts     [][]int
	estStart  []float64
	order     []int

	tasks       []replayTask
	edges       []replayEdge
	edgeIdx     [][]int
	edgeIdxFlat []int

	waiting0 []int
	waiting  []int
	relFlat  []int // releasedBy, flattened
	relOff   []int // per-task cursor/offset into relFlat
	relEnd   []int
	pairP    []int // host-release prerequisites in discovery order
	preStart []int // per-task range into pairP
	preEnd   []int

	lastOnHost []int
	seenEp     []uint64
	ep         uint64
	ehostsBuf  []int

	descs  []descCache            // per base timing, at most maxBases
	evict  int                    // next descs slot to recycle
	ptasks map[ptaskKey]ptaskDesc // the bound base's descriptions
	comms  map[commKey][]simgrid.Transfer
	cached int // elements held by descs and comms, bounded by maxCached
	names  []string

	unscaled Unscaled // Simulate's timing, boxed once per replayer

	onTask, onEdge func(*simgrid.Engine, *simgrid.Action)
}

// NewReplayer returns an empty replayer.
func NewReplayer() *Replayer {
	r := &Replayer{comms: make(map[commKey][]simgrid.Transfer)}
	r.onTask = func(e *simgrid.Engine, a *simgrid.Action) { r.taskDone(a.Tag) }
	r.onEdge = func(e *simgrid.Engine, a *simgrid.Action) { r.arrive(r.edges[a.Tag].dst) }
	return r
}

// Bind records the schedule's execution structure against the base timing.
// The schedule must already be valid for the net's cluster (Bind does not
// re-validate); its relevant fields are copied, so schedules backed by a
// sched.Scratch may be overwritten after Bind returns.
func (r *Replayer) Bind(net *simgrid.Net, s *sched.Schedule, base Timing) error {
	g := s.Graph
	n := g.Len()
	clusterSize := net.Cluster.Nodes
	r.bindBase(base)
	r.net = net
	r.g = g

	// Snapshot the schedule fields Replay reads after Bind returns.
	total := 0
	for _, hs := range s.Hosts {
		total += len(hs)
	}
	if cap(r.hostsFlat) < total {
		r.hostsFlat = make([]int, 0, total)
	}
	r.hostsFlat = r.hostsFlat[:0]
	r.hosts = resizeIntSlices(r.hosts, n)
	for i, hs := range s.Hosts {
		off := len(r.hostsFlat)
		r.hostsFlat = append(r.hostsFlat, hs...)
		r.hosts[i] = r.hostsFlat[off:len(r.hostsFlat):len(r.hostsFlat)]
	}
	r.estStart = append(r.estStart[:0], s.EstStart...)

	// Launch order: estimated start time, ties by ID (a total order, so any
	// correct sort reproduces Schedule.Order's stable-sort permutation).
	r.order = resizeInts(r.order, n)
	for i := range r.order {
		r.order[i] = i
	}
	sortByEstStart(r.order, r.estStart)

	// Host-occupancy chains: prerequisite counts and, per task, the distinct
	// earlier occupants of its processors, in first-seen order.
	r.lastOnHost = resizeInts(r.lastOnHost, clusterSize)
	for h := range r.lastOnHost {
		r.lastOnHost[h] = -1
	}
	r.waiting0 = resizeInts(r.waiting0, n)
	r.waiting = resizeInts(r.waiting, n)
	r.seenEp = resizeUint64s(r.seenEp, n)
	r.preStart = resizeInts(r.preStart, n)
	r.preEnd = resizeInts(r.preEnd, n)
	r.pairP = r.pairP[:0]
	for _, t := range g.Tasks {
		r.waiting0[t.ID] = t.InDegree()
	}
	for _, id := range r.order {
		r.ep++
		r.preStart[id] = len(r.pairP)
		for _, h := range r.hosts[id] {
			if prev := r.lastOnHost[h]; prev >= 0 && r.seenEp[prev] != r.ep {
				r.seenEp[prev] = r.ep
				r.waiting0[id]++
				r.pairP = append(r.pairP, prev)
			}
			r.lastOnHost[h] = id
		}
		r.preEnd[id] = len(r.pairP)
	}

	// releasedBy[p] lists the tasks waiting on a host p releases, in
	// ascending waiter ID.
	r.relOff = resizeInts(r.relOff, n)
	r.relEnd = resizeInts(r.relEnd, n)
	clear(r.relOff)
	for _, p := range r.pairP {
		r.relOff[p]++
	}
	off := 0
	for id := 0; id < n; id++ {
		cnt := r.relOff[id]
		r.relOff[id] = off
		r.relEnd[id] = off
		off += cnt
	}
	r.relFlat = resizeInts(r.relFlat, off)
	for w := 0; w < n; w++ {
		for i := r.preStart[w]; i < r.preEnd[w]; i++ {
			p := r.pairP[i]
			r.relFlat[r.relEnd[p]] = w
			r.relEnd[p]++
		}
	}

	// Task records.
	if cap(r.tasks) < n {
		tasks := make([]replayTask, n)
		copy(tasks, r.tasks)
		r.tasks = tasks
	}
	r.tasks = r.tasks[:n]
	for id := 0; id < n; id++ {
		task := g.Task(id)
		rec := &r.tasks[id]
		rec.p = len(r.hosts[id])
		rec.hosts = r.hosts[id]
		rec.act.Name = r.taskName(id)
		rec.act.Tag = id
		rec.act.OnComplete = r.onTask
		d := r.ptaskDesc(task, rec.p, rec.hosts)
		rec.isPtask = d.isPtask
		rec.cross = false
		rec.cpuIdx = rec.cpuIdx[:0]
		rec.cpuBase = rec.cpuBase[:0]
		if rec.isPtask {
			net.FillTransfers(&rec.act, rec.hosts, d.comp, d.comm)
			// The vector is sorted and CPUs are the lowest resource indices,
			// so any network resource sits last.
			usage := rec.act.Usage
			rec.cross = len(usage) > 0 && usage[len(usage)-1].Res >= clusterSize
			for i, h := range rec.hosts {
				if d.comp != nil && d.comp[i] > 0 {
					k, _ := slices.BinarySearchFunc(usage, net.CPU(h), func(u simgrid.Use, res int) int { return u.Res - res })
					rec.cpuIdx = append(rec.cpuIdx, k)
					rec.cpuBase = append(rec.cpuBase, d.comp[i])
				}
			}
		} else {
			// A recycled action must not carry the usage of whatever it was
			// last bound to: Engine.Add validates usage even without work.
			rec.act.Usage = rec.act.Usage[:0]
			rec.act.Work = 0
			rec.act.Delay = 0
		}
	}

	// Edge records, in (source ID, successor order) — the order a source's
	// completion starts them in.
	nEdges := g.EdgeCount()
	if cap(r.edges) < nEdges {
		edges := make([]replayEdge, nEdges)
		copy(edges, r.edges)
		r.edges = edges
	}
	r.edges = r.edges[:nEdges]
	r.edgeIdx = resizeIntSlices(r.edgeIdx, n)
	r.edgeIdxFlat = resizeInts(r.edgeIdxFlat, nEdges)
	ei := 0
	ehosts := r.ehostsBuf
	for id := 0; id < n; id++ {
		task := g.Task(id)
		succs := task.Succs()
		start := ei
		for _, succ := range succs {
			rec := &r.edges[ei]
			r.edgeIdxFlat[ei] = ei
			rec.src, rec.dst = id, succ
			rec.pSrc, rec.pDst = len(r.hosts[id]), len(r.hosts[succ])
			rec.act.Name = "redist"
			rec.act.Tag = ei
			rec.act.OnComplete = r.onEdge
			rec.hasBytes = task.OutputBytes() > 0
			if rec.hasBytes {
				plan, err := r.commPlan(task.N, rec.pSrc, rec.pDst)
				if err != nil {
					return fmt.Errorf("tgrid: edge %d->%d: %w", id, succ, err)
				}
				ehosts = append(ehosts[:0], r.hosts[id]...)
				ehosts = append(ehosts, r.hosts[succ]...)
				net.FillTransfers(&rec.act, ehosts, nil, plan)
				rec.cross = len(rec.act.Usage) > 0
			} else {
				rec.act.Usage = rec.act.Usage[:0]
				rec.act.Work = 0
				rec.act.Delay = 0
				rec.cross = false
			}
			ei++
		}
		r.edgeIdx[id] = r.edgeIdxFlat[start:ei:ei]
	}
	r.ehostsBuf = ehosts
	return nil
}

// Replay re-runs the bound schedule under the given timing on a net with the
// same resource layout as the bind net (same node count and backplane
// presence; capacities and latencies may differ) and returns the makespan.
func (r *Replayer) Replay(net *simgrid.Net, timing TimingScaler) (float64, error) {
	if r.g == nil {
		return 0, fmt.Errorf("tgrid: replay before bind")
	}
	if net.Cluster.Nodes != r.net.Cluster.Nodes || net.HasBackplane() != r.net.HasBackplane() {
		return 0, fmt.Errorf("tgrid: replay net layout differs from bind net")
	}
	if r.eng == nil {
		r.eng = net.NewEngine()
	} else {
		net.ResetEngine(r.eng)
	}
	for i := range r.tasks {
		r.tasks[i].act.Reset()
	}
	for i := range r.edges {
		r.edges[i].act.Reset()
	}
	copy(r.waiting, r.waiting0)
	r.rnet = net
	r.cur = timing
	n := len(r.tasks)
	for id := 0; id < n; id++ {
		if r.waiting[id] == 0 {
			r.launch(id)
		}
	}
	makespan, err := r.eng.Run()
	r.rnet = nil
	r.cur = nil
	if err != nil {
		return 0, fmt.Errorf("tgrid: %w", err)
	}
	for id := 0; id < n; id++ {
		if r.waiting[id] != 0 {
			return 0, fmt.Errorf("tgrid: task %d never became ready (deadlocked schedule)", id)
		}
	}
	r.makespan = makespan
	return makespan, nil
}

// Simulate validates the schedule, binds it against the timing and replays it
// once under that same timing, returning the makespan. The execution stays
// readable through TaskWindow and Result until the next Bind or Replay.
func (r *Replayer) Simulate(net *simgrid.Net, s *sched.Schedule, timing Timing) (float64, error) {
	if err := s.Validate(net.Cluster.Nodes); err != nil {
		return 0, fmt.Errorf("tgrid: invalid schedule: %w", err)
	}
	if err := r.Bind(net, s, timing); err != nil {
		return 0, err
	}
	r.unscaled.Timing = timing
	return r.Replay(net, &r.unscaled)
}

// TaskWindow returns the execution window of a task in the latest replay —
// Result's TaskStart, TaskFinish and TaskStartupDur without building it.
func (r *Replayer) TaskWindow(id int) (start, finish, startup float64) {
	rec := &r.tasks[id]
	return rec.act.StartedAt(), rec.act.FinishedAt(), rec.startup
}

// Result materialises the latest replay: the makespan, every task's window
// and every edge's redistribution window and overhead, edges in the
// replayer's order (source ID, then successor order). An action's start is
// the engine time it was added at, its finish the time it completed.
func (r *Replayer) Result() *Result {
	n, m := len(r.tasks), len(r.edges)
	res := &Result{
		Makespan:          r.makespan,
		TaskStart:         make([]float64, n),
		TaskFinish:        make([]float64, n),
		TaskStartupDur:    make([]float64, n),
		Edges:             make([][2]int, m),
		RedistStart:       make([]float64, m),
		RedistFinish:      make([]float64, m),
		RedistOverheadDur: make([]float64, m),
	}
	for id := range r.tasks {
		res.TaskStart[id], res.TaskFinish[id], res.TaskStartupDur[id] = r.TaskWindow(id)
	}
	for i := range r.edges {
		e := &r.edges[i]
		res.Edges[i] = [2]int{e.src, e.dst}
		res.RedistStart[i], res.RedistFinish[i] = e.act.StartedAt(), e.act.FinishedAt()
		res.RedistOverheadDur[i] = e.overhead
	}
	return res
}

// Replayer-pool telemetry, alongside the scratch pool's (internal/sched).
var (
	replayerAcquires = obs.Default.Counter("repro_pool_acquires_total",
		"Pool acquisitions, by pool.", obs.L("pool", "replayer"))
	replayerReleases = obs.Default.Counter("repro_pool_releases_total",
		"Pool releases, by pool.", obs.L("pool", "replayer"))
	replayerNews = obs.Default.Counter("repro_pool_news_total",
		"Pool misses that built a fresh object, by pool.", obs.L("pool", "replayer"))

	replayers = sync.Pool{New: func() any {
		replayerNews.Inc()
		return NewReplayer()
	}}
)

// AcquireReplayer returns a replayer from the process-wide pool: each worker
// effectively keeps a warm one, with its engine, recorded actions and
// description caches, across cells, studies and requests. Pair it with
// ReleaseReplayer once the replay's results have been read off.
func AcquireReplayer() *Replayer {
	replayerAcquires.Inc()
	return replayers.Get().(*Replayer)
}

// ReleaseReplayer returns a replayer to the pool. It is unbound first, so a
// parked replayer pins no caller's graph and cannot be replayed by mistake.
func ReleaseReplayer(r *Replayer) {
	replayerReleases.Inc()
	r.g = nil
	r.unscaled.Timing = nil
	replayers.Put(r)
}

// Makespan simulates the schedule under the timing on a pooled replayer and
// returns the makespan: Run(net, s, timing).Makespan without building the
// Result. It is the entry point for every caller that reads nothing else off
// the execution.
func Makespan(net *simgrid.Net, s *sched.Schedule, timing Timing) (float64, error) {
	r := AcquireReplayer()
	makespan, err := r.Simulate(net, s, timing)
	if err == nil {
		// Not deferred: a replayer held at an error or a panic is dropped,
		// never pooled.
		ReleaseReplayer(r)
	}
	return makespan, err
}

// Run executes the schedule in virtual time on the given network, with all
// durations and overheads supplied by the Timing source, and returns the full
// execution record.
//
// Execution semantics follow TGrid: a task starts once (a) the output data
// of every predecessor has been redistributed to the task's processor set
// and (b) its processors have been released by the previous tasks the
// schedule placed on them. Each task pays its startup overhead, then runs
// its kernel. Each DAG edge triggers a redistribution as soon as the
// producing task completes: the subnet-manager overhead followed by the
// point-to-point transfers of the 1-D block overlap plan, which contend on
// the network with everything else in flight.
func Run(net *simgrid.Net, s *sched.Schedule, timing Timing) (*Result, error) {
	r := AcquireReplayer()
	if _, err := r.Simulate(net, s, timing); err != nil {
		return nil, err
	}
	res := r.Result()
	// Not deferred, as in Makespan.
	ReleaseReplayer(r)
	return res, nil
}

func (r *Replayer) launch(id int) {
	rec := &r.tasks[id]
	task := r.g.Task(id)
	startup := r.cur.TaskStartup(task, rec.p)
	if startup < 0 {
		panic(fmt.Sprintf("tgrid: negative startup for task %d", id))
	}
	rec.startup = startup
	a := &rec.act
	scaled := false
	if rec.isPtask {
		if f, ok := r.cur.TaskScale(task, rec.p); ok {
			for k, idx := range rec.cpuIdx {
				a.Usage[idx].Amount = rec.cpuBase[k] * f
			}
			a.Work = 1
			lat := 0.0
			if rec.cross {
				lat = 2 * r.rnet.Cluster.LinkLatency
			}
			// A parallel task's Delay is latency + (startup + fixed), and
			// fixed is 0 on this path.
			a.Delay = lat + startup
			scaled = true
		}
	}
	if !scaled {
		fixed, comp, bytes := r.cur.TaskWork(task, rec.hosts)
		if comp != nil || bytes != nil {
			panic(fmt.Sprintf("tgrid: replay timing returned a parallel task for task %d without a scale factor", id))
		}
		a.Work = 0
		a.Delay = startup + fixed
	}
	r.eng.Add(a)
}

func (r *Replayer) startEdge(ei int) {
	rec := &r.edges[ei]
	overhead := r.cur.RedistOverhead(rec.pSrc, rec.pDst)
	rec.overhead = overhead
	a := &rec.act
	if rec.hasBytes {
		lat := 0.0
		if rec.cross {
			lat = 2 * r.rnet.Cluster.LinkLatency
		}
		a.Delay = lat + overhead
	} else {
		a.Delay = overhead
	}
	r.eng.Add(a)
}

func (r *Replayer) taskDone(id int) {
	for _, ei := range r.edgeIdx[id] {
		r.startEdge(ei)
	}
	for i := r.relOff[id]; i < r.relEnd[id]; i++ {
		r.arrive(r.relFlat[i])
	}
}

func (r *Replayer) arrive(id int) {
	r.waiting[id]--
	if r.waiting[id] < 0 {
		panic(fmt.Sprintf("tgrid: task %d over-released", id))
	}
	if r.waiting[id] == 0 {
		r.launch(id)
	}
}

// bindBase selects (creating or recycling a slot for) the description cache
// of the base timing.
func (r *Replayer) bindBase(base Timing) {
	r.base = base
	for i := range r.descs {
		if r.descs[i].base == base {
			r.ptasks = r.descs[i].m
			return
		}
	}
	if len(r.descs) < maxBases {
		r.descs = append(r.descs, descCache{base: base, m: make(map[ptaskKey]ptaskDesc)})
		r.ptasks = r.descs[len(r.descs)-1].m
		return
	}
	d := &r.descs[r.evict]
	r.evict = (r.evict + 1) % maxBases
	clear(d.m)
	d.base = base
	r.ptasks = d.m
}

// grew accounts n more cached elements and, past maxCached, drops every
// cache. Descriptions and plans already handed out stay valid — Bind copies
// what it needs out of them into the recorded actions.
func (r *Replayer) grew(n int) {
	if r.cached += n; r.cached <= maxCached {
		return
	}
	for i := range r.descs {
		clear(r.descs[i].m)
	}
	clear(r.comms)
	r.cached = n
}

// ptaskDesc returns the base timing's parallel-task description for a
// configuration, memoised by (kernel, n, p). The dense communication matrix
// TaskWork returns is reduced to its transfer list here, once, and dropped.
func (r *Replayer) ptaskDesc(task *dag.Task, p int, hosts []int) ptaskDesc {
	key := ptaskKey{kernel: task.Kernel, n: task.N, p: p}
	if d, ok := r.ptasks[key]; ok {
		return d
	}
	_, comp, bytes := r.base.TaskWork(task, hosts)
	d := ptaskDesc{isPtask: comp != nil || bytes != nil, comp: comp}
	if bytes != nil && len(bytes) != p {
		panic(fmt.Sprintf("tgrid: task %d: bytes rows %d != hosts %d", task.ID, len(bytes), p))
	}
	for i, row := range bytes {
		if len(row) != p {
			panic(fmt.Sprintf("tgrid: task %d: bytes row %d has %d cols, want %d", task.ID, i, len(row), p))
		}
		for j, b := range row {
			if b > 0 && i != j {
				d.comm = append(d.comm, simgrid.Transfer{Src: i, Dst: j, Bytes: b})
			}
		}
	}
	r.grew(len(d.comp) + len(d.comm))
	r.ptasks[key] = d
	return d
}

// commPlan returns the transfer list of a redistribution over the combined
// host list (source ranks, then destination ranks), memoised by
// (n, pSrc, pDst) — a pure function of the 1-D block overlap plan.
func (r *Replayer) commPlan(n, pSrc, pDst int) ([]simgrid.Transfer, error) {
	key := commKey{n: n, pSrc: pSrc, pDst: pDst}
	if plan, ok := r.comms[key]; ok {
		return plan, nil
	}
	sd, err := redist.NewDist(n, pSrc)
	if err != nil {
		return nil, err
	}
	dd, err := redist.NewDist(n, pDst)
	if err != nil {
		return nil, err
	}
	msgs, err := redist.Messages(sd, dd)
	if err != nil {
		return nil, err
	}
	plan := make([]simgrid.Transfer, len(msgs))
	for i, m := range msgs {
		plan[i] = simgrid.Transfer{Src: m.Src, Dst: pSrc + m.Dst, Bytes: float64(m.Bytes)}
	}
	r.grew(len(plan))
	r.comms[key] = plan
	return plan, nil
}

func (r *Replayer) taskName(id int) string {
	for len(r.names) <= id {
		r.names = append(r.names, "task-"+strconv.Itoa(len(r.names)))
	}
	return r.names[id]
}

// sortByEstStart sorts ids by estimated start time, ties by ID. The key is a
// total order, so this reproduces Schedule.Order's stable-sort permutation;
// an insertion sort (schedules are tens of tasks) keeps the bind path
// allocation-free where sort.SliceStable would not.
func sortByEstStart(ids []int, est []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if est[a] < est[b] || (est[a] == est[b] && a < b) {
				break
			}
			ids[j-1], ids[j] = b, a
		}
	}
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeUint64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeIntSlices(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}
