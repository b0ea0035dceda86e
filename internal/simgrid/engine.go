package simgrid

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/obs"
)

// timeEps is the relative tolerance used when comparing event times, so that
// activities finishing "at the same instant" are retired together.
const timeEps = 1e-9

// workEps is the absolute remaining-work threshold below which an activity
// is considered complete (guards against floating-point residue).
const workEps = 1e-12

// ActionState tracks an activity through its lifecycle.
type ActionState int

const (
	// StatePending: added but not yet started (still in its latency delay).
	StatePending ActionState = iota
	// StateRunning: consuming resources.
	StateRunning
	// StateDone: completed.
	StateDone
)

// Action is one activity in the simulation: an optional fixed delay followed
// by an optional resource-consuming work phase.
type Action struct {
	// Name labels the action in traces.
	Name string
	// Delay is a fixed latency served before the work phase begins
	// (e.g. network latency, or the whole duration of a fixed action).
	Delay float64
	// Work is the abstract amount of work of the resource phase; 1.0 by
	// convention for parallel tasks (the usage amounts then equal the full
	// flop/byte quantities). Zero means the action is a pure delay.
	Work float64
	// Usage lists resource consumption per unit rate, one entry per
	// resource. With Work = 1 and Usage amounts equal to total flops/bytes,
	// an action running alone takes max_r(amount_r / capacity_r) seconds,
	// the L07 semantics. The vector is captured (copied into the solver's
	// sorted form) when the action is added; mutations after Add have no
	// effect on the run. The Fill* methods of Net emit it sorted by
	// resource, which makes the capture a straight copy.
	Usage []Use
	// Bound optionally caps the rate (<= 0: unbounded); captured at Add.
	Bound float64
	// OnComplete, if non-nil, runs when the action finishes. It may add
	// new actions to the engine.
	OnComplete func(e *Engine, a *Action)
	// Tag is an opaque caller-owned index (e.g. a task or edge ID); the
	// engine never reads it and Reset preserves it, so callers replaying
	// recycled actions can recover what an action stands for in callbacks
	// without a per-action closure.
	Tag int

	added      bool
	state      ActionState
	remaining  float64 // remaining work
	delayLeft  float64 // remaining delay
	startedAt  float64
	finishedAt float64
	v          maxminVar // the action's solver variable; v.rate is its progress rate
}

// Use is one entry of an action's sparse consumption vector: Amount units of
// resource Res per unit of progress rate.
type Use struct {
	Res    int
	Amount float64
}

// State returns the action's lifecycle state.
func (a *Action) State() ActionState { return a.state }

// StartedAt returns the simulated time the action was added.
func (a *Action) StartedAt() float64 { return a.startedAt }

// FinishedAt returns the simulated completion time (valid once StateDone).
func (a *Action) FinishedAt() float64 { return a.finishedAt }

// Rate returns the most recently computed progress rate.
func (a *Action) Rate() float64 { return a.v.rate }

// Reset re-arms an action so it can be added again — the companion of
// Engine.Reset for replaying one scenario through a recycled engine. The
// descriptive fields (Name, Delay, Work, Usage, Bound, OnComplete) are
// preserved, and the sparse usage form keeps its backing storage, so a
// reset-and-re-add cycle allocates nothing. Never reset an action that is
// still live in an engine.
func (a *Action) Reset() {
	a.added = false
	a.state = StatePending
	a.remaining = 0
	a.delayLeft = 0
	a.v.rate = 0
	a.startedAt = 0
	a.finishedAt = 0
}

// Engine is the discrete-event simulation core: a set of resource capacities
// and a set of live actions sharing them under bounded max-min fairness.
//
// Engines are reusable: Reset returns a finished (or abandoned) engine to
// its initial state while keeping every piece of internal storage — the
// live/done lists, the solver scratch, the event-loop buffers — so one
// engine can serve many Runs without allocating in steady state; a
// tgrid.Replayer keeps one across its replays.
type Engine struct {
	now      float64
	capacity []float64
	live     []*Action
	done     []*Action
	// MaxEvents guards against runaway simulations; 0 means the default.
	MaxEvents int

	sol      solver       // reusable bottleneck solver
	vars     []*maxminVar // scratch: runnable variables of the current solve
	sharing  []*maxminVar // scratch: those of them that share a resource
	lone     []float64    // scratch: the lone variables' rates, for the tie check
	marks    []resMark    // scratch: per resource, who the last split saw on it
	stamp    uint32       // the current split's stamp
	nextLive []*Action    // scratch: double buffer for the live list
	finished []*Action    // scratch: actions retiring in the current event
	fresh    bool         // rates are current for the present live set
	// globalSolves counts the solves of the current Run that fell back to
	// one solve over every running action; Run publishes it once at the end.
	globalSolves int
}

// NewEngine creates an engine with the given resource capacities.
func NewEngine(capacity []float64) *Engine {
	return &Engine{capacity: append([]float64(nil), capacity...)}
}

// Reset returns the engine to its initial empty state at time zero so it can
// serve another Run. A nil capacity keeps the current capacities; otherwise
// the new vector is copied in (reusing the existing backing where it fits).
// All scratch storage is retained, which is what makes engine reuse
// allocation-free; MaxEvents is preserved. Actions from previous runs are
// forgotten — re-add them only after (*Action).Reset.
func (e *Engine) Reset(capacity []float64) {
	if capacity != nil {
		e.capacity = append(e.capacity[:0], capacity...)
	}
	e.now = 0
	e.live = clearAll(e.live)
	e.done = clearAll(e.done)
	e.nextLive = clearAll(e.nextLive)
	e.finished = clearAll(e.finished)
	e.vars = clearAll(e.vars)
	e.sharing = clearAll(e.sharing)
	e.sol.reset()
	e.fresh = false
}

// clearAll nils out a slice's entire backing array — not just its current
// length, which is typically zero by the time Reset runs — so recycled
// engines do not pin previous runs' actions (and the state their OnComplete
// closures capture) against the garbage collector. A *maxminVar points into
// its Action, so variable lists need it too.
func clearAll[T any](s []*T) []*T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Capacity returns the capacity of resource r.
func (e *Engine) Capacity(r int) float64 { return e.capacity[r] }

// NumResources returns the number of resources.
func (e *Engine) NumResources() int { return len(e.capacity) }

// Completed returns all completed actions in completion order. The slice is
// only valid until the next Reset.
func (e *Engine) Completed() []*Action { return e.done }

// Add schedules an action starting at the current simulated time.
func (e *Engine) Add(a *Action) {
	if a.added {
		panic(fmt.Sprintf("simgrid: action %q added twice", a.Name))
	}
	a.added = true
	if a.Work < 0 || a.Delay < 0 {
		panic(fmt.Sprintf("simgrid: action %q has negative work or delay", a.Name))
	}
	for _, u := range a.Usage {
		if u.Res < 0 || u.Res >= len(e.capacity) {
			panic(fmt.Sprintf("simgrid: action %q uses unknown resource %d", a.Name, u.Res))
		}
		if u.Amount < 0 {
			panic(fmt.Sprintf("simgrid: action %q has negative usage on resource %d", a.Name, u.Res))
		}
	}
	if !a.v.setUsage(a.Usage) {
		panic(fmt.Sprintf("simgrid: action %q lists a resource twice", a.Name))
	}
	a.v.bound = a.Bound
	a.startedAt = e.now
	a.remaining = a.Work
	a.delayLeft = a.Delay
	if a.delayLeft <= 0 && a.remaining <= workEps {
		// Degenerate instantaneous action: complete immediately on the
		// next event round by giving it a zero delay.
		a.delayLeft = 0
		a.remaining = 0
	}
	e.live = append(e.live, a)
	e.fresh = false
}

// globalSolvesTotal counts the rate solves that fell back to one solve over
// every running action (see solveRates). Engines tally their own and add
// the tally once per Run, so the solve loop touches no shared cache line.
var globalSolvesTotal = obs.Default.Counter("repro_simgrid_global_solves_total",
	"Engine rate solves re-solved over every running action because independent actions tied or one was bounded.")

// Run advances the simulation until no live actions remain and returns the
// final simulated time.
func (e *Engine) Run() (float64, error) {
	end, err := e.run()
	if e.globalSolves > 0 {
		globalSolvesTotal.Add(uint64(e.globalSolves))
		e.globalSolves = 0
	}
	return end, err
}

func (e *Engine) run() (float64, error) {
	maxEvents := e.MaxEvents
	if maxEvents == 0 {
		maxEvents = 10_000_000
	}
	for events := 0; len(e.live) > 0; events++ {
		if events > maxEvents {
			return e.now, fmt.Errorf("simgrid: exceeded %d events at t=%g with %d live actions",
				maxEvents, e.now, len(e.live))
		}
		if err := e.step(); err != nil {
			return e.now, err
		}
	}
	return e.now, nil
}

// step advances to the next completion event and retires finished actions.
func (e *Engine) step() error {
	e.solveRates()

	// Earliest event: a delay expiring (which needs a re-solve) or a work
	// phase completing.
	next := math.Inf(1)
	for _, a := range e.live {
		var t float64
		switch {
		case a.delayLeft > 0:
			t = a.delayLeft
		case a.remaining <= workEps:
			t = 0
		case a.v.rate <= 0:
			t = math.Inf(1)
		default:
			t = a.remaining / a.v.rate
		}
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		names := make([]string, 0, len(e.live))
		for _, a := range e.live {
			names = append(names, a.Name)
		}
		sort.Strings(names)
		return fmt.Errorf("simgrid: deadlock at t=%g: %d actions cannot progress (%v)",
			e.now, len(e.live), names)
	}

	// Advance time and progress. The live list is partitioned into the
	// engine's recycled buffers: still into the double buffer that becomes
	// the next live list, finished into the retirement scratch.
	e.now += next
	horizon := next * (1 + timeEps)
	still := e.nextLive[:0]
	finished := e.finished[:0]
	for _, a := range e.live {
		if a.delayLeft > 0 {
			if a.delayLeft <= horizon {
				a.delayLeft = 0
				if a.remaining <= workEps {
					finished = append(finished, a)
					continue
				}
				a.state = StateRunning
			} else {
				a.delayLeft -= next
			}
			still = append(still, a)
			continue
		}
		a.state = StateRunning
		if math.IsInf(a.v.rate, 1) {
			// Unconstrained action (uses no shared resource): completes
			// as soon as its delay is served.
			a.remaining = 0
		} else {
			a.remaining -= float64(a.v.rate * next)
		}
		if a.remaining <= float64(a.Work*timeEps)+workEps {
			finished = append(finished, a)
		} else {
			still = append(still, a)
		}
	}
	old := e.live
	e.live = still
	e.nextLive = old[:0]
	e.finished = finished
	e.fresh = false // the running set changed; rates must be re-solved

	// Retire completions; callbacks may add new actions.
	for _, a := range finished {
		a.state = StateDone
		a.remaining = 0
		a.finishedAt = e.now
		e.done = append(e.done, a)
	}
	for _, a := range finished {
		if a.OnComplete != nil {
			a.OnComplete(e, a)
		}
	}
	return nil
}

// solveRates recomputes the max-min fair rates of all running actions. The
// solve is skipped when the live set has not changed since the last one
// (the fresh flag), so observability calls like UsageOf never pay for a
// redundant solve.
//
// Only the actions that meet another running action on some resource go
// through the solver. An action alone on all its resources — most of them,
// in a replay — gets its cached lone rate, which is the very value a solve
// over everything would give it: its weight on each resource is 0+use and
// the remaining capacity is still the capacity when its round comes, so the
// round share is min_r capacity[r]/use[r]. The solver's tie rule is the one
// coupling: a round fixes every resource within share·(1+1e-12) of its
// bottleneck, across independent actions. So when a lone rate lies within
// that tolerance of a different lone rate or of a round share of the
// sharing solve (coupled), or any action is bounded, everything is solved
// again in one solve, as before. When no action is lone, the sharing
// solve is that one solve and no check runs. Either way each rate is bit
// for bit the one a single solve over every running action gives.
func (e *Engine) solveRates() {
	if e.fresh {
		return
	}
	e.fresh = true
	e.sol.grow(len(e.capacity)) // even with no solve to run, so the scratch always spans the resources
	vars, nShared, bounded := e.split()
	if nShared < len(vars) {
		if !bounded && e.solveSharing(vars) {
			return
		}
		e.globalSolves++
	}
	e.sol.solve(vars, e.capacity)
}

// solveSharing gives the lone variables their cached rates and solves the
// sharing ones. It reports false, having decided nothing for certain, when
// a lone rate is coupled to another block by solve's tie rule or is
// negative (a negative capacity, on which solve stalls).
func (e *Engine) solveSharing(vars []*maxminVar) bool {
	sharing, lone := e.sharing[:0], e.lone[:0]
	negative := false
	for _, v := range vars {
		if v.shared {
			sharing = append(sharing, v)
			continue
		}
		v.rate = v.loneRate(e.capacity)
		if len(v.res) > 0 {
			lone = append(lone, v.rate)
			negative = negative || v.rate < 0
		}
	}
	e.sharing, e.lone = sharing, lone
	if negative {
		return false
	}
	var rounds []float64
	if len(sharing) > 0 {
		e.sol.solve(sharing, e.capacity)
		rounds = e.sol.rounds
	}
	return len(lone) == 0 || !coupled(lone, rounds)
}

// resMark records which split last saw a resource (stamp) and the index,
// among that split's runnable variables, of the first one it saw there
// (owner). An index rather than a pointer: the marks outlive runs, and pin
// nothing.
type resMark struct {
	stamp uint32
	owner int32
}

// split collects the runnable actions' variables in live order and marks
// every one that shares a resource with another, in one pass over their
// resource lists (none when only one runs). It returns the variables, how
// many share, and whether any is bounded; actions not running get rate
// zero. The per-resource marks are stamped, so they never need clearing; a
// resource's owner turns out shared once a second user arrives.
func (e *Engine) split() (vars []*maxminVar, nShared int, bounded bool) {
	vars = e.vars[:0]
	for _, a := range e.live {
		v := &a.v
		if a.delayLeft > 0 || a.remaining <= workEps {
			v.rate = 0
			continue
		}
		vars = append(vars, v)
		bounded = bounded || v.bound > 0
		v.shared = false
	}
	e.vars = vars
	if len(vars) < 2 {
		return vars, 0, bounded
	}

	if n := len(e.capacity); cap(e.marks) < n {
		e.marks = make([]resMark, n)
	} else {
		e.marks = e.marks[:n]
	}
	e.stamp++
	if e.stamp == 0 { // wrapped: an old mark could equal a new stamp
		clear(e.marks[:cap(e.marks)])
		e.stamp = 1
	}
	stamp, marks := e.stamp, e.marks
	for i, v := range vars {
		for _, r := range v.res {
			m := &marks[r]
			if m.stamp != stamp {
				*m = resMark{stamp, int32(i)}
				continue
			}
			if o := vars[m.owner]; !o.shared {
				o.shared = true
				nShared++
			}
			if !v.shared {
				v.shared = true
				nShared++
			}
		}
	}
	return vars, nShared, bounded
}

// loneRate returns the variable's rate when it runs alone on all its
// resources, computing it on first use after a load: the bottleneck share
// solve finds for it, from the same quotients.
func (v *maxminVar) loneRate(capacity []float64) float64 {
	if !v.loneKnown {
		share := math.Inf(1)
		for k, r := range v.res {
			if sh := capacity[r] / v.use[k]; sh < share {
				share = sh
			}
		}
		v.lone, v.loneKnown = share, true
	}
	return v.lone
}

// coupled reports whether the solver's tie rule would join independent
// blocks: whether some lone rate and a different lone rate, or a round share
// of the sharing solve, lie within share·(1+1e-12) of each other. Equal
// values do not couple — a round at that share fixes both at the same bits.
// Both slices are sorted in place.
func coupled(lone, rounds []float64) bool {
	slices.Sort(lone)
	slices.Sort(rounds)
	j := 0
	for i, l := range lone {
		if i > 0 && lone[i-1] < l && l <= lone[i-1]*(1+1e-12) {
			return true
		}
		for j < len(rounds) && rounds[j] < l {
			j++
		}
		if j > 0 && l <= rounds[j-1]*(1+1e-12) {
			return true
		}
		k := j
		for k < len(rounds) && rounds[k] == l {
			k++
		}
		if k < len(rounds) && rounds[k] <= l*(1+1e-12) {
			return true
		}
	}
	return false
}

// UsageOf reports the instantaneous usage of resource r by running actions,
// for tests and observability. It reads the sparse usage forms captured at
// Add — the quantities the simulation actually charges — so it agrees with
// the run even if a caller mutated an action's Usage slice afterwards.
func (e *Engine) UsageOf(r int) float64 {
	e.solveRates()
	total := 0.0
	for _, a := range e.live {
		if a.delayLeft > 0 {
			continue
		}
		total += float64(a.v.rate * a.v.usageOf(r))
	}
	return total
}
