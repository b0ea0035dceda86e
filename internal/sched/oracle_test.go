package sched

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// The schedulers as they were before every build went through a Scratch: the
// allocating two-phase Build with the CPA family's closure-based allocation
// loop and the MapSchedule mapping phase, the allocating M-HEFT, and
// BuildHetero with MapScheduleHetero. They are kept verbatim, but for their
// names and the explicitly rounded product of the heterogeneous finish, as
// the differential oracles the scratch path is tested against.

// BuildHeteroOracle exports buildHeteroOracle to the external test package.
var BuildHeteroOracle = buildHeteroOracle

// buildOracle is the two-phase Build: the algorithm's allocation phase
// followed by the shared list-scheduling mapping phase.
func buildOracle(algo Algorithm, g *dag.Graph, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("sched %s: empty application", algo.Name())
	}
	if clusterSize < 1 {
		return nil, fmt.Errorf("sched %s: cluster size %d", algo.Name(), clusterSize)
	}
	alloc := allocateOracle(algo, g, clusterSize, cost)
	if len(alloc) != g.Len() {
		return nil, fmt.Errorf("sched %s: allocation has %d entries for %d tasks",
			algo.Name(), len(alloc), g.Len())
	}
	s := mapOracle(g, alloc, clusterSize, cost, comm)
	s.Algorithm = algo.Name()
	if err := s.Validate(clusterSize); err != nil {
		return nil, err
	}
	return s, nil
}

// allocateOracle is each algorithm's allocation phase.
func allocateOracle(algo Algorithm, g *dag.Graph, clusterSize int, cost dag.CostFunc) []int {
	switch a := algo.(type) {
	case CPA:
		return cpaLoop(g, clusterSize, cost, nil)
	case HCPA:
		floor := a.MinEfficiency
		if floor <= 0 {
			floor = DefaultMinEfficiency
		}
		mayGrow := func(g *dag.Graph, alloc []int, task *dag.Task) bool {
			p := alloc[task.ID] + 1
			t1 := cost(task, 1)
			tp := cost(task, p)
			if tp <= 0 {
				return false
			}
			return t1/(float64(p)*tp) >= floor
		}
		return cpaLoop(g, clusterSize, cost, mayGrow)
	case MCPA:
		levels, nLevels := g.Levels()
		width := make([]int, nLevels)
		for _, l := range levels {
			width[l]++
		}
		mayGrow := func(g *dag.Graph, alloc []int, task *dag.Task) bool {
			l := levels[task.ID]
			cap := clusterSize / width[l]
			if cap < 1 {
				cap = 1
			}
			if alloc[task.ID] >= cap {
				return false
			}
			total := 0
			for _, other := range g.Tasks {
				if levels[other.ID] == l {
					total += alloc[other.ID]
				}
			}
			return total < clusterSize
		}
		return cpaLoop(g, clusterSize, cost, mayGrow)
	case Sequential:
		return fixedAlloc(g, 1)
	case DataParallel:
		return fixedAlloc(g, clusterSize)
	case Fixed:
		p := a.P
		if p < 1 {
			p = 1
		}
		if p > clusterSize {
			p = clusterSize
		}
		return fixedAlloc(g, p)
	}
	panic("sched: no oracle for " + algo.Name())
}

func fixedAlloc(g *dag.Graph, p int) []int {
	alloc := make([]int, g.Len())
	for i := range alloc {
		alloc[i] = p
	}
	return alloc
}

// growthConstraint, when non-nil, vetoes growing a task's allocation; it
// receives the task and its current allocation. HCPA and MCPA are CPA with
// different growth constraints.
type growthConstraint func(g *dag.Graph, alloc []int, task *dag.Task) bool

// cpaLoop is the shared CPA-family allocation loop.
func cpaLoop(g *dag.Graph, clusterSize int, cost dag.CostFunc, mayGrow growthConstraint) []int {
	n := g.Len()
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	if n == 0 {
		return alloc
	}
	// Each iteration adds one processor somewhere, so n·N bounds the loop.
	maxIter := n * clusterSize
	for iter := 0; iter < maxIter; iter++ {
		tcp := g.CriticalPathLength(alloc, cost, nil)
		ta := g.AverageArea(alloc, cost, clusterSize)
		if tcp <= ta {
			break
		}
		cp := g.CriticalPath(alloc, cost, nil)

		// Pick the critical-path task whose t(τ,p)/p drops the most when
		// given one more processor (the original CPA benefit criterion).
		best, bestGain := -1, 0.0
		for _, id := range cp {
			a := alloc[id]
			if a >= clusterSize {
				continue
			}
			task := g.Task(id)
			if mayGrow != nil && !mayGrow(g, alloc, task) {
				continue
			}
			gain := cost(task, a)/float64(a) - cost(task, a+1)/float64(a+1)
			if gain > bestGain || (gain == bestGain && best >= 0 && id < best) {
				if gain > 0 {
					best, bestGain = id, gain
				}
			}
		}
		if best < 0 {
			break // no critical-path task can usefully grow
		}
		alloc[best]++
	}
	return alloc
}

// mapOracle is MapSchedule, the shared mapping phase that re-sorts every
// host by availability per task.
func mapOracle(g *dag.Graph, alloc []int, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) *Schedule {
	n := g.Len()
	s := &Schedule{
		Graph:     g,
		Alloc:     append([]int(nil), alloc...),
		Hosts:     make([][]int, n),
		EstStart:  make([]float64, n),
		EstFinish: make([]float64, n),
	}
	bl := g.BottomLevels(alloc, cost, comm)

	avail := make([]float64, clusterSize) // per-processor next-free time
	mapped := make([]bool, n)
	nPredsLeft := make([]int, n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}

	// ready holds mappable tasks, picked by (bottom level desc, ID asc).
	var ready []int
	for _, id := range g.Entries() {
		ready = append(ready, id)
	}
	pickReady := func() int {
		best := -1
		for _, id := range ready {
			if best < 0 || bl[id] > bl[best] || (bl[id] == bl[best] && id < best) {
				best = id
			}
		}
		return best
	}

	type hostAvail struct {
		host int
		at   float64
	}
	for count := 0; count < n; count++ {
		id := pickReady()
		if id < 0 {
			panic("sched: mapping ran out of ready tasks before mapping everything")
		}
		// Remove from ready list.
		for i, r := range ready {
			if r == id {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		task := g.Task(id)
		k := alloc[id]

		// Earliest-available processors (ties by host ID for determinism).
		hs := make([]hostAvail, clusterSize)
		for h := range hs {
			hs[h] = hostAvail{host: h, at: avail[h]}
		}
		sort.Slice(hs, func(a, b int) bool {
			if hs[a].at != hs[b].at {
				return hs[a].at < hs[b].at
			}
			return hs[a].host < hs[b].host
		})
		chosen := make([]int, k)
		procReady := 0.0
		for i := 0; i < k; i++ {
			chosen[i] = hs[i].host
			if hs[i].at > procReady {
				procReady = hs[i].at
			}
		}
		sort.Ints(chosen)

		// Data-ready time from predecessors.
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
		s.Hosts[id] = chosen
		s.EstStart[id] = start
		s.EstFinish[id] = finish
		for _, h := range chosen {
			avail[h] = finish
		}
		mapped[id] = true

		for _, succ := range task.Succs() {
			nPredsLeft[succ]--
			if nPredsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return s
}

// mheftOracle is MHEFT.Build, the one-phase scheduler.
func mheftOracle(m MHEFT, g *dag.Graph, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	n := g.Len()
	s := &Schedule{
		Algorithm: m.Name(),
		Graph:     g,
		Alloc:     make([]int, n),
		Hosts:     make([][]int, n),
		EstStart:  make([]float64, n),
		EstFinish: make([]float64, n),
	}
	cap := m.AllocCap
	if cap <= 0 || cap > clusterSize {
		cap = clusterSize
	}

	// Priorities: bottom levels at unit allocation.
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	bl := g.BottomLevels(ones, cost, comm)

	avail := make([]float64, clusterSize)
	nPredsLeft := make([]int, n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}
	var ready []int
	ready = append(ready, g.Entries()...)

	for mapped := 0; mapped < n; mapped++ {
		// Highest bottom level first.
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

		// Hosts by availability (ties by ID).
		type hostAvail struct {
			host int
			at   float64
		}
		hs := make([]hostAvail, clusterSize)
		for h := range hs {
			hs[h] = hostAvail{host: h, at: avail[h]}
		}
		sort.Slice(hs, func(a, b int) bool {
			if hs[a].at != hs[b].at {
				return hs[a].at < hs[b].at
			}
			return hs[a].host < hs[b].host
		})

		// Try every allocation size on the p earliest-available hosts and
		// keep the earliest finish (ties favour fewer processors, which
		// curbs gratuitous over-allocation).
		bestP, bestStart, bestFinish := 0, 0.0, 0.0
		for p := 1; p <= cap; p++ {
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

		chosen := make([]int, bestP)
		for i := 0; i < bestP; i++ {
			chosen[i] = hs[i].host
		}
		sort.Ints(chosen)
		s.Alloc[best] = bestP
		s.Hosts[best] = chosen
		s.EstStart[best] = bestStart
		s.EstFinish[best] = bestFinish
		for _, h := range chosen {
			avail[h] = bestFinish
		}
		for _, succ := range task.Succs() {
			nPredsLeft[succ]--
			if nPredsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	if err := s.Validate(clusterSize); err != nil {
		return nil, err
	}
	return s, nil
}

// buildHeteroOracle is BuildHetero: it runs a CPA-family allocation phase against the reference
// cluster and maps the result onto the heterogeneous platform.
func buildHeteroOracle(algo Algorithm, g *dag.Graph, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("sched %s: empty application", algo.Name())
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	alloc := allocateOracle(algo, g, c.Nodes, cost)
	if len(alloc) != g.Len() {
		return nil, fmt.Errorf("sched %s: allocation has %d entries for %d tasks",
			algo.Name(), len(alloc), g.Len())
	}
	s := mapHeteroOracle(g, alloc, c, cost, comm)
	s.Algorithm = algo.Name()
	if err := s.Validate(c.Nodes); err != nil {
		return nil, err
	}
	return s, nil
}

// mapHeteroOracle is MapScheduleHetero, the heterogeneous mapping phase.
func mapHeteroOracle(g *dag.Graph, alloc []int, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) *Schedule {
	n := g.Len()
	s := &Schedule{
		Graph:     g,
		Alloc:     append([]int(nil), alloc...),
		Hosts:     make([][]int, n),
		EstStart:  make([]float64, n),
		EstFinish: make([]float64, n),
	}
	bl := g.BottomLevels(alloc, cost, comm)
	avail := make([]float64, c.Nodes)
	nPredsLeft := make([]int, n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}
	var ready []int
	ready = append(ready, g.Entries()...)

	type cand struct {
		hosts  []int
		start  float64
		finish float64
	}
	evaluate := func(task *dag.Task, hosts []int, k int) cand {
		procReady := 0.0
		for _, h := range hosts {
			if avail[h] > procReady {
				procReady = avail[h]
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
		slowdown := c.NodePower / c.MinPowerOf(hosts)
		return cand{hosts: hosts, start: start, finish: start + float64(cost(task, k)*slowdown)}
	}

	for count := 0; count < n; count++ {
		best := -1
		for _, id := range ready {
			if best < 0 || bl[id] > bl[best] || (bl[id] == bl[best] && id < best) {
				best = id
			}
		}
		if best < 0 {
			panic("sched: hetero mapping ran out of ready tasks")
		}
		for i, r := range ready {
			if r == best {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		task := g.Task(best)
		k := alloc[best]

		// Candidate A: earliest-available nodes (speed as tie-break).
		byAvail := hostOrder(c.Nodes, func(a, b int) bool {
			if avail[a] != avail[b] {
				return avail[a] < avail[b]
			}
			if c.PowerOf(a) != c.PowerOf(b) {
				return c.PowerOf(a) > c.PowerOf(b)
			}
			return a < b
		})
		candA := evaluate(task, sortedCopy(byAvail[:k]), k)

		// Candidate B: fastest nodes (availability as tie-break).
		byPower := hostOrder(c.Nodes, func(a, b int) bool {
			if c.PowerOf(a) != c.PowerOf(b) {
				return c.PowerOf(a) > c.PowerOf(b)
			}
			if avail[a] != avail[b] {
				return avail[a] < avail[b]
			}
			return a < b
		})
		candB := evaluate(task, sortedCopy(byPower[:k]), k)

		chosen := candA
		if candB.finish < candA.finish-1e-12 {
			chosen = candB
		}
		s.Hosts[best] = chosen.hosts
		s.EstStart[best] = chosen.start
		s.EstFinish[best] = chosen.finish
		for _, h := range chosen.hosts {
			avail[h] = chosen.finish
		}
		for _, succ := range task.Succs() {
			nPredsLeft[succ]--
			if nPredsLeft[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return s
}

func hostOrder(n int, less func(a, b int) bool) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
	return order
}

func sortedCopy(hosts []int) []int {
	out := append([]int(nil), hosts...)
	sort.Ints(out)
	return out
}
