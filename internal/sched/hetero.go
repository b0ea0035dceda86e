package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Heterogeneous scheduling support — the setting HCPA was created for [12].
// The CPA-family allocation phases stay unchanged: they reason on a
// *reference cluster* whose every node runs at the platform's reference
// speed (Cluster.NodePower), which is exactly HCPA's normalisation trick.
// Only the mapping phase needs to know real node speeds: a load-balanced
// 1-D kernel on a mixed processor set runs at its slowest node's pace, so
// the mapping must trade earlier availability against faster nodes.

// BuildHetero runs a CPA-family allocation phase against the reference
// cluster and maps the result onto the platform with the heterogeneous
// mapping phase, whether or not the platform is heterogeneous.
func BuildHetero(algo Algorithm, g *dag.Graph, c platform.Cluster, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	return pooled(g, c.Nodes, cost, func(sc *Scratch) (*Schedule, error) {
		return sc.buildHetero(algo, c, comm)
	})
}

// BuildOn builds algo for the cluster the scratch was bound to (Bind with
// c.Nodes): the shared mapping phase when c is homogeneous, the
// heterogeneous one otherwise. An MHEFT, a homogeneous-platform scheduler,
// always runs as BuildMHEFT. Same aliasing rules as Build.
func (sc *Scratch) BuildOn(algo Algorithm, c platform.Cluster, comm dag.CommFunc) (*Schedule, error) {
	if sc.g != nil && sc.p != c.Nodes {
		return nil, fmt.Errorf("sched %s: scratch bound to %d processors, cluster has %d", algo.Name(), sc.p, c.Nodes)
	}
	if m, ok := algo.(MHEFT); ok {
		return sc.BuildMHEFT(m, comm)
	}
	if c.IsHomogeneous() {
		return sc.Build(algo, comm)
	}
	return sc.buildHetero(algo, c, comm)
}

// buildHetero is Build with the heterogeneous mapping phase.
func (sc *Scratch) buildHetero(algo Algorithm, c platform.Cluster, comm dag.CommFunc) (*Schedule, error) {
	if err := sc.check(algo.Name()); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	alloc, err := sc.allocate(algo)
	if err != nil {
		return nil, err
	}
	s := sc.mapHetero(alloc, c, comm)
	s.Algorithm = algo.Name()
	if err := s.Validate(c.Nodes); err != nil {
		return nil, err
	}
	return s, nil
}

// mapHetero is the heterogeneous mapping phase: list scheduling in
// decreasing bottom-level order, where each task evaluates two candidate
// processor sets — the earliest-available nodes and the fastest of the
// soon-available nodes — and keeps the earlier estimated finish. The bound
// cost gives reference-speed execution times; real durations scale by
// reference/min-power of the chosen set.
func (sc *Scratch) mapHetero(alloc []int, c platform.Cluster, comm dag.CommFunc) *Schedule {
	g, cost := sc.g, sc.memoCost
	n := g.Len()
	s := sc.prepareOut(n)
	s.Alloc = append(s.Alloc[:0], alloc...)
	alloc = s.Alloc
	bl := sc.bottomLevels(alloc, comm)
	nPredsLeft := sc.resizeNPreds(n)
	for _, t := range g.Tasks {
		nPredsLeft[t.ID] = t.InDegree()
	}
	ready := append(sc.ready[:0], sc.entries...)

	sc.avail = grow(sc.avail, c.Nodes)
	avail := sc.avail
	clear(avail)
	sc.order = grow(sc.order, c.Nodes)
	order := sc.order
	for h := range order {
		order[h] = h
	}
	total := 0
	for _, k := range alloc {
		total += k
	}
	// Chosen host sets are windows of flat; the tail holds candidate B.
	sc.hostsFlat = grow(sc.hostsFlat, total+c.Nodes)
	flat, spare := sc.hostsFlat[:total], sc.hostsFlat[total:]
	next := 0

	// evaluate returns a candidate set's estimated start and finish.
	evaluate := func(task *dag.Task, hosts []int, k int) (start, finish float64) {
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
		start = procReady
		if dataReady > start {
			start = dataReady
		}
		slowdown := c.NodePower / c.MinPowerOf(hosts)
		return start, start + float64(cost(task, k)*slowdown)
	}
	byAvail := func(a, b int) int {
		if avail[a] != avail[b] {
			return cmp.Compare(avail[a], avail[b])
		}
		if pa, pb := c.PowerOf(a), c.PowerOf(b); pa != pb {
			return cmp.Compare(pb, pa)
		}
		return a - b
	}
	byPower := func(a, b int) int {
		if pa, pb := c.PowerOf(a), c.PowerOf(b); pa != pb {
			return cmp.Compare(pb, pa)
		}
		if avail[a] != avail[b] {
			return cmp.Compare(avail[a], avail[b])
		}
		return a - b
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

		// Candidate A: earliest-available nodes (speed as tie-break). Both
		// orders are strict, so sorting the previous permutation gives the
		// one sorting the identity would.
		slices.SortFunc(order, byAvail)
		chosen := flat[next : next+k : next+k]
		next += k
		copy(chosen, order[:k])
		slices.Sort(chosen)
		start, finish := evaluate(task, chosen, k)

		// Candidate B: fastest nodes (availability as tie-break).
		slices.SortFunc(order, byPower)
		candB := spare[:k]
		copy(candB, order[:k])
		slices.Sort(candB)
		if startB, finishB := evaluate(task, candB, k); finishB < finish-1e-12 {
			copy(chosen, candB)
			start, finish = startB, finishB
		}
		s.Hosts[best] = chosen
		s.EstStart[best] = start
		s.EstFinish[best] = finish
		for _, h := range chosen {
			avail[h] = finish
		}
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
