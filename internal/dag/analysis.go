package dag

// CostFunc estimates the execution time, in seconds, of a task when allocated
// p processors. Scheduling-phase analyses (b-level, t-level, critical path)
// are parameterised by a CostFunc so they can be driven by any of the three
// performance models (analytic, profile-based, empirical).
type CostFunc func(t *Task, p int) float64

// CommFunc estimates the data-redistribution time, in seconds, of the edge
// src→dst given the processor counts of the producing and consuming tasks.
// Analyses that ignore communication may pass nil.
type CommFunc func(src, dst *Task, pSrc, pDst int) float64

// BottomLevels computes, for every task, its bottom level: the length of the
// longest path from the task (inclusive) to any exit task, under the given
// per-task allocation and cost model. Communication costs along edges are
// included when comm is non-nil.
func (g *Graph) BottomLevels(alloc []int, cost CostFunc, comm CommFunc) []float64 {
	order := g.mustTopo()
	bl := make([]float64, len(g.Tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		t := g.Tasks[id]
		best := 0.0
		for _, s := range t.succs {
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

// TopLevels computes, for every task, its top level: the length of the
// longest path from any entry task to the task (exclusive of the task's own
// execution time).
func (g *Graph) TopLevels(alloc []int, cost CostFunc, comm CommFunc) []float64 {
	order := g.mustTopo()
	tl := make([]float64, len(g.Tasks))
	for _, id := range order {
		t := g.Tasks[id]
		best := 0.0
		for _, p := range t.preds {
			v := tl[p] + cost(g.Tasks[p], alloc[p])
			if comm != nil {
				v += comm(g.Tasks[p], t, alloc[p], alloc[id])
			}
			if v > best {
				best = v
			}
		}
		tl[id] = best
	}
	return tl
}

// CriticalPathLength returns T_CP, the length of the longest path through the
// DAG under the given allocation: max over tasks of bottom level of entries.
func (g *Graph) CriticalPathLength(alloc []int, cost CostFunc, comm CommFunc) float64 {
	bl := g.BottomLevels(alloc, cost, comm)
	best := 0.0
	for _, v := range bl {
		if v > best {
			best = v
		}
	}
	return best
}

// CriticalPath returns one longest entry→exit path (a list of task IDs) under
// the given allocation and cost model, following at each step the successor
// with the greatest bottom level. Ties break toward the smallest task ID so
// the result is deterministic.
func (g *Graph) CriticalPath(alloc []int, cost CostFunc, comm CommFunc) []int {
	if len(g.Tasks) == 0 {
		return nil
	}
	bl := g.BottomLevels(alloc, cost, comm)
	// Start at the entry task with the largest bottom level.
	start, best := -1, -1.0
	for _, id := range g.Entries() {
		if bl[id] > best {
			start, best = id, bl[id]
		}
	}
	var path []int
	cur := start
	for cur >= 0 {
		path = append(path, cur)
		next, nbest := -1, -1.0
		for _, s := range g.Tasks[cur].succs {
			v := bl[s]
			if comm != nil {
				v += comm(g.Tasks[cur], g.Tasks[s], alloc[cur], alloc[s])
			}
			if v > nbest || (v == nbest && next >= 0 && s < next) {
				next, nbest = s, v
			}
		}
		cur = next
	}
	return path
}

// AverageArea returns T_A, the average area metric used by CPA-family
// allocation phases: (1/N) · Σ_τ t(τ, alloc(τ)) · alloc(τ), where N is the
// number of processors in the cluster.
func (g *Graph) AverageArea(alloc []int, cost CostFunc, clusterSize int) float64 {
	sum := 0.0
	for _, t := range g.Tasks {
		sum += float64(cost(t, alloc[t.ID]) * float64(alloc[t.ID]))
	}
	return sum / float64(clusterSize)
}

// Width returns the maximum number of tasks sharing a precedence level — the
// DAG's potential task parallelism.
func (g *Graph) Width() int {
	level, n := g.Levels()
	if n == 0 {
		return 0
	}
	counts := make([]int, n)
	for _, l := range level {
		counts[l]++
	}
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// mustTopo returns the shared memoised order (read-only), panicking on a
// cyclic graph.
func (g *Graph) mustTopo() []int {
	order, err := g.topoOrder()
	if err != nil {
		panic(err)
	}
	return order
}
