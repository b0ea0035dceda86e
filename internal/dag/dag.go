// Package dag models mixed-parallel applications as directed acyclic graphs
// of moldable tasks, and provides the random-DAG generator used throughout
// the paper's case study (Table I).
//
// Each task is a data-parallel computation — in the case study a matrix
// addition or a matrix multiplication over n×n matrices of float64 — that can
// run on an arbitrary number of processors ("moldable"). Edges carry data
// dependencies: the output matrix of a task is an input of its successors and
// must be redistributed between the (possibly different) processor sets.
package dag

import (
	"fmt"
	"sync/atomic"
)

// Kernel identifies the computational kernel a task executes.
type Kernel int

const (
	// KernelAdd is the parallel matrix addition C = A + B (1-D column
	// distribution, no inter-processor communication). To keep addition
	// tasks from vanishing relative to multiplications, the case study
	// repeats each addition n/4 times (paper §IV-1).
	KernelAdd Kernel = iota
	// KernelMul is the parallel matrix multiplication C = A × B with a 1-D
	// column distribution: each of the p processors owns n/p columns,
	// executes 2n³/p flops, and exchanges n²/p elements per step.
	KernelMul
	// KernelNoop is a task with no computation, used by the profiler to
	// measure bare task-startup overhead (paper §VI-B).
	KernelNoop
)

// String returns the conventional short name of the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelAdd:
		return "add"
	case KernelMul:
		return "mul"
	case KernelNoop:
		return "noop"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// MatrixBytes returns the size in bytes of one n×n matrix of float64
// elements, the unit of data carried by every DAG edge in the case study.
func MatrixBytes(n int) int64 { return int64(n) * int64(n) * 8 }

// Task is one moldable node of a mixed-parallel application.
type Task struct {
	// ID is the task's index in its Graph; Graph methods keep it dense.
	ID int
	// Name is a human-readable label ("t3/mul").
	Name string
	// Kernel selects the computation.
	Kernel Kernel
	// N is the matrix dimension the task operates on.
	N int

	preds []int
	succs []int
}

// Preds returns the IDs of the task's direct predecessors.
// The returned slice must not be modified.
func (t *Task) Preds() []int { return t.preds }

// Succs returns the IDs of the task's direct successors.
// The returned slice must not be modified.
func (t *Task) Succs() []int { return t.succs }

// InDegree returns the number of direct predecessors.
func (t *Task) InDegree() int { return len(t.preds) }

// OutDegree returns the number of direct successors.
func (t *Task) OutDegree() int { return len(t.succs) }

// Flops returns the number of floating point operations the task performs in
// total (across all processors), per the paper's analytical task model:
// 2n³ for a multiplication and (n/4)·n² for the boosted addition.
func (t *Task) Flops() float64 {
	n := float64(t.N)
	switch t.Kernel {
	case KernelMul:
		return 2 * n * n * n
	case KernelAdd:
		return (n / 4) * n * n
	default:
		return 0
	}
}

// OutputBytes returns the size of the task's output matrix.
func (t *Task) OutputBytes() int64 {
	if t.Kernel == KernelNoop {
		return 0
	}
	return MatrixBytes(t.N)
}

// Graph is a mixed-parallel application: a DAG of moldable tasks.
//
// The zero value is an empty application ready for use.
type Graph struct {
	// Name labels the application (e.g. "dag-w4-r0.75-n2000-s1").
	Name string
	// Tasks holds the nodes indexed by Task.ID.
	Tasks []*Task

	// topo memoises the topological order: every analysis (bottom and top
	// levels, critical paths, precedence levels) starts from it, and the
	// CPA-family allocation loops run those analyses once per iteration.
	// AddTask and AddEdge drop it. The slice behind the pointer is never
	// written after it is stored and never handed out, so concurrent
	// readers — study cells sharing one suite — need no lock.
	topo atomic.Pointer[[]int]
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{Name: name} }

// AddTask appends a task with the given kernel and matrix size and returns it.
func (g *Graph) AddTask(kernel Kernel, n int) *Task {
	t := &Task{
		ID:     len(g.Tasks),
		Name:   fmt.Sprintf("t%d/%s", len(g.Tasks), kernel),
		Kernel: kernel,
		N:      n,
	}
	g.Tasks = append(g.Tasks, t)
	g.topo.Store(nil)
	return t
}

// AddEdge records a data dependency from task src to task dst.
// Duplicate edges are ignored. AddEdge panics if either ID is out of range or
// if src == dst.
func (g *Graph) AddEdge(src, dst int) {
	if src == dst {
		panic(fmt.Sprintf("dag: self edge on task %d", src))
	}
	s, d := g.Task(src), g.Task(dst)
	for _, x := range s.succs {
		if x == dst {
			return
		}
	}
	s.succs = append(s.succs, dst)
	d.preds = append(d.preds, src)
	g.topo.Store(nil)
}

// Task returns the task with the given ID, panicking if out of range.
func (g *Graph) Task(id int) *Task {
	if id < 0 || id >= len(g.Tasks) {
		panic(fmt.Sprintf("dag: task id %d out of range [0,%d)", id, len(g.Tasks)))
	}
	return g.Tasks[id]
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.Tasks) }

// Entries returns the IDs of tasks with no predecessors, in ID order.
func (g *Graph) Entries() []int {
	var out []int
	for _, t := range g.Tasks {
		if len(t.preds) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// Exits returns the IDs of tasks with no successors, in ID order.
func (g *Graph) Exits() []int {
	var out []int
	for _, t := range g.Tasks {
		if len(t.succs) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// EdgeCount returns the total number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, t := range g.Tasks {
		n += len(t.succs)
	}
	return n
}

// Validate checks structural invariants: dense IDs, edge symmetry, positive
// matrix sizes, and acyclicity. It returns the first violation found.
func (g *Graph) Validate() error {
	for i, t := range g.Tasks {
		if t == nil {
			return fmt.Errorf("dag %q: nil task at index %d", g.Name, i)
		}
		if t.ID != i {
			return fmt.Errorf("dag %q: task at index %d has ID %d", g.Name, i, t.ID)
		}
		if t.N < 0 || (t.Kernel != KernelNoop && t.N == 0) {
			return fmt.Errorf("dag %q: task %d has invalid matrix size %d", g.Name, i, t.N)
		}
		for _, p := range t.preds {
			if p < 0 || p >= len(g.Tasks) {
				return fmt.Errorf("dag %q: task %d has out-of-range predecessor %d", g.Name, i, p)
			}
			if !contains(g.Tasks[p].succs, i) {
				return fmt.Errorf("dag %q: edge %d->%d recorded on dst only", g.Name, p, i)
			}
		}
		for _, s := range t.succs {
			if s < 0 || s >= len(g.Tasks) {
				return fmt.Errorf("dag %q: task %d has out-of-range successor %d", g.Name, i, s)
			}
			if !contains(g.Tasks[s].preds, i) {
				return fmt.Errorf("dag %q: edge %d->%d recorded on src only", g.Name, i, s)
			}
		}
	}
	_, err := g.topoOrder()
	return err
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TopoOrder returns the task IDs in a deterministic topological order
// (Kahn's algorithm with smallest-ID-first tie-breaking), or an error if the
// graph has a cycle. The returned slice is the caller's own.
func (g *Graph) TopoOrder() ([]int, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), order...), nil
}

// topoOrder returns the memoised order, computing it on first use. The
// result is shared: callers must not modify it.
func (g *Graph) topoOrder() ([]int, error) {
	if p := g.topo.Load(); p != nil {
		return *p, nil
	}
	order, err := g.computeTopoOrder()
	if err != nil {
		return nil, err // a cyclic graph is not memoised; an AddEdge cannot fix it anyway
	}
	g.topo.Store(&order)
	return order, nil
}

func (g *Graph) computeTopoOrder() ([]int, error) {
	// ready is a min-heap of the tasks whose predecessors are all ordered,
	// so the smallest ready ID always goes next. The entry tasks are pushed
	// in ascending order, which is already a heap.
	indeg := make([]int, len(g.Tasks))
	ready := make([]int, 0, len(g.Tasks))
	for _, t := range g.Tasks {
		indeg[t.ID] = len(t.preds)
		if len(t.preds) == 0 {
			ready = append(ready, t.ID)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, id)
		for _, s := range g.Tasks[id].succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("dag %q: cycle detected (%d of %d tasks ordered)",
			g.Name, len(order), len(g.Tasks))
	}
	return order, nil
}

// siftUp restores the min-heap after an append.
func siftUp(h []int) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap after its root was replaced.
func siftDown(h []int) {
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Levels returns, for each task, its precedence level: entry tasks are level
// 0 and every other task is 1 + max(level of predecessors). MCPA constrains
// allocations per level. The second return value is the number of levels.
func (g *Graph) Levels() ([]int, int) {
	order := g.mustTopo() // callers validate first; a cycle here is a programming error
	level := make([]int, len(g.Tasks))
	maxLevel := 0
	for _, id := range order {
		l := 0
		for _, p := range g.Tasks[id].preds {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	if len(g.Tasks) == 0 {
		return level, 0
	}
	return level, maxLevel + 1
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{Name: g.Name, Tasks: make([]*Task, len(g.Tasks))}
	for i, t := range g.Tasks {
		ct := *t
		ct.preds = append([]int(nil), t.preds...)
		ct.succs = append([]int(nil), t.succs...)
		out.Tasks[i] = &ct
	}
	return out
}

// CountKernel returns the number of tasks with the given kernel.
func (g *Graph) CountKernel(k Kernel) int {
	n := 0
	for _, t := range g.Tasks {
		if t.Kernel == k {
			n++
		}
	}
	return n
}
