package dag

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	a := g.AddTask(KernelMul, 100)
	b := g.AddTask(KernelAdd, 100)
	c := g.AddTask(KernelMul, 100)
	d := g.AddTask(KernelAdd, 100)
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(a.ID, c.ID)
	g.AddEdge(b.ID, d.ID)
	g.AddEdge(c.ID, d.ID)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return g
}

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	g := New("x")
	for i := 0; i < 5; i++ {
		task := g.AddTask(KernelMul, 10)
		if task.ID != i {
			t.Fatalf("task %d got ID %d", i, task.ID)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestAddEdgeSymmetricAndDeduped(t *testing.T) {
	g := New("x")
	a := g.AddTask(KernelMul, 10)
	b := g.AddTask(KernelMul, 10)
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(a.ID, b.ID) // duplicate ignored
	if got := a.OutDegree(); got != 1 {
		t.Errorf("src out-degree = %d, want 1", got)
	}
	if got := b.InDegree(); got != 1 {
		t.Errorf("dst in-degree = %d, want 1", got)
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	g := New("x")
	a := g.AddTask(KernelMul, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("self edge did not panic")
		}
	}()
	g.AddEdge(a.ID, a.ID)
}

func TestEntriesAndExits(t *testing.T) {
	g := diamond(t)
	if e := g.Entries(); len(e) != 1 || e[0] != 0 {
		t.Errorf("Entries = %v, want [0]", e)
	}
	if x := g.Exits(); len(x) != 1 || x[0] != 3 {
		t.Errorf("Exits = %v, want [3]", x)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, task := range g.Tasks {
		for _, s := range task.Succs() {
			if pos[task.ID] >= pos[s] {
				t.Errorf("edge %d->%d violates topo order %v", task.ID, s, order)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cycle")
	a := g.AddTask(KernelMul, 10)
	b := g.AddTask(KernelMul, 10)
	c := g.AddTask(KernelMul, 10)
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(b.ID, c.ID)
	g.AddEdge(c.ID, a.ID)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate error = %v, want cycle error", err)
	}
}

// TestTopoOrderMemo pins the memoised order's contract: a caller may scribble
// on what TopoOrder returns without corrupting later analyses, growing the
// graph invalidates the memo — including an edge that closes a cycle after a
// successful order was memoised — and analyses on one graph from many
// goroutines agree with a fresh graph's (run under -race in CI).
func TestTopoOrderMemo(t *testing.T) {
	g := diamond(t)
	first, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), first...)
	for i := range first {
		first[i] = -1
	}
	if again, _ := g.TopoOrder(); !slices.Equal(again, want) {
		t.Fatalf("order after the caller overwrote its copy = %v, want %v", again, want)
	}

	late := g.AddTask(KernelAdd, 10)
	g.AddEdge(late.ID, 0) // a new entry feeding the old one
	grown, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != g.Len() || grown[0] != late.ID {
		t.Fatalf("order after AddTask/AddEdge = %v, want %d tasks starting at %d", grown, g.Len(), late.ID)
	}
	if level, _ := g.Levels(); level[0] != 1 {
		t.Errorf("old entry's level = %d after gaining a predecessor, want 1", level[0])
	}

	cost := func(t *Task, p int) float64 { return float64(t.ID + 1) }
	alloc := make([]int, g.Len())
	ref := g.Clone()
	wantBL := ref.BottomLevels(alloc, cost, nil)
	wantCP := ref.CriticalPath(alloc, cost, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if bl := g.BottomLevels(alloc, cost, nil); !slices.Equal(bl, wantBL) {
					t.Errorf("concurrent BottomLevels = %v, want %v", bl, wantBL)
				}
				if cp := g.CriticalPath(alloc, cost, nil); !slices.Equal(cp, wantCP) {
					t.Errorf("concurrent CriticalPath = %v, want %v", cp, wantCP)
				}
				g.Levels()
			}
		}()
	}
	wg.Wait()

	g.AddEdge(3, late.ID) // exit back to the new entry: a cycle
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle closed after a memoised order went undetected")
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	level, n := g.Levels()
	want := []int{0, 1, 1, 2}
	if n != 3 {
		t.Fatalf("levels = %d, want 3", n)
	}
	for i, l := range level {
		if l != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, l, want[i])
		}
	}
}

func TestWidth(t *testing.T) {
	g := diamond(t)
	if w := g.Width(); w != 2 {
		t.Errorf("Width = %d, want 2", w)
	}
}

func TestFlops(t *testing.T) {
	mul := &Task{Kernel: KernelMul, N: 100}
	if got, want := mul.Flops(), 2e6; got != want {
		t.Errorf("mul flops = %g, want %g", got, want)
	}
	add := &Task{Kernel: KernelAdd, N: 100}
	// boosted addition: (n/4)·n² = 25·10000
	if got, want := add.Flops(), 25.0*10000; got != want {
		t.Errorf("add flops = %g, want %g", got, want)
	}
	noop := &Task{Kernel: KernelNoop}
	if noop.Flops() != 0 {
		t.Errorf("noop flops = %g, want 0", noop.Flops())
	}
}

func TestMatrixBytes(t *testing.T) {
	// The paper: n=2000 → ~30 MB, n=3000 → ~68 MB.
	if got := MatrixBytes(2000); got != 32_000_000 {
		t.Errorf("MatrixBytes(2000) = %d, want 32000000", got)
	}
	if got := MatrixBytes(3000); got != 72_000_000 {
		t.Errorf("MatrixBytes(3000) = %d, want 72000000", got)
	}
}

func TestClone(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.EdgeCount() == c.EdgeCount() {
		t.Error("clone shares edge storage with original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original damaged by clone mutation: %v", err)
	}
}

func TestCountKernel(t *testing.T) {
	g := diamond(t)
	if got := g.CountKernel(KernelAdd); got != 2 {
		t.Errorf("CountKernel(add) = %d, want 2", got)
	}
	if got := g.CountKernel(KernelMul); got != 2 {
		t.Errorf("CountKernel(mul) = %d, want 2", got)
	}
}

func TestBottomLevelsDiamond(t *testing.T) {
	g := diamond(t)
	alloc := []int{1, 1, 1, 1}
	unit := func(task *Task, p int) float64 { return 1 }
	bl := g.BottomLevels(alloc, unit, nil)
	want := []float64{3, 2, 2, 1}
	for i := range bl {
		if bl[i] != want[i] {
			t.Errorf("bl[%d] = %g, want %g", i, bl[i], want[i])
		}
	}
}

func TestTopLevelsDiamond(t *testing.T) {
	g := diamond(t)
	alloc := []int{1, 1, 1, 1}
	unit := func(task *Task, p int) float64 { return 1 }
	tl := g.TopLevels(alloc, unit, nil)
	want := []float64{0, 1, 1, 2}
	for i := range tl {
		if tl[i] != want[i] {
			t.Errorf("tl[%d] = %g, want %g", i, tl[i], want[i])
		}
	}
}

func TestCriticalPathLengthWithComm(t *testing.T) {
	g := diamond(t)
	alloc := []int{1, 1, 1, 1}
	unit := func(task *Task, p int) float64 { return 1 }
	comm := func(src, dst *Task, ps, pd int) float64 { return 0.5 }
	// path: 1 + 0.5 + 1 + 0.5 + 1 = 4
	if got := g.CriticalPathLength(alloc, unit, comm); got != 4 {
		t.Errorf("T_CP = %g, want 4", got)
	}
}

func TestCriticalPathIsPath(t *testing.T) {
	g := diamond(t)
	alloc := []int{1, 1, 1, 1}
	cost := func(task *Task, p int) float64 { return float64(task.ID + 1) }
	path := g.CriticalPath(alloc, cost, nil)
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if path[0] != 0 || path[len(path)-1] != 3 {
		t.Errorf("path %v should go entry 0 → exit 3", path)
	}
	for i := 0; i+1 < len(path); i++ {
		found := false
		for _, s := range g.Task(path[i]).Succs() {
			if s == path[i+1] {
				found = true
			}
		}
		if !found {
			t.Errorf("path step %d->%d is not an edge", path[i], path[i+1])
		}
	}
}

func TestAverageArea(t *testing.T) {
	g := diamond(t)
	alloc := []int{2, 1, 1, 4}
	cost := func(task *Task, p int) float64 { return 10 }
	// Σ t·p = 10·2 + 10 + 10 + 10·4 = 80; /N=8 → 10
	if got := g.AverageArea(alloc, cost, 8); got != 10 {
		t.Errorf("T_A = %g, want 10", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New("empty")
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph invalid: %v", err)
	}
	order, err := g.TopoOrder()
	if err != nil || len(order) != 0 {
		t.Errorf("TopoOrder = %v, %v", order, err)
	}
	if g.Width() != 0 {
		t.Errorf("Width = %d, want 0", g.Width())
	}
}
