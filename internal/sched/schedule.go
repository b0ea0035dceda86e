// Package sched implements the paper's two-phase scheduling algorithms for
// mixed-parallel applications on homogeneous clusters (§II-A): the CPA
// family — CPA (Radulescu & van Gemund), HCPA (N'takpé, Suter & Casanova)
// and MCPA (Bansal, Kumar & Singh) — plus reference baselines. All
// algorithms first run an allocation phase that decides how many processors
// each moldable task gets, then a mapping phase (list scheduling) that picks
// the concrete processor sets and the execution order.
//
// The allocation and mapping phases consult a performance model through
// dag.CostFunc/dag.CommFunc, so the same algorithm paired with different
// models (analytic, profile, empirical) computes different schedules — the
// paper's experimental design.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/dag"
)

// Schedule is the output of a scheduling algorithm: per-task allocations,
// concrete processor sets, and the estimated timeline the mapping phase
// produced. The estimates come from the scheduler's performance model; the
// simulator and the real execution environment replay the schedule and
// produce their own (generally different) makespans.
type Schedule struct {
	// Algorithm names the algorithm that produced the schedule.
	Algorithm string
	// Model names the performance model used ("analytic", ...).
	Model string
	// Graph is the scheduled application.
	Graph *dag.Graph
	// Alloc[t] is the number of processors allocated to task t.
	Alloc []int
	// Hosts[t] lists the processors assigned to task t (len == Alloc[t]).
	Hosts [][]int
	// EstStart and EstFinish are the mapping phase's estimated times.
	EstStart, EstFinish []float64
}

// EstMakespan returns the mapping phase's estimated makespan.
func (s *Schedule) EstMakespan() float64 {
	best := 0.0
	for _, f := range s.EstFinish {
		if f > best {
			best = f
		}
	}
	return best
}

// Order returns the task IDs sorted by estimated start time (ties by ID),
// the order in which the runtime environment should launch them.
func (s *Schedule) Order() []int {
	order := make([]int, len(s.Alloc))
	for i := range order {
		order[i] = i
	}
	sortByStart(order, s.EstStart)
	return order
}

// sortByStart sorts task IDs by start time, ties by ID. For non-NaN times
// the key is a strict total order, so any correct sort gives the one
// permutation a stable sort would.
func sortByStart(ids []int, start []float64) {
	slices.SortFunc(ids, func(a, b int) int {
		if ta, tb := start[a], start[b]; ta != tb {
			if ta < tb {
				return -1
			}
			return 1
		}
		return a - b
	})
}

// Validate checks the schedule against the cluster size: allocation bounds,
// host-set shapes, precedence feasibility of the estimated timeline, and
// that tasks overlapping in estimated time never share a processor. It
// allocates nothing for schedules whose host sets are listed in ascending
// order, which is how every builder in this package emits them.
//
// Exclusivity is first checked by a per-host sweep (sweepExclusive), which
// costs a sort; only when the sweep cannot rule a conflict out does the
// pairwise scan run, so an invalid schedule reports the same pair and message
// it always has.
func (s *Schedule) Validate(clusterSize int) error {
	n := s.Graph.Len()
	if len(s.Alloc) != n || len(s.Hosts) != n || len(s.EstStart) != n || len(s.EstFinish) != n {
		return fmt.Errorf("sched %s: field lengths inconsistent with %d tasks", s.Algorithm, n)
	}
	for t := 0; t < n; t++ {
		if s.Alloc[t] < 1 || s.Alloc[t] > clusterSize {
			return fmt.Errorf("sched %s: task %d allocated %d processors (cluster has %d)",
				s.Algorithm, t, s.Alloc[t], clusterSize)
		}
		if len(s.Hosts[t]) != s.Alloc[t] {
			return fmt.Errorf("sched %s: task %d has %d hosts but allocation %d",
				s.Algorithm, t, len(s.Hosts[t]), s.Alloc[t])
		}
		// A strictly ascending host list cannot repeat a host; only other
		// orders need the set.
		var seen map[int]bool
		if !strictlyAscending(s.Hosts[t]) {
			seen = make(map[int]bool, len(s.Hosts[t]))
		}
		for _, h := range s.Hosts[t] {
			if h < 0 || h >= clusterSize {
				return fmt.Errorf("sched %s: task %d uses host %d out of range", s.Algorithm, t, h)
			}
			if seen != nil {
				if seen[h] {
					return fmt.Errorf("sched %s: task %d uses host %d twice", s.Algorithm, t, h)
				}
				seen[h] = true
			}
		}
		if s.EstFinish[t] < s.EstStart[t] {
			return fmt.Errorf("sched %s: task %d finishes before it starts", s.Algorithm, t)
		}
		for _, p := range s.Graph.Task(t).Preds() {
			if s.EstStart[t] < s.EstFinish[p]-1e-9 {
				return fmt.Errorf("sched %s: task %d starts at %g before predecessor %d finishes at %g",
					s.Algorithm, t, s.EstStart[t], p, s.EstFinish[p])
			}
		}
	}
	if s.sweepExclusive() {
		return nil
	}
	// Processor exclusivity among time-overlapping tasks.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if s.EstStart[a] >= s.EstFinish[b]-1e-9 || s.EstStart[b] >= s.EstFinish[a]-1e-9 {
				continue // disjoint in time
			}
			for _, ha := range s.Hosts[a] {
				for _, hb := range s.Hosts[b] {
					if ha == hb {
						return fmt.Errorf("sched %s: tasks %d and %d overlap on host %d",
							s.Algorithm, a, b, ha)
					}
				}
			}
		}
	}
	return nil
}

// sweepBuf is sweepExclusive's scratch, pooled so Validate allocates nothing.
type sweepBuf struct {
	order []int
	free  []float64
}

var sweepBufs = sync.Pool{New: func() any { return new(sweepBuf) }}

// sweepExclusive reports whether a per-host sweep proves that no two tasks
// overlapping in estimated time share a processor. It visits tasks in start
// order and keeps each host's latest finish so far. If the pairwise scan
// rejects tasks a and b on host h, then whichever of them is visited second
// starts more than 1e-9 before the other's finish, hence before h's latest
// finish minus 1e-9 (subtracting a constant is monotone in floating point),
// so the sweep flags it. A clean sweep therefore means the scan would find
// nothing; a flag may be a false alarm and leaves the verdict to the scan.
// The per-task checks must have passed: hosts in range, none listed twice.
// NaN fails every comparison the sweep makes, so a non-finite time sends
// the schedule to the scan.
func (s *Schedule) sweepExclusive() bool {
	n, maxHost := len(s.EstStart), -1
	for t := 0; t < n; t++ {
		if !finite(s.EstStart[t]) || !finite(s.EstFinish[t]) {
			return false
		}
		for _, h := range s.Hosts[t] {
			maxHost = max(maxHost, h)
		}
	}
	b := sweepBufs.Get().(*sweepBuf)
	defer sweepBufs.Put(b)
	b.order = grow(b.order, n)
	for t := range b.order {
		b.order[t] = t
	}
	sortByStart(b.order, s.EstStart)
	b.free = grow(b.free, maxHost+1)
	for h := range b.free {
		b.free[h] = math.Inf(-1)
	}
	for _, t := range b.order {
		start, finish := s.EstStart[t], s.EstFinish[t]
		for _, h := range s.Hosts[t] {
			if start < b.free[h]-1e-9 {
				return false
			}
			if finish > b.free[h] {
				b.free[h] = finish
			}
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func strictlyAscending(hosts []int) bool {
	for i := 1; i < len(hosts); i++ {
		if hosts[i] <= hosts[i-1] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schedule sharing only the immutable
// Graph. Scratch-built schedules alias their scratch's buffers and are
// invalidated by the next build; Clone detaches one for retention.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		Algorithm: s.Algorithm,
		Model:     s.Model,
		Graph:     s.Graph,
		Alloc:     append([]int(nil), s.Alloc...),
		Hosts:     make([][]int, len(s.Hosts)),
		EstStart:  append([]float64(nil), s.EstStart...),
		EstFinish: append([]float64(nil), s.EstFinish...),
	}
	total := 0
	for _, hs := range s.Hosts {
		total += len(hs)
	}
	flat := make([]int, 0, total)
	for i, hs := range s.Hosts {
		off := len(flat)
		flat = append(flat, hs...)
		c.Hosts[i] = flat[off:len(flat):len(flat)]
	}
	return c
}

// Algorithm names a scheduler: the CPA family and the baselines, two-phase
// schedulers whose allocation phase Scratch.Build runs before the shared
// mapping phase, or the one-phase MHEFT, which Scratch.BuildOn runs.
type Algorithm interface {
	// Name identifies the algorithm ("CPA", "HCPA", "MCPA", ...).
	Name() string
}

// Build runs the full two-phase scheduler on a pooled scratch: the
// algorithm's allocation phase followed by the shared list-scheduling
// mapping phase. The schedule is the caller's to keep.
func Build(algo Algorithm, g *dag.Graph, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	return pooled(g, clusterSize, cost, func(sc *Scratch) (*Schedule, error) {
		return sc.Build(algo, comm)
	})
}

// Build runs the one-phase scheduler on a pooled scratch and returns a
// validated schedule that is the caller's to keep.
func (m MHEFT) Build(g *dag.Graph, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	return pooled(g, clusterSize, cost, func(sc *Scratch) (*Schedule, error) {
		return sc.BuildMHEFT(m, comm)
	})
}

// pooled binds a pooled scratch to (g, clusterSize, cost), builds with it and
// returns a Clone of the result. The scratch goes back to the pool by a plain
// call: one held at an error or a panic is dropped, never pooled.
func pooled(g *dag.Graph, clusterSize int, cost dag.CostFunc, build func(*Scratch) (*Schedule, error)) (*Schedule, error) {
	sc := AcquireScratch()
	sc.Bind(g, clusterSize, cost)
	s, err := build(sc)
	if err != nil {
		return nil, err
	}
	s = s.Clone()
	ReleaseScratch(sc)
	return s, nil
}
