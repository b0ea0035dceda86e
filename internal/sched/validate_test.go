package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
)

// validateOracle is Schedule.Validate as it was before the per-host sweep,
// verbatim: the pairwise exclusivity scan always runs. The sweep may only
// skip that scan when the scan would find nothing, so Validate must return
// what this returns — nil together, or the identical message.
func validateOracle(s *Schedule, clusterSize int) error {
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
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if s.EstStart[a] >= s.EstFinish[b]-1e-9 || s.EstStart[b] >= s.EstFinish[a]-1e-9 {
				continue
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

// byteStream hands out fuzz bytes, then zeros once they run out.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// scheduleFromBytes decodes a schedule for Validate to judge. It first lays
// down a valid one — up to 64 tasks in ID order (a topological order: edges
// only run from lower to higher IDs), each on consecutive hosts after they
// and its predecessors are free, windows of 0–3 s — and then applies up to five of these
// mutations, as the bytes say: starts exactly 1e-9 inside or outside
// another task's finish, moved or shared windows, zero-length windows,
// hosts out of range, duplicated or descending, broken allocations, NaN and
// ±Inf times. The mostly valid base keeps the sweep's accept path busy; the
// mutations its fallback.
func scheduleFromBytes(data []byte) (*Schedule, int) {
	r := byteStream(data)
	n := 1 + r.next()%64
	clusterSize := 1 + r.next()%8
	mutations := r.next() % 6
	g := dag.New("fuzz")
	for i := 0; i < n; i++ {
		g.AddTask(dag.KernelMul, 100)
		if i > 0 && r.next()%6 == 0 {
			g.AddEdge(r.next()%i, i)
		}
	}
	s := &Schedule{
		Algorithm: "fuzz", Graph: g,
		Alloc: make([]int, n), Hosts: make([][]int, n),
		EstStart: make([]float64, n), EstFinish: make([]float64, n),
	}
	free := make([]float64, clusterSize)
	for t := 0; t < n; t++ {
		k, first := 1+r.next()%clusterSize, r.next()%clusterSize
		hosts := make([]int, k)
		start := 0.0
		for i := range hosts {
			hosts[i] = (first + i) % clusterSize
			start = math.Max(start, free[hosts[i]])
		}
		sort.Ints(hosts)
		for _, p := range g.Task(t).Preds() {
			start = math.Max(start, s.EstFinish[p])
		}
		finish := start + float64(r.next()%4)
		for _, h := range hosts {
			free[h] = finish
		}
		s.Alloc[t], s.Hosts[t], s.EstStart[t], s.EstFinish[t] = k, hosts, start, finish
	}
	for i := 0; i < mutations; i++ {
		op, t, u := r.next()%16, r.next()%n, r.next()%n
		if op >= 12 { // weight the moves that make overlaps
			op = []int{0, 1, 2, 4}[op-12]
		}
		hs := s.Hosts[t]
		switch op {
		case 0, 1: // start exactly 1e-9 inside or outside another task's finish
			d := s.EstFinish[t] - s.EstStart[t]
			s.EstStart[t] = s.EstFinish[u] + float64(2*op-1)*1e-9
			s.EstFinish[t] = s.EstStart[t] + d
		case 2: // a window shifted onto another task's
			d := s.EstFinish[t] - s.EstStart[t]
			s.EstStart[t] = s.EstStart[u]
			s.EstFinish[t] = s.EstStart[t] + d
		case 3: // zero-length window
			s.EstFinish[t] = s.EstStart[t]
		case 4: // another task's host
			hs[r.next()%len(hs)] = s.Hosts[u][0]
		case 5: // host out of range
			if r.next()%2 == 0 {
				hs[r.next()%len(hs)] = clusterSize
			} else {
				hs[r.next()%len(hs)] = -1
			}
		case 6: // duplicated host
			hs[r.next()%len(hs)] = hs[0]
		case 7: // descending host list
			slices.Reverse(hs)
		case 8: // allocation out of range or disagreeing with the host list
			s.Alloc[t] = r.next()%(clusterSize+2) - 1
		case 9:
			if r.next()%2 == 0 {
				s.EstStart[t] = math.NaN()
			} else {
				s.EstFinish[t] = math.NaN()
			}
		case 10:
			inf := math.Inf(1 - 2*(r.next()%2))
			if r.next()%2 == 0 {
				s.EstStart[t] = inf
			} else {
				s.EstFinish[t] = inf
			}
		case 11: // a finish nudged by one ulp either way
			s.EstFinish[t] = math.Nextafter(s.EstFinish[t], math.Inf(1-2*(r.next()%2)))
		}
	}
	return s, clusterSize
}

// sameVerdict reports whether Validate agrees with the oracle on s.
func sameVerdict(t *testing.T, s *Schedule, clusterSize int) bool {
	t.Helper()
	got, want := s.Validate(clusterSize), validateOracle(s, clusterSize)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Logf("Validate = %v, oracle = %v (cluster %d, start %v, finish %v, hosts %v)",
			got, want, clusterSize, s.EstStart, s.EstFinish, s.Hosts)
		return false
	}
	return true
}

// TestValidateMatchesOracleQuick checks the sweep validator against the
// pairwise oracle on random decoded schedules, and that each way through
// Validate — accepted by the sweep, accepted by the scan after a sweep false
// alarm, an overlap found by the scan — is taken often enough to count.
func TestValidateMatchesOracleQuick(t *testing.T) {
	var bySweep, byScan, overlaps int
	prop := func(data []byte) bool {
		s, clusterSize := scheduleFromBytes(data)
		switch err := validateOracle(s, clusterSize); {
		case err == nil && s.sweepExclusive():
			bySweep++
		case err == nil:
			byScan++
		case strings.Contains(err.Error(), "overlap"):
			overlaps++
		}
		return sameVerdict(t, s, clusterSize)
	}
	cfg := &quick.Config{
		MaxCount: 3000,
		Rand:     rand.New(rand.NewSource(25)),
		Values: func(args []reflect.Value, rng *rand.Rand) {
			data := make([]byte, 3+rng.Intn(400))
			rng.Read(data)
			args[0] = reflect.ValueOf(data)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if bySweep < 300 || byScan < 20 || overlaps < 300 {
		t.Errorf("paths too rarely taken: %d accepted by the sweep, %d by the scan, %d overlaps",
			bySweep, byScan, overlaps)
	}
}

// FuzzScheduleValidate is the same property under the fuzzer. The seeds are
// two tasks on one host, [0,2] and [2,4], then one mutation of task 1:
// a start exactly 1e-9 inside task 0's finish (valid), its window moved onto
// task 0's (overlap), a NaN start, and (of task 0) an infinite finish.
func FuzzScheduleValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 2, 0, 0, 2, 0, 1, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 2, 0, 0, 2, 2, 1, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 2, 0, 0, 2, 9, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 2, 0, 0, 2, 10, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, clusterSize := scheduleFromBytes(data)
		if !sameVerdict(t, s, clusterSize) {
			t.Fail()
		}
	})
}

// TestValidateOnBuiltSchedules holds the sweep to what it is for: every
// builder's output passes the sweep itself, so Validate never falls back to
// the pairwise scan on the hot path, and the verdict matches the oracle.
func TestValidateOnBuiltSchedules(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost, comm := perfmodel.CostFunc(model), perfmodel.CommFunc(model, c)
	for seed := int64(0); seed < 4; seed++ {
		g := dag.MustGenerate(dag.GenParams{Tasks: 20 + 30*int(seed), InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: seed})
		var scheds []*Schedule
		for _, algo := range []Algorithm{CPA{}, HCPA{}, MCPA{}, Sequential{}, DataParallel{}} {
			s, err := Build(algo, g, c.Nodes, cost, comm)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, s)
		}
		s, err := MHEFT{}.Build(g, c.Nodes, cost, comm)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range append(scheds, s) {
			if !s.sweepExclusive() {
				t.Errorf("%s on %s: the sweep fell back to the pairwise scan", s.Algorithm, g.Name)
			}
			if !sameVerdict(t, s, c.Nodes) {
				t.Errorf("%s on %s: Validate disagrees with the oracle", s.Algorithm, g.Name)
			}
		}
	}
}

// TestValidateConcurrent validates from many goroutines at once, so the race
// detector sees the pooled sweep buffers shared across them.
func TestValidateConcurrent(t *testing.T) {
	var cases []*Schedule
	var sizes []int
	var want []error
	for i := 0; i < 16; i++ {
		data := make([]byte, 40+i*13)
		rand.New(rand.NewSource(int64(i))).Read(data)
		s, clusterSize := scheduleFromBytes(data)
		cases, sizes, want = append(cases, s), append(sizes, clusterSize), append(want, validateOracle(s, clusterSize))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (w + round) % len(cases)
				got := cases[i].Validate(sizes[i])
				if (got == nil) != (want[i] == nil) || (got != nil && got.Error() != want[i].Error()) {
					t.Errorf("case %d: Validate = %v, want %v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
