package simgrid

import (
	"fmt"
	"math"
)

// maxminVar is one variable (an activity's progress rate) in a bounded
// max-min fairness problem. Resource consumption is held in sparse
// index/value form: res lists the resource indices the variable consumes
// (ascending, no duplicates) and use holds the amount consumed per unit of
// rate, parallel to res. Entries are strictly positive — zero-usage entries
// are dropped when the sparse form is built (setUsage), so "uses resource r"
// and "appears in res" coincide.
type maxminVar struct {
	res []int
	use []float64
	// bound caps the rate; <= 0 means unbounded.
	bound float64
	// rate is the solver's output.
	rate float64
	// fixed marks variables whose rate has been decided.
	fixed bool

	// shared marks, for the current Engine.solveRates split, a variable
	// that meets another running variable on some resource.
	shared bool
	// lone caches the rate the variable gets when no other running variable
	// uses any of its resources: min_r capacity[r]/use[r], +Inf with no
	// resource. loneKnown says whether it has been computed since the
	// variable was last loaded (setUsage, at Add).
	lone      float64
	loneKnown bool
}

// setUsage rebuilds the sparse form from a usage vector, reusing the backing
// arrays so steady-state reloads allocate nothing. Entries are kept sorted by
// resource index whatever order the caller listed them in (an insertion
// sort: one comparison per entry on the already-sorted vectors the Net
// fillers emit, and usage vectors are small — a handful of resources per
// host touched). Zero entries are dropped; validation of indices and signs
// is the caller's job. It reports false when a resource is listed twice.
func (v *maxminVar) setUsage(usage []Use) bool {
	v.res, v.use = v.res[:0], v.use[:0]
	v.loneKnown = false
	for _, u := range usage {
		if u.Amount == 0 {
			continue
		}
		i := len(v.res)
		v.res = append(v.res, u.Res)
		v.use = append(v.use, u.Amount)
		for i > 0 && v.res[i-1] > u.Res {
			v.res[i], v.res[i-1] = v.res[i-1], v.res[i]
			v.use[i], v.use[i-1] = v.use[i-1], v.use[i]
			i--
		}
		if i > 0 && v.res[i-1] == u.Res {
			return false
		}
	}
	return true
}

// usageOf returns the variable's usage of resource r, 0 when unused. The
// sparse form is sorted and tiny, so a linear scan suffices.
func (v *maxminVar) usageOf(r int) float64 {
	for k, rr := range v.res {
		if rr == r {
			return v.use[k]
		}
		if rr > r {
			break
		}
	}
	return 0
}

// solver computes bounded max-min fair allocations of rates to variables
// under per-resource capacity constraints:
//
//	for every resource r:  Σ_v usage[v][r]·rate[v] ≤ capacity[r]
//	for every variable v:  rate[v] ≤ bound[v]  (if bound[v] > 0)
//
// The classic bottleneck algorithm is used: repeatedly find the resource
// whose fair share (remaining capacity divided by the total usage weight of
// its undecided variables) is smallest, fix all its variables at that share,
// deduct their consumption everywhere, and iterate. Variables whose bound is
// tighter than every fair share are fixed at their bound first.
//
// This is the engine-internal entry point: Engine.solveRates collects the
// variables of the running actions that share a resource (all of them when
// its tie check fails) and calls solve at most twice per event; there is no
// public solver API. Each solve records its rounds' bottleneck shares for
// that tie check. All scratch state — remaining capacities, per-resource
// weights, saturation marks, the unfixed-variable list and the round shares
// — is hoisted into the solver and reused across calls, so steady-state
// solving performs no allocation once the scratch has grown to the problem
// size.
type solver struct {
	remaining []float64    // remaining capacity per resource
	weight    []float64    // per-round usage weight of unfixed variables
	saturated []bool       // per-round bottleneck marks
	touched   []int        // resources carrying weight in the current round
	unfixed   []*maxminVar // variables whose rate is still undecided
	rounds    []float64    // the bottleneck share of every saturating round
}

// reset restores the zeroed-scratch invariant unconditionally and drops the
// variable references held from previous solves. solve's round cleanup
// maintains the invariant on every normal exit, but a panic mid-round (the
// stall guard) can leave weights and saturation marks behind without a
// record of which entries are dirty — a recycled engine would then silently
// skip capacity constraints. Engine.Reset calls this, so an engine returning
// to a pool is always sound even after a panicked solve.
func (s *solver) reset() {
	clear(s.weight[:cap(s.weight)])
	clear(s.saturated[:cap(s.saturated)])
	s.touched = s.touched[:0]
	unfixed := s.unfixed[:cap(s.unfixed)]
	clear(unfixed)
	s.unfixed = unfixed[:0]
}

// grow sizes the per-resource scratch. weight and saturated rely on the
// invariant that solve leaves them zeroed (enforced by the round cleanup
// on every normal exit, and by reset after an abnormal one), so freshly
// grown storage and recycled storage are indistinguishable.
func (s *solver) grow(nRes int) {
	if cap(s.remaining) < nRes {
		s.remaining = make([]float64, nRes)
		s.weight = make([]float64, nRes)
		s.saturated = make([]bool, nRes)
	}
	s.remaining = s.remaining[:nRes]
	s.weight = s.weight[:nRes]
	s.saturated = s.saturated[:nRes]
}

// consume deducts a fixed variable's consumption from the remaining
// capacities, clamping at zero against floating-point residue.
func consume(remaining []float64, v *maxminVar) {
	for k, r := range v.res {
		remaining[r] -= float64(v.use[k] * v.rate)
		if remaining[r] < 0 {
			remaining[r] = 0
		}
	}
}

// solve assigns every variable its bounded max-min fair rate under the given
// capacities. Variables using no resource run unconstrained: at their bound
// if bounded, at +Inf otherwise.
func (s *solver) solve(vars []*maxminVar, capacity []float64) {
	s.grow(len(capacity))
	remaining := s.remaining
	copy(remaining, capacity)

	s.unfixed = s.unfixed[:0]
	s.rounds = s.rounds[:0]
	for _, v := range vars {
		v.rate = 0
		v.fixed = len(v.res) == 0 // a variable using nothing runs unconstrained
		if v.fixed {
			if v.bound > 0 {
				v.rate = v.bound
			} else {
				v.rate = math.Inf(1)
			}
			continue
		}
		s.unfixed = append(s.unfixed, v)
	}

	weight, saturated, touched := s.weight, s.saturated, s.touched[:0]
	for {
		// Reset the previous round's weights and marks, leaving the scratch
		// zeroed for the next round (and the next solve).
		for _, r := range touched {
			weight[r] = 0
			saturated[r] = false
		}
		touched = touched[:0]
		if len(s.unfixed) == 0 {
			break
		}

		// Total usage weight of undecided variables per resource.
		for _, v := range s.unfixed {
			for k, r := range v.res {
				if weight[r] == 0 {
					touched = append(touched, r)
				}
				weight[r] += v.use[k]
			}
		}

		// Bottleneck share over resources.
		share := math.Inf(1)
		for _, r := range touched {
			if w := weight[r]; w > 0 {
				if sh := remaining[r] / w; sh < share {
					share = sh
				}
			}
		}

		// A bound tighter than the bottleneck share fixes that variable
		// before the bottleneck resource saturates.
		bounded := false
		n := 0
		for _, v := range s.unfixed {
			if v.bound <= 0 || v.bound > share {
				s.unfixed[n] = v
				n++
				continue
			}
			v.rate = v.bound
			v.fixed = true
			bounded = true
			consume(remaining, v)
		}
		s.unfixed = s.unfixed[:n]
		if bounded {
			continue // recompute shares with the bounded variables gone
		}

		if math.IsInf(share, 1) {
			// No capacity pressure at all: unreachable for well-formed
			// inputs (every unfixed variable has usage on some resource).
			for _, v := range s.unfixed {
				v.rate = math.Inf(1)
				v.fixed = true
			}
			s.unfixed = s.unfixed[:0]
			continue // one more pass through the cleanup, then exit
		}

		// Fix every variable on a saturated bottleneck resource.
		s.rounds = append(s.rounds, share)
		for _, r := range touched {
			if w := weight[r]; w > 0 && remaining[r]/w <= share*(1+1e-12) {
				saturated[r] = true
			}
		}
		progressed := false
		n = 0
		for _, v := range s.unfixed {
			hit := false
			for _, r := range v.res {
				if saturated[r] {
					hit = true
					break
				}
			}
			if !hit {
				s.unfixed[n] = v
				n++
				continue
			}
			v.rate = share
			v.fixed = true
			progressed = true
			consume(remaining, v)
		}
		s.unfixed = s.unfixed[:n]
		if !progressed {
			panic(fmt.Sprintf("simgrid: max-min solver stalled with %d unfixed variables", len(s.unfixed)))
		}
	}
	s.touched = touched[:0]
}
