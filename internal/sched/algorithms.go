package sched

import "fmt"

// The algorithms: each is a value naming one scheduler, which a Scratch runs.

// named is the one table of schedulers reachable by name — the CPA family,
// the M-HEFT baseline and the two allocation baselines — in the order specs
// list them.
var named = []Algorithm{CPA{}, HCPA{}, MCPA{}, MHEFT{}, Sequential{}, DataParallel{}}

// Names lists the names ByName resolves, in table order.
func Names() []string {
	names := make([]string, len(named))
	for i, algo := range named {
		names[i] = algo.Name()
	}
	return names
}

// ByName returns the scheduler whose Name is name, with default parameters.
func ByName(name string) (Algorithm, error) {
	for _, algo := range named {
		if algo.Name() == name {
			return algo, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown algorithm %q (want one of %v)", name, Names())
}

// CPA is the Critical Path and Area-based scheduling algorithm of Radulescu
// and van Gemund (§II-A, [7]). Its allocation phase starts every task on one
// processor and repeatedly gives one more processor to the critical-path
// task that benefits most, until the critical path T_CP no longer exceeds
// the average area T_A = (1/N)·Σ t(τ,n_τ)·n_τ. CPA is known to over-allocate
// on wide DAGs — the flaw HCPA and MCPA address.
type CPA struct{}

// Name implements Algorithm.
func (CPA) Name() string { return "CPA" }

// HCPA is the Heterogeneous-CPA extension of N'takpé, Suter and Casanova
// (§II-A, [12]). On the homogeneous cluster of the case study its essential
// difference from CPA is the remedy against over-allocation: a task may only
// receive an additional processor while its parallel efficiency
//
//	e(τ, p) = t(τ, 1) / (p · t(τ, p))
//
// stays at or above MinEfficiency. This keeps allocations in the regime
// where extra processors still pay for themselves, which shrinks the large
// allocations plain CPA produces on wide DAGs (and with them, in the real
// environment, the per-processor startup and redistribution overheads the
// analytic model does not see).
type HCPA struct {
	// MinEfficiency is the efficiency floor; 0 means DefaultMinEfficiency.
	MinEfficiency float64
}

// DefaultMinEfficiency is the 50% efficiency floor used when HCPA is
// constructed with its zero value.
const DefaultMinEfficiency = 0.5

// Name implements Algorithm.
func (HCPA) Name() string { return "HCPA" }

// MCPA is the Modified-CPA algorithm of Bansal, Kumar and Singh (§II-A,
// [5], "An Improved Two-Step Algorithm for Task and Data Parallel
// Scheduling"). Its remedy against CPA's over-allocation is precedence-
// level awareness: the w tasks of one precedence level can run
// concurrently, so they must share the N processors. MCPA therefore caps
// every task's allocation at N divided by its level's width (and refuses
// further growth once the level's total allocation reaches N), which stops
// CPA from giving a task more processors than its level's task parallelism
// can ever exploit simultaneously.
type MCPA struct{}

// Name implements Algorithm.
func (MCPA) Name() string { return "MCPA" }

// Sequential is a baseline allocation: every task runs on a single
// processor, exploiting only the DAG's task parallelism. Useful as a lower
// bound on allocation-induced overheads and in ablation benches.
type Sequential struct{}

// Name implements Algorithm.
func (Sequential) Name() string { return "SEQ" }

// DataParallel is the opposite baseline: every task gets the whole cluster,
// exploiting only data parallelism (tasks then serialize). This is the
// regime where task startup and redistribution overheads hurt most.
type DataParallel struct{}

// Name implements Algorithm.
func (DataParallel) Name() string { return "DATAPAR" }

// Fixed is a baseline that allocates the same processor count to every task,
// clamped to the cluster size.
type Fixed struct {
	P int
}

// Name implements Algorithm.
func (f Fixed) Name() string { return "FIXED" }

// MHEFT is the Mixed-parallel HEFT baseline (M-HEFT), the algorithm HCPA
// was originally evaluated against in [12]. Unlike the CPA family it is a
// one-phase scheduler: tasks are considered in decreasing bottom-level
// order and each task simultaneously picks its allocation size and its
// processor set so as to minimise its earliest finish time. Without a cap
// M-HEFT is known to over-allocate aggressively (any extra processor that
// shaves a microsecond is taken); AllocCap bounds the per-task allocation
// (0 means the whole cluster).
type MHEFT struct {
	// AllocCap bounds each task's allocation; 0 means no bound.
	AllocCap int
}

// Name identifies the algorithm.
func (m MHEFT) Name() string { return "MHEFT" }
