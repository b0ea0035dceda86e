// Package tgrid reproduces the role of the TGrid runtime environment (§III):
// it executes a mixed-parallel application according to a given schedule,
// spawning each multiprocessor task on its assigned processors and
// performing the transparent data redistributions between dependent tasks.
//
// Two backends are provided:
//
//   - the virtual backend (Replayer, and Run and Makespan on a pooled one):
//     a virtual-time replay on top of the internal/simgrid kernel,
//     parameterised by a Timing source. With a perfmodel-backed Timing it is
//     exactly one of the paper's simulators; with the hidden ground-truth
//     Timing of internal/cluster it plays the role of the real 32-node
//     cluster (the "experiment");
//   - the real backend (RunReal, real.go): actually executes the parallel
//     matrix kernels with goroutine ranks and channel-based message passing
//     (internal/mpi, internal/kernels) and measures wall-clock time, for
//     laptop-scale demonstrations that the runtime genuinely runs
//     mixed-parallel programs.
package tgrid

import (
	"repro/internal/dag"
)

// Timing supplies the execution-time behaviour of an environment: either a
// performance model's estimates (the simulators) or the hidden ground truth
// (the emulated cluster).
//
// A Replayer calls TaskWork when it binds a schedule, to record each task's
// parallel-task description, and caches that description by (task.Kernel,
// task.N, len(hosts)): whether TaskWork yields a parallel task, and which
// one, may depend on nothing else. Fixed durations are not cached; they are
// evaluated again at every launch on the task's real hosts. ModelTiming and
// ScaledTiming meet this because performance models describe homogeneous
// platforms; the emulated cluster's timing returns fixed durations only. A
// timing that draws noise must be bound through a noiseless twin, as the
// emulated cluster does, so that binding consumes no draws.
type Timing interface {
	// TaskStartup returns the task-startup overhead, in seconds, paid when
	// launching the task on p processors (TGrid's per-processor JVM/SSH
	// spawning). Called once per task execution.
	TaskStartup(task *dag.Task, p int) float64
	// TaskWork describes the kernel execution on the given processor set:
	// either a fixed duration (comp == nil) or an L07 parallel-task
	// description (per-rank flops and inter-rank bytes) to be placed on
	// the network. Host identities matter on heterogeneous platforms —
	// a load-balanced 1-D kernel runs at its slowest host's pace. Called
	// at bind and, for fixed durations, once per task execution.
	TaskWork(task *dag.Task, hosts []int) (fixed float64, comp []float64, bytes [][]float64)
	// RedistOverhead returns the data-redistribution overhead, in seconds,
	// paid before the transfer itself (TGrid's subnet-manager
	// registration). Called once per executed DAG edge.
	RedistOverhead(pSrc, pDst int) float64
}

// ModelTiming adapts a performance model to the Timing interface, turning a
// replay into one of the paper's simulators. Model is any perfmodel.Model;
// the indirection through this struct keeps tgrid free of a perfmodel
// dependency cycle.
type ModelTiming struct {
	Model interface {
		TaskTime(task *dag.Task, p int) float64
		StartupOverhead(p int) float64
		RedistOverhead(pSrc, pDst int) float64
		TaskPtask(task *dag.Task, p int) (comp []float64, bytes [][]float64)
	}
}

// TaskStartup implements Timing.
func (m ModelTiming) TaskStartup(task *dag.Task, p int) float64 {
	return m.Model.StartupOverhead(p)
}

// TaskWork implements Timing: analytic models yield parallel-task
// descriptions, measured models yield fixed durations. Performance models
// describe homogeneous platforms, so only the processor count matters here.
func (m ModelTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	p := len(hosts)
	comp, bytes := m.Model.TaskPtask(task, p)
	if comp != nil || bytes != nil {
		return 0, comp, bytes
	}
	return m.Model.TaskTime(task, p), nil, nil
}

// RedistOverhead implements Timing.
func (m ModelTiming) RedistOverhead(pSrc, pDst int) float64 {
	return m.Model.RedistOverhead(pSrc, pDst)
}

// Result reports one execution of a schedule.
type Result struct {
	// Makespan is the application completion time in seconds.
	Makespan float64
	// TaskStart and TaskFinish hold the per-task execution window,
	// including the startup overhead, indexed by task ID.
	TaskStart, TaskFinish []float64
	// TaskStartupDur holds the startup overhead each task paid, indexed by
	// task ID; TaskFinish − TaskStart − TaskStartupDur is the kernel time.
	TaskStartupDur []float64
	// Edges lists the executed DAG edges as [src, dst] task IDs, by
	// source ID and then in the source's successor order.
	Edges [][2]int
	// RedistStart and RedistFinish hold the per-edge redistribution
	// windows, indexed like Edges.
	RedistStart, RedistFinish []float64
	// RedistOverheadDur holds the protocol overhead paid per edge, indexed
	// like Edges; the remainder of the redistribution window is transfer
	// time.
	RedistOverheadDur []float64
}

// KernelDuration returns the kernel execution time of a task (its window
// minus the startup overhead).
func (r *Result) KernelDuration(task int) float64 {
	return r.TaskFinish[task] - r.TaskStart[task] - r.TaskStartupDur[task]
}

// Breakdown aggregates where the processor-seconds went across the whole
// execution: kernel work, startup overhead, redistribution overhead and
// transfer. Times are plain sums over activities (not weighted by processor
// count), which is how the paper discusses its per-activity overheads.
type Breakdown struct {
	Kernel, Startup, RedistOverhead, RedistTransfer float64
}

// Breakdown computes the aggregate time decomposition of the execution,
// summing tasks in ID order and edges in Edges order.
func (r *Result) Breakdown() Breakdown {
	var b Breakdown
	for id := range r.TaskStart {
		b.Startup += r.TaskStartupDur[id]
		b.Kernel += r.KernelDuration(id)
	}
	for i, oh := range r.RedistOverheadDur {
		b.RedistOverhead += oh
		b.RedistTransfer += r.RedistFinish[i] - r.RedistStart[i] - oh
	}
	return b
}
