// Package perfmodel defines the performance models the simulators are
// instantiated with, and implements the paper's three variants:
//
//   - Analytic (§IV): flop counts over peak rates, latency/bandwidth
//     communication, no environment overheads — the model family behind the
//     vast majority of published scheduling results, shown by the paper to
//     be unusable for comparing HCPA and MCPA;
//   - Profile (§VI): task execution times, task-startup overheads and
//     redistribution overheads looked up from brute-force measurements of
//     the target environment;
//   - Empirical (§VII): regression models fit from sparse measurements
//     (Table II), the practical compromise.
//
// A Model serves two distinct consumers with the same numbers, exactly as in
// the paper: the scheduling algorithms' allocation/mapping phases (through
// CostFunc/CommFunc) and the simulator that replays the computed schedule
// (through TaskTime/TaskPtask and the overhead methods).
package perfmodel

import (
	"repro/internal/dag"
	"repro/internal/platform"
)

// Kinds names the three variants in paper order, as Name reports them: the
// one list every model axis, study and request validates against.
func Kinds() []string { return []string{"analytic", "profile", "empirical"} }

// Model estimates task execution times and environment overheads.
type Model interface {
	// Name identifies the model variant ("analytic", "profile", "empirical").
	Name() string
	// TaskTime returns the estimated kernel execution time, in seconds, of
	// the task on p processors, excluding startup overhead.
	TaskTime(task *dag.Task, p int) float64
	// StartupOverhead returns the estimated task startup time for an
	// allocation of p processors (JVM spawning via SSH in TGrid). The
	// analytic model returns 0 — that omission is the paper's point.
	StartupOverhead(p int) float64
	// RedistOverhead returns the estimated data-redistribution overhead
	// (TGrid's subnet-manager registration) for a transfer from pSrc to
	// pDst processors, excluding the actual data transfer time.
	RedistOverhead(pSrc, pDst int) float64
	// TaskPtask returns the L07 parallel-task description (per-rank flops
	// and inter-rank bytes) for simulating the task on p processors, or
	// (nil, nil) if the model simulates tasks as fixed TaskTime durations
	// (the profile-based and empirical simulators do; §VI-D).
	TaskPtask(task *dag.Task, p int) (comp []float64, bytes [][]float64)
}

// CostFunc adapts a model to the scheduler-facing cost function: the full
// estimated task duration including startup overhead.
func CostFunc(m Model) dag.CostFunc {
	return func(t *dag.Task, p int) float64 {
		return m.StartupOverhead(p) + m.TaskTime(t, p)
	}
}

// CommFunc adapts a model and platform to the scheduler-facing edge cost:
// redistribution overhead plus an uncontended transfer-time estimate. The
// transfer moves the producer's n×n output matrix; with 1-D blocks the
// bottleneck link carries ≈ 8n²/min(pSrc,pDst) bytes.
func CommFunc(m Model, c platform.Cluster) dag.CommFunc {
	return func(src, dst *dag.Task, pSrc, pDst int) float64 {
		bytes := float64(src.OutputBytes())
		if bytes == 0 {
			return m.RedistOverhead(pSrc, pDst)
		}
		minP := pSrc
		if pDst < minP {
			minP = pDst
		}
		transfer := bytes / float64(minP) / c.LinkBandwidth
		return m.RedistOverhead(pSrc, pDst) + 2*c.LinkLatency + transfer
	}
}
