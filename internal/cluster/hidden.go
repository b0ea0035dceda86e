// Package cluster is the reproduction's stand-in for the paper's real
// experimental environment: the 32-node Bayreuth cluster running TGrid with
// Java/MPIJava task implementations (§III). Since that hardware and software
// stack cannot be re-created, the package implements a *ground-truth
// emulator*: a hidden performance profile exhibiting every effect the paper
// identifies as the cause of analytic-simulation error (§V-C), executed in
// virtual time by the tgrid runtime.
//
// The hidden profile is calibrated to the paper's published magnitudes:
//
//   - Java kernels run below the platform's nominal 250 MFlop/s with a
//     processor- and size-dependent inefficiency that makes the analytic
//     model's relative error fluctuate up to ~60% (Figure 2, left);
//   - a memory-hierarchy outlier at p = 8 and a 1-D-distribution load
//     imbalance outlier at p = 16 for n = 3000 (Figure 6);
//   - a non-monotonic task-startup overhead between ~0.7 s and ~1.6 s whose
//     trend matches Table II's 0.03·p + 0.65 fit (Figure 3);
//   - a data-redistribution overhead dominated by the number of destination
//     processors, trending as Table II's 7.88·p(dst) + 108.58 ms fit
//     (Figure 4);
//   - seeded run-to-run noise.
//
// Experiments must observe the environment only through measurements (the
// internal/profiler probes), exactly as the authors measured their cluster;
// the hidden curves are exported only to tests and documentation tooling.
package cluster

import (
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Hidden is the ground-truth performance profile of the emulated
// environment. All times are in seconds.
type Hidden struct {
	// Cluster is the nominal platform description (the one handed to the
	// simulators).
	Cluster platform.Cluster

	// MulInefficiencyBase is the multiplication kernel's slowdown factor
	// relative to the analytic model at p = 1. Table II implies ≈ 1.9: the
	// 250 MFlop/s platform speed was calibrated from a cache-friendly JVM
	// benchmark, while the n = 2000/3000 working sets run well below that
	// rate (the paper: "our Java code is often far from peak performance").
	MulInefficiencyBase float64
	// MulInefficiencyRamp adds a further slowdown growing linearly in p
	// (synchronisation and communication inefficiency of the vanilla
	// implementation).
	MulInefficiencyRamp float64
	// MulWiggleAmp is the amplitude of the deterministic per-(n, p)
	// fluctuation — the "fluctuates without clear patterns" texture of
	// Figure 2.
	MulWiggleAmp float64
	// AddInefficiencyBase, AddInefficiencyRamp and AddWiggleAmp play the
	// same roles for the addition kernel. Table II's 22.99/p + 0.03 fit
	// against the analytic 8/p implies a base near 2.9.
	AddInefficiencyBase float64
	AddInefficiencyRamp float64
	AddWiggleAmp        float64
	// OutlierP8 multiplies multiplication times at p = 8 (memory
	// hierarchy effects; both matrix sizes).
	OutlierP8 float64
	// OutlierP16N3000 multiplies multiplication times at p = 16 for
	// n = 3000 (1-D distribution load imbalance).
	OutlierP16N3000 float64

	// StartupBase and StartupSlope define the startup trend
	// base + slope·p; StartupWiggleAmp adds the non-monotonic bumps.
	StartupBase, StartupSlope, StartupWiggleAmp float64

	// RedistBase and RedistDstSlope define the redistribution-overhead
	// trend base + slope·p(dst); RedistSrcSlope adds the weak source-side
	// effect; RedistWiggleAmp adds deterministic texture.
	RedistBase, RedistDstSlope, RedistSrcSlope, RedistWiggleAmp float64

	// Vanilla1D marks environments whose kernels use the naive 1-D block
	// distribution with the remainder on the last processor (the paper's
	// Java implementation); the trailing-block imbalance then slows the
	// whole task. Tuned libraries (PDGEMM's block-cyclic layout) balance
	// load and leave this false.
	Vanilla1D bool

	// StragglerHost, when ≥ 0, marks one degraded node (failing fan,
	// throttled CPU — a common real-cluster pathology): any task placed on
	// it runs StragglerFactor times slower. Per-processor-count profiling
	// (§VI) is structurally blind to host identity, so stragglers expose a
	// limit of the paper's methodology.
	StragglerHost int
	// StragglerFactor multiplies kernel times of tasks touching the
	// straggler; values ≤ 1 disable the effect.
	StragglerFactor float64

	// NoiseSigma is the relative standard deviation of the multiplicative
	// lognormal run-to-run noise.
	NoiseSigma float64

	// Salt decorrelates the deterministic wiggle curves between
	// environment instances.
	Salt uint64
}

// Bayreuth returns the calibrated ground truth used by all experiments.
func Bayreuth() *Hidden {
	return &Hidden{
		Cluster:             platform.Bayreuth(),
		MulInefficiencyBase: 1.80,
		MulInefficiencyRamp: 0.45,
		MulWiggleAmp:        0.85,
		AddInefficiencyBase: 2.45,
		AddInefficiencyRamp: 0.45,
		AddWiggleAmp:        0.75,
		OutlierP8:           1.35,
		OutlierP16N3000:     1.30,
		StartupBase:         0.65,
		StartupSlope:        0.03,
		StartupWiggleAmp:    0.22,
		RedistBase:          108.58e-3,
		RedistDstSlope:      7.88e-3,
		RedistSrcSlope:      0.9e-3,
		RedistWiggleAmp:     18e-3,
		Vanilla1D:           true,
		StragglerHost:       -1,
		NoiseSigma:          0.03,
		Salt:                0xb0a71e57,
	}
}

// Modern returns a contrasting environment preset: tuned native kernels
// close to the calibrated rate, millisecond-scale process spawning and
// cheap redistribution setup — the kind of runtime §IX hopes for ("our
// results could be improved with better implementations"). Experiments on
// it show how much of the simulation-to-experiment gap is environment
// idiosyncrasy rather than inherent to analytic modelling.
func Modern() *Hidden {
	return &Hidden{
		Cluster:             platform.Bayreuth(),
		MulInefficiencyBase: 1.05,
		MulInefficiencyRamp: 0.10,
		MulWiggleAmp:        0.08,
		AddInefficiencyBase: 1.10,
		AddInefficiencyRamp: 0.08,
		AddWiggleAmp:        0.05,
		OutlierP8:           1,
		OutlierP16N3000:     1,
		StartupBase:         0.05,
		StartupSlope:        0.002,
		StartupWiggleAmp:    0.01,
		RedistBase:          5e-3,
		RedistDstSlope:      0.3e-3,
		RedistSrcSlope:      0.05e-3,
		RedistWiggleAmp:     0.5e-3,
		Vanilla1D:           false,
		StragglerHost:       -1,
		NoiseSigma:          0.01,
		Salt:                0x51badcafe,
	}
}

// wiggle returns a deterministic pseudo-random value in [-1, 1) keyed by the
// given coordinates; it is the environment's fixed "texture" (cache effects,
// topology quirks) as opposed to run-to-run noise.
func (h *Hidden) wiggle(keys ...uint64) float64 {
	x := h.Salt
	for _, k := range keys {
		x += k + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(2*float64(x>>11)/float64(1<<53)) - 1
}

// Inefficiency returns the hidden slowdown factor (≥ 1) of a kernel at the
// given matrix size and processor count, relative to the analytic model:
// a large base (the Java kernels run far from the calibrated peak), a mild
// linear ramp in p, a deterministic per-(n, p) fluctuation, and the two
// calibrated outliers.
func (h *Hidden) Inefficiency(kernel dag.Kernel, n, p int) float64 {
	base, ramp, amp, kind := h.MulInefficiencyBase, h.MulInefficiencyRamp, h.MulWiggleAmp, uint64(1)
	if kernel == dag.KernelAdd {
		base, ramp, amp, kind = h.AddInefficiencyBase, h.AddInefficiencyRamp, h.AddWiggleAmp, uint64(2)
	}
	if base < 1 {
		base = 1
	}
	frac := float64(p-1) / 31
	eta := base + float64(ramp*frac) +
		float64(amp*(0.5+float64(0.5*h.wiggle(kind, uint64(n), uint64(p))))*minF(1, float64(frac*4)+0.1))
	if kernel == dag.KernelMul {
		if p == 8 {
			eta *= h.OutlierP8
		}
		if p == 16 && n == 3000 {
			eta *= h.OutlierP16N3000
		}
	}
	if eta < 1 {
		eta = 1
	}
	return eta
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// KernelTime returns the noiseless ground-truth execution time of a task's
// kernel on p processors: the analytic time scaled by the hidden
// inefficiency, with the trailing-block imbalance of the vanilla 1-D
// distribution applied (the slowest processor holds the largest block).
func (h *Hidden) KernelTime(task *dag.Task, p int) float64 {
	if task.Kernel == dag.KernelNoop {
		return 0
	}
	n := task.N
	analytic := task.Flops() / float64(p) / h.Cluster.NodePower
	t := analytic * h.Inefficiency(task.Kernel, n, p)
	if h.Vanilla1D {
		// Imbalance: the largest block against a perfect n/p split slows
		// the whole task to the pace of its most loaded processor.
		t *= float64(maxBlock(n, p)) * float64(p) / float64(n)
	}
	return t
}

func maxBlock(n, p int) int {
	b := n / p
	last := n - (p-1)*b
	if last > b {
		return last
	}
	return b
}

// StartupTime returns the noiseless ground-truth task-startup overhead for
// an allocation of p processors: the linear trend plus the non-monotonic
// texture of Figure 3.
func (h *Hidden) StartupTime(p int) float64 {
	t := h.StartupBase + float64(h.StartupSlope*float64(p)) + float64(h.StartupWiggleAmp*h.wiggle(3, uint64(p)))
	if t < 0.1 {
		t = 0.1
	}
	return t
}

// RedistOverheadTime returns the noiseless ground-truth subnet-manager
// overhead for a redistribution from pSrc to pDst processors.
func (h *Hidden) RedistOverheadTime(pSrc, pDst int) float64 {
	t := h.RedistBase + float64(h.RedistDstSlope*float64(pDst)) + float64(h.RedistSrcSlope*float64(pSrc)) +
		float64(h.RedistWiggleAmp*h.wiggle(4, uint64(pSrc), uint64(pDst)))
	if t < 1e-3 {
		t = 1e-3
	}
	return t
}

// AnalyticModelError returns the relative error of the pure analytic model
// against the noiseless ground truth for one task configuration — the
// quantity plotted in Figure 2 (left).
func (h *Hidden) AnalyticModelError(task *dag.Task, p int) float64 {
	truth := h.KernelTime(task, p)
	analytic := task.Flops() / float64(p) / h.Cluster.NodePower
	return math.Abs(analytic-truth) / truth
}
