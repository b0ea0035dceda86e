package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// Emulator is the "experiment" side of the case study: it executes
// schedules under the hidden ground-truth profile, with seeded run-to-run
// noise, playing the role of the Bayreuth cluster plus TGrid.
//
// An Emulator is safe for concurrent use; each Execute call draws from the
// shared noise stream under a lock.
type Emulator struct {
	Hidden *Hidden
	net    *simgrid.Net

	mu  sync.Mutex
	rng *rand.Rand
}

// NewEmulator builds the environment with a noise seed.
func NewEmulator(h *Hidden, seed int64) (*Emulator, error) {
	net, err := simgrid.NewNet(h.Cluster)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Emulator{Hidden: h, net: net, rng: rand.New(rand.NewSource(seed))}, nil
}

// Net exposes the emulator's network, for tests.
func (e *Emulator) Net() *simgrid.Net { return e.net }

// noise draws one multiplicative lognormal noise factor.
func (e *Emulator) noise() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Hidden.NoiseSigma <= 0 {
		return 1
	}
	return math.Exp(e.rng.NormFloat64() * e.Hidden.NoiseSigma)
}

// noiseSource yields multiplicative run-to-run noise factors.
type noiseSource interface{ noise() float64 }

// The probe formulas of §VI, shared by the Emulator (shared stream) and
// Sessions (private streams) so the two paths can never diverge.

func measureTask(h *Hidden, src noiseSource, kernel dag.Kernel, n, p int) float64 {
	task := &dag.Task{Kernel: kernel, N: n}
	return h.KernelTime(task, p) * src.noise()
}

func measureStartup(h *Hidden, src noiseSource, p int) float64 {
	return h.StartupTime(p) * src.noise()
}

func measureRedistOverhead(h *Hidden, src noiseSource, pSrc, pDst int) float64 {
	return h.RedistOverheadTime(pSrc, pDst) * src.noise()
}

// quiet is the noise source of a perfectly repeatable environment.
type quiet struct{}

func (quiet) noise() float64 { return 1 }

// bindTruth validates the schedule and binds it on a pooled replayer against
// the noiseless truth: binding evaluates the timing, and must not consume
// noise. Replays under truthTiming{h, src} then draw noise as a task launch
// and an edge start happen — startup then kernel per task, overhead per
// edge, in event order — and evaluate each kernel time on the task's real
// hosts. Release the replayer by a plain call once its results are read: one
// held at an error or a panic is dropped, never pooled.
func bindTruth(net *simgrid.Net, h *Hidden, s *sched.Schedule) (*tgrid.Replayer, error) {
	if err := s.Validate(net.Cluster.Nodes); err != nil {
		return nil, fmt.Errorf("cluster: invalid schedule: %w", err)
	}
	rep := tgrid.AcquireReplayer()
	if err := rep.Bind(net, s, truthTiming{h: h, src: quiet{}}); err != nil {
		return nil, err
	}
	return rep, nil
}

// execute runs the schedule once under the noisy truth and returns the full
// execution record.
func execute(net *simgrid.Net, h *Hidden, src noiseSource, s *sched.Schedule) (*tgrid.Result, error) {
	rep, err := bindTruth(net, h, s)
	if err != nil {
		return nil, err
	}
	if _, err := rep.Replay(net, tgrid.Unscaled{Timing: truthTiming{h: h, src: src}}); err != nil {
		return nil, err
	}
	res := rep.Result()
	tgrid.ReleaseReplayer(rep)
	return res, nil
}

// measureMakespan averages trials executions' makespans, replaying one
// binding trials times, so every makespan, and the state the noise stream is
// left in, equal those of trials calls to execute.
func measureMakespan(net *simgrid.Net, h *Hidden, src noiseSource, s *sched.Schedule, trials int) (float64, error) {
	if trials < 1 {
		trials = 1
	}
	rep, err := bindTruth(net, h, s)
	if err != nil {
		return 0, err
	}
	noisy := tgrid.Unscaled{Timing: truthTiming{h: h, src: src}}
	sum := 0.0
	for i := 0; i < trials; i++ {
		makespan, err := rep.Replay(net, noisy)
		if err != nil {
			return 0, err
		}
		sum += makespan
	}
	tgrid.ReleaseReplayer(rep)
	return sum / float64(trials), nil
}

// Session is a deterministic measurement stream over the same emulated
// environment: it shares the emulator's ground truth and network but draws
// noise from a private RNG. Measurements made through a session depend only
// on the session's seed — never on what other sessions or the emulator's
// shared stream consumed before — which is what makes concurrent study
// cells reproducible regardless of execution order.
//
// A Session is NOT safe for concurrent use; give each worker its own.
type Session struct {
	em  *Emulator
	rng *rand.Rand
}

// Session derives a private measurement stream with its own noise seed.
func (e *Emulator) Session(seed int64) *Session {
	return &Session{em: e, rng: rand.New(rand.NewSource(seed))}
}

// noise draws from the session's private stream.
func (s *Session) noise() float64 {
	if s.em.Hidden.NoiseSigma <= 0 {
		return 1
	}
	return math.Exp(s.rng.NormFloat64() * s.em.Hidden.NoiseSigma)
}

// Execute runs the schedule on the emulated cluster under the session's
// noise stream.
func (s *Session) Execute(sc *sched.Schedule) (*tgrid.Result, error) {
	return execute(s.em.net, s.em.Hidden, s, sc)
}

// MeasureMakespan executes the schedule trials times and returns the mean
// measured makespan.
func (s *Session) MeasureMakespan(sc *sched.Schedule, trials int) (float64, error) {
	return measureMakespan(s.em.net, s.em.Hidden, s, sc, trials)
}

// MeasureTask is the session-stream version of Emulator.MeasureTask.
func (s *Session) MeasureTask(kernel dag.Kernel, n, p int) float64 {
	return measureTask(s.em.Hidden, s, kernel, n, p)
}

// MeasureStartup is the session-stream version of Emulator.MeasureStartup.
func (s *Session) MeasureStartup(p int) float64 {
	return measureStartup(s.em.Hidden, s, p)
}

// MeasureRedistOverhead is the session-stream version of
// Emulator.MeasureRedistOverhead.
func (s *Session) MeasureRedistOverhead(pSrc, pDst int) float64 {
	return measureRedistOverhead(s.em.Hidden, s, pSrc, pDst)
}

// truthTiming implements tgrid.Timing with the hidden profile plus noise
// drawn from the given source (the emulator's shared stream or a session's
// private one).
type truthTiming struct {
	h   *Hidden
	src noiseSource
}

func (t truthTiming) TaskStartup(task *dag.Task, p int) float64 {
	return t.h.StartupTime(p) * t.src.noise()
}

func (t truthTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	h := t.h
	kernel := h.KernelTime(task, len(hosts))
	// On heterogeneous platforms the load-balanced 1-D kernel runs at the
	// slowest assigned node's pace; KernelTime is calibrated against the
	// reference speed.
	if !h.Cluster.IsHomogeneous() {
		kernel *= h.Cluster.NodePower / h.Cluster.MinPowerOf(hosts)
	}
	// A degraded node drags every task that touches it.
	if h.StragglerHost >= 0 && h.StragglerFactor > 1 {
		for _, host := range hosts {
			if host == h.StragglerHost {
				kernel *= h.StragglerFactor
				break
			}
		}
	}
	return kernel * t.src.noise(), nil, nil
}

func (t truthTiming) RedistOverhead(pSrc, pDst int) float64 {
	return t.h.RedistOverheadTime(pSrc, pDst) * t.src.noise()
}

// Execute runs the schedule on the emulated cluster and returns the
// measured result. Consecutive calls differ by run-to-run noise, exactly
// like repeated runs on real hardware.
func (e *Emulator) Execute(s *sched.Schedule) (*tgrid.Result, error) {
	return execute(e.net, e.Hidden, e, s)
}

// MeasureMakespan executes the schedule trials times and returns the mean
// measured makespan.
func (e *Emulator) MeasureMakespan(s *sched.Schedule, trials int) (float64, error) {
	return measureMakespan(e.net, e.Hidden, e, s, trials)
}

// MeasureTask runs a single task in isolation on processors [0, p) and
// returns the measured kernel time, excluding startup overhead — the probe
// the brute-force profiling campaign uses (§VI-A).
func (e *Emulator) MeasureTask(kernel dag.Kernel, n, p int) float64 {
	return measureTask(e.Hidden, e, kernel, n, p)
}

// MeasureStartup launches a no-op application on p processors and returns
// the measured startup overhead (§VI-B).
func (e *Emulator) MeasureStartup(p int) float64 {
	return measureStartup(e.Hidden, e, p)
}

// MeasureRedistOverhead performs the mostly-empty-matrix redistribution
// probe from pSrc to pDst processors and returns the measured overhead
// (§VI-C). The one-byte-per-pair payload transfers in negligible time, as
// designed; the protocol overhead dominates.
func (e *Emulator) MeasureRedistOverhead(pSrc, pDst int) float64 {
	return measureRedistOverhead(e.Hidden, e, pSrc, pDst)
}

// FranklinProfile models the Cray XT4 side of Figure 2: PDGEMM at the
// measured 4165.3 MFlop/s with a mild, size-dependent model error
// oscillating around 10% and bounded by ~20%.
type FranklinProfile struct {
	Hidden *Hidden
}

// NewFranklinProfile returns the calibrated Cray environment.
func NewFranklinProfile() *FranklinProfile {
	h := &Hidden{
		Cluster:             platform.Franklin(),
		MulInefficiencyRamp: 0.10,
		MulWiggleAmp:        0.10,
		AddInefficiencyRamp: 0.05,
		AddWiggleAmp:        0.03,
		OutlierP8:           1,
		OutlierP16N3000:     1,
		StartupBase:         0.05,
		StartupSlope:        0.001,
		StartupWiggleAmp:    0.01,
		RedistBase:          5e-3,
		RedistDstSlope:      0.2e-3,
		RedistSrcSlope:      0.05e-3,
		RedistWiggleAmp:     1e-3,
		StragglerHost:       -1,
		NoiseSigma:          0.01,
		Salt:                0xf4a7c15,
	}
	return &FranklinProfile{Hidden: h}
}

// ModelError returns the relative error of the analytic PDGEMM model
// 2n³/(p·FLOPS) against the Cray ground truth — Figure 2's right-hand
// series, for n ∈ {1024, 2048, 4096}.
func (f *FranklinProfile) ModelError(n, p int) float64 {
	task := &dag.Task{Kernel: dag.KernelMul, N: n}
	return f.Hidden.AnalyticModelError(task, p)
}
