// Package arrival adds the online dimension the paper's offline case study
// stops short of: workflows arriving over time on a shared cluster. Jobs —
// drawn round-robin from a workload population of Table I suites, imported
// traces and canonical shapes (campaign.WorkloadAxis) — arrive by a Poisson
// process or an explicit trace of arrival times, are each scheduled on a
// fixed-size node partition with the axis algorithms against the fitted
// §VI/§VII models, and execute FCFS on the partition slots of the emulated
// cluster. The report covers the online quantities the offline studies
// cannot: queueing delay, cluster utilisation, makespan stretch, fairness
// across jobs, and how well the fitted models predict service times — all
// deterministic at any worker count and under cell-sharded execution, like
// every other engine in the repository.
package arrival

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/sched"
)

// Limits: a spec beyond these is rejected at validation time.
const (
	// MaxJobs bounds the arrival sequence length.
	MaxJobs = 256
	// MaxAlgorithms bounds the algorithm axis (= the scenario's cells).
	MaxAlgorithms = 8
	// DefaultRate is the default Poisson arrival rate in jobs per second.
	DefaultRate = 0.02
	// DefaultArrivalSeed seeds the default Poisson draw.
	DefaultArrivalSeed = 7
)

// Spec declares one online-arrival scenario. The zero value of every field
// means "use the default": the paper's base environment and seed, the
// HCPA/MCPA pair under the analytic model, the Table I suite as the job
// population, a Poisson process, and half-cluster partitions.
type Spec struct {
	// Name labels the scenario in job listings and the report header.
	Name string `json:"name,omitempty"`
	// Environment is the ground-truth environment jobs run on:
	// "bayreuth" (default) or "modern".
	Environment string `json:"environment,omitempty"`
	// Model picks the fitted model jobs are scheduled against: analytic
	// (default), profile (alias brute-force), empirical.
	Model string `json:"model,omitempty"`
	// Algorithms lists the online schedulers to compare (campaign axis
	// vocabulary). Each algorithm is one cell. Default {HCPA, MCPA}.
	Algorithms []string `json:"algorithms,omitempty"`
	// Workloads is the job population: every expanded workload instance
	// becomes one job class, and job j runs class j mod len(classes).
	// Default: the Table I 2011 suite.
	Workloads campaign.WorkloadAxis `json:"workloads"`
	// Process selects the arrival process: "poisson" (default) or "trace".
	Process string `json:"process,omitempty"`
	// Rate is the Poisson arrival rate in jobs per second (default 0.02).
	Rate float64 `json:"rate,omitempty"`
	// Jobs is the Poisson job count (default 2× the population size,
	// capped at MaxJobs).
	Jobs int `json:"jobs,omitempty"`
	// ArrivalSeed seeds the Poisson interarrival draw (default 7). It is
	// independent of Seed so the arrival pattern can vary while the
	// environment noise stays fixed, and vice versa.
	ArrivalSeed int64 `json:"arrival_seed,omitempty"`
	// Times lists explicit arrival times in seconds for the trace process
	// (non-negative, non-decreasing; one job each).
	Times []float64 `json:"times,omitempty"`
	// Partition is the number of nodes dedicated to each job (default:
	// half the cluster). The cluster runs floor(nodes/partition) jobs
	// concurrently; arrivals beyond that queue FCFS.
	Partition int `json:"partition,omitempty"`
	// Seed is the environment noise / measurement seed (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Trials is the emulated runs averaged per measured service time
	// (default 1).
	Trials int `json:"trials,omitempty"`
}

// JobClass is one expanded population entry: the workload point it came
// from plus the materialised graph.
type JobClass struct {
	// Workload is the owning workload point's key.
	Workload string
	// Name is the instance's display name.
	Name string
	// Graph is the job's task graph.
	Graph *dag.Graph
}

// Plan is a validated, fully expanded scenario: the normalized spec, the
// canonical axes, the job population and the complete arrival sequence.
// Everything here derives deterministically from the spec (plus the
// referenced trace files), so every replica resolving the same spec builds
// the identical plan.
type Plan struct {
	// Spec is the normalized spec the plan was expanded from.
	Spec Spec
	// Algorithms and Model are the canonicalised axes.
	Algorithms []string
	Model      string
	// Workloads are the expanded workload points, in campaign plan order.
	Workloads []campaign.WorkloadPoint
	// Classes is the job population: the points' instances, concatenated
	// in plan order. Job j runs Classes[j mod len(Classes)].
	Classes []JobClass
	// Times is the full arrival sequence in seconds, one entry per job,
	// non-decreasing.
	Times []float64
}

// normalize fills the spec's defaults in place (population-independent
// ones; the Poisson job-count default needs the expanded population and is
// resolved in Plan).
func (s *Spec) normalize() {
	if s.Environment == "" {
		s.Environment = "bayreuth"
	}
	if s.Model == "" {
		s.Model = "analytic"
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = []string{"HCPA", "MCPA"}
	}
	if s.Process == "" {
		s.Process = "poisson"
	}
	if s.Process == "poisson" {
		if s.Rate == 0 {
			s.Rate = DefaultRate
		}
		if s.ArrivalSeed == 0 {
			s.ArrivalSeed = DefaultArrivalSeed
		}
	}
	if s.Seed == 0 {
		s.Seed = experiments.DefaultConfig().NoiseSeed
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
}

// Plan normalizes and validates the spec and expands the population and
// arrival sequence. Every error names the offending field.
func (s Spec) Plan() (*Plan, error) {
	s.normalize()
	p := &Plan{Spec: s}

	if len(s.Algorithms) > MaxAlgorithms {
		return nil, fmt.Errorf("arrival: %d algorithms, limit %d", len(s.Algorithms), MaxAlgorithms)
	}
	seenAlgo := map[string]bool{}
	for _, a := range s.Algorithms {
		name, ok := campaign.CanonicalAlgorithm(a)
		if !ok {
			return nil, fmt.Errorf("arrival: unknown algorithm %q (want one of %v)", a, sched.Names())
		}
		if seenAlgo[name] {
			return nil, fmt.Errorf("arrival: duplicate algorithm %q", name)
		}
		seenAlgo[name] = true
		p.Algorithms = append(p.Algorithms, name)
	}
	kind, ok := campaign.CanonicalModel(s.Model)
	if !ok {
		return nil, fmt.Errorf("arrival: unknown model %q (want one of %v, or brute-force for profile)", s.Model, perfmodel.Kinds())
	}
	p.Model = kind

	// The workload axis reuses campaign planning wholesale: the same
	// defaulting, trace imports, shape lookups, limits and key-uniqueness
	// guarantees apply to the job population.
	cp, err := campaign.Spec{Workloads: s.Workloads}.Plan()
	if err != nil {
		return nil, err
	}
	p.Workloads = cp.Workloads
	for _, wp := range p.Workloads {
		instances, err := wp.Instances()
		if err != nil {
			return nil, err
		}
		if len(instances) == 0 {
			return nil, fmt.Errorf("arrival: workload %s selects no instances", wp.Key())
		}
		for _, in := range instances {
			p.Classes = append(p.Classes, JobClass{Workload: wp.Key(), Name: in.Name(), Graph: in.Graph})
		}
	}

	if s.Partition < 0 {
		return nil, fmt.Errorf("arrival: partition %d is negative", s.Partition)
	}
	if s.Trials < 0 || s.Trials > campaign.MaxTrials {
		return nil, fmt.Errorf("arrival: trials %d outside [1, %d]", s.Trials, campaign.MaxTrials)
	}

	switch s.Process {
	case "poisson":
		if len(s.Times) > 0 {
			return nil, fmt.Errorf("arrival: times is only for process \"trace\"")
		}
		if s.Rate <= 0 || math.IsInf(s.Rate, 0) || math.IsNaN(s.Rate) {
			return nil, fmt.Errorf("arrival: rate %v must be a positive arrival rate (jobs/s)", s.Rate)
		}
		jobs := s.Jobs
		if jobs == 0 {
			jobs = 2 * len(p.Classes)
			if jobs > MaxJobs {
				jobs = MaxJobs
			}
		}
		if jobs < 1 || jobs > MaxJobs {
			return nil, fmt.Errorf("arrival: jobs %d outside [1, %d]", jobs, MaxJobs)
		}
		p.Spec.Jobs = jobs
		p.Times = poissonTimes(s.ArrivalSeed, s.Rate, jobs)
	case "trace":
		if len(s.Times) == 0 {
			return nil, fmt.Errorf("arrival: process \"trace\" needs times")
		}
		if len(s.Times) > MaxJobs {
			return nil, fmt.Errorf("arrival: %d arrival times, limit %d", len(s.Times), MaxJobs)
		}
		prev := 0.0
		for i, at := range s.Times {
			if at < 0 || math.IsInf(at, 0) || math.IsNaN(at) {
				return nil, fmt.Errorf("arrival: times[%d] = %v must be a non-negative time", i, at)
			}
			if at < prev {
				return nil, fmt.Errorf("arrival: times[%d] = %v goes back in time (previous %v)", i, at, prev)
			}
			prev = at
		}
		p.Times = append([]float64(nil), s.Times...)
		p.Spec.Jobs = len(p.Times)
	default:
		return nil, fmt.Errorf("arrival: unknown process %q (want poisson or trace)", s.Process)
	}

	return p, nil
}

// poissonTimes draws the deterministic arrival sequence: exponential
// interarrivals at the given rate from a splitmix64 stream. The same
// (seed, rate, jobs) triple yields the same sequence on every replica.
func poissonTimes(seed int64, rate float64, jobs int) []float64 {
	times := make([]float64, jobs)
	state := uint64(seed)
	t := 0.0
	for j := range times {
		state += 0x9e3779b97f4a7c15
		x := state
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		// u is uniform in (0, 1): the 53-bit mantissa draw offset by half a
		// step, so the log below never sees 0.
		u := (float64(x>>11) + 0.5) / (1 << 53)
		t += -math.Log(u) / rate
		times[j] = t
	}
	return times
}
