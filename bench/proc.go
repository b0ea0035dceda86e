package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler reads the resident set every 20 ms until stopped. The run
// reports a percentile of the samples rather than the kernel's high-water
// mark, which between identical runs of repro-cli read anything from 38 to
// 81 MB: the mark is set by the one moment the collector lagged furthest
// behind a burst of allocation.
type rssSampler struct {
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, rssMB())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the samples, with one last reading so
// that even the shortest run has one.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return append(s.samples, rssMB())
}

// memCounters is the slice of runtime.MemStats the per-op runtime metrics
// are differences of.
type memCounters struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC,
		gcPause: time.Duration(m.PauseTotalNs)}
}

// clients is the closed loop's client count: never more than the CPUs the
// process may use, so the generator does not queue behind itself.
func clients() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}
