package main

import (
	"sync"
	"time"
)

// phase is the raw record of one closed-loop phase.
type phase struct {
	// Per completed op: latency in seconds, weight in the workload's op unit.
	Lats, Weights     []float64
	Attempted, Failed int
	Elapsed           float64
}

func (p *phase) ops() float64 {
	var sum float64
	for _, w := range p.Weights {
		sum += w
	}
	return sum
}

func (p *phase) latenciesMS() []float64 {
	out := make([]float64, len(p.Lats))
	for i, l := range p.Lats {
		out[i] = l * 1000
	}
	return out
}

// loop is one closed-loop phase: Clients clients, each issuing its next op
// only after the previous one returned, until D has passed. Client c issues
// ops c, c+Clients, c+2·Clients, …, so the op sequence depends only on the
// seed-derived inputs. A client looks at the clock only every Stride ops, so
// a workload whose ops form cycles (a pass over all artefacts, one job of
// each kind) always finishes whole cycles, and at least one: a zero D is
// exactly one cycle per client. Op returns the work done and
// whether the output verified; a false is a failed op. Think, if set, is how
// long a client pauses before its next op; the pause is not part of the op's
// latency. With a tracer every op is one span.
type loop struct {
	Clients int
	D       time.Duration
	Stride  int
	Tracer  *tracer
	Think   func(client int) time.Duration
	Op      func(client, i int) (weight float64, ok bool)
}

func (l loop) run() *phase {
	type sample struct {
		lat, weight float64
		ok          bool
	}
	per := make([][]sample, l.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if k > 0 && k%l.Stride == 0 && time.Since(start) >= l.D {
					return
				}
				if l.Think != nil {
					time.Sleep(l.Think(c))
				}
				i := c + k*l.Clients
				var w float64
				var ok bool
				t := time.Now()
				if l.Tracer != nil {
					l.Tracer.do(i, standalone, "op", func() { w, ok = l.Op(c, i) })
				} else {
					w, ok = l.Op(c, i)
				}
				per[c] = append(per[c], sample{lat: time.Since(t).Seconds(), weight: w, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	p := &phase{Elapsed: time.Since(start).Seconds()}
	for _, ss := range per {
		for _, s := range ss {
			p.Attempted++
			if !s.ok {
				p.Failed++
				continue
			}
			p.Lats = append(p.Lats, s.lat)
			p.Weights = append(p.Weights, s.weight)
		}
	}
	return p
}
