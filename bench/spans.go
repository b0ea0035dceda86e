package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test is not instrumented). Spans of one walked op
// share Request; Parent is the ID of the rung that wraps this one, 0 for the
// outermost rung of a walk, and standalone (-1) for a probe that times one
// entry point on its own, outside any walk.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// standalone is the Parent of a probe span.
const standalone = -1

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as one span and returns the span's ID for its children.
func (t *tracer) do(request, parent int, name string, fn func()) int {
	return t.nest(request, parent, name, func(int) { fn() })
}

// nest is do for a rung whose children run inside it: fn receives the span's
// ID before the span ends.
func (t *tracer) nest(request, parent int, name string, fn func(id int)) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name})
	id := len(t.spans)
	t.mu.Unlock()
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].StartNS, t.spans[id-1].EndNS = start.Nanoseconds(), end.Nanoseconds()
	t.mu.Unlock()
	return id
}

// durations returns every span duration of the given name, in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// med is the median duration of the named spans in nanoseconds (0 if none).
func (t *tracer) med(name string) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// total sums the durations of the named spans, in nanoseconds.
func (t *tracer) total(names ...string) float64 {
	var sum float64
	for _, name := range names {
		for _, d := range t.durations(name) {
			sum += d
		}
	}
	return sum
}

// selfTimes returns each span's self time: its duration minus the durations
// of the spans that name it as parent. In a ladder walk the rungs are timed
// in separate calls on the same input, so an inner rung can read longer than
// the rung that wraps it; such a self time comes out negative and is kept
// negative here — coverage() is what reports it.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent > 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// coverage is the share of the outermost rungs' time the walk attributes
// consistently: 1 − Σ|negative self times| ÷ Σ outermost durations. Unclamped
// self times always sum to the outermost duration, so the only way the
// attribution can fail is a rung measured longer than its wrapper.
func coverage(spans []span) float64 {
	var root, neg int64
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	for _, v := range selfTimes(spans) {
		if v < 0 {
			neg -= v
		}
	}
	if root == 0 {
		return 0
	}
	return 1 - float64(neg)/float64(root)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
