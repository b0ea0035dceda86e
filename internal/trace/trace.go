// Package trace turns execution results into human- and machine-readable
// artefacts: event logs, CSV exports, per-host utilisation statistics and
// ASCII Gantt charts. The paper's simulator "outputs an application
// execution trace" (§IV); this package is that output stage.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sched"
	"repro/internal/tgrid"
)

// Span is one traced activity: a task execution or a data redistribution.
type Span struct {
	// Name labels the activity ("t3/mul", "redist 2->5").
	Name string
	// Kind is "task" or "redist".
	Kind string
	// Hosts lists the processors involved.
	Hosts []int
	// Start and Finish bound the activity in seconds of virtual time.
	Start, Finish float64
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.Finish - s.Start }

// Trace is a complete execution trace.
type Trace struct {
	// Makespan is the application completion time.
	Makespan float64
	// Hosts is the number of processors of the platform.
	Hosts int
	// Spans holds all activities sorted by start time.
	Spans []Span
}

// FromResult assembles a trace from a schedule and its execution result.
func FromResult(s *sched.Schedule, r *tgrid.Result) *Trace {
	t := &Trace{Makespan: r.Makespan}
	for id := range s.Alloc {
		t.Spans = append(t.Spans, Span{
			Name:   s.Graph.Task(id).Name,
			Kind:   "task",
			Hosts:  append([]int(nil), s.Hosts[id]...),
			Start:  r.TaskStart[id],
			Finish: r.TaskFinish[id],
		})
		for _, h := range s.Hosts[id] {
			if h+1 > t.Hosts {
				t.Hosts = h + 1
			}
		}
	}
	for i, edge := range r.Edges {
		hosts := map[int]bool{}
		for _, h := range s.Hosts[edge[0]] {
			hosts[h] = true
		}
		for _, h := range s.Hosts[edge[1]] {
			hosts[h] = true
		}
		var hs []int
		for h := range hosts {
			hs = append(hs, h)
		}
		sort.Ints(hs)
		t.Spans = append(t.Spans, Span{
			Name:   fmt.Sprintf("redist %d->%d", edge[0], edge[1]),
			Kind:   "redist",
			Hosts:  hs,
			Start:  r.RedistStart[i],
			Finish: r.RedistFinish[i],
		})
	}
	sort.Slice(t.Spans, func(a, b int) bool {
		if t.Spans[a].Start != t.Spans[b].Start {
			return t.Spans[a].Start < t.Spans[b].Start
		}
		return t.Spans[a].Name < t.Spans[b].Name
	})
	return t
}

// WriteCSV exports the trace as CSV: name, kind, start, finish, hosts.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,kind,start,finish,hosts"); err != nil {
		return err
	}
	for _, s := range t.Spans {
		hosts := make([]string, len(s.Hosts))
		for i, h := range s.Hosts {
			hosts[i] = fmt.Sprint(h)
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%.6f,%s\n",
			s.Name, s.Kind, s.Start, s.Finish, strings.Join(hosts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventLog prints the trace as a readable event log.
func (t *Trace) WriteEventLog(w io.Writer) {
	fmt.Fprintf(w, "trace: %d activities, %d hosts, makespan %.3f s\n",
		len(t.Spans), t.Hosts, t.Makespan)
	for _, s := range t.Spans {
		fmt.Fprintf(w, "  [%8.3f, %8.3f] %-6s %-14s hosts=%v\n",
			s.Start, s.Finish, s.Kind, s.Name, s.Hosts)
	}
}

// Utilization returns, per host, the fraction of the makespan the host
// spends executing tasks (redistributions excluded: the network, not the
// CPU, is busy).
func (t *Trace) Utilization() []float64 {
	busy := make([]float64, t.Hosts)
	for _, s := range t.Spans {
		if s.Kind != "task" {
			continue
		}
		for _, h := range s.Hosts {
			busy[h] += s.Duration()
		}
	}
	if t.Makespan > 0 {
		for i := range busy {
			busy[i] /= t.Makespan
		}
	}
	return busy
}

// MeanUtilization averages Utilization over all hosts.
func (t *Trace) MeanUtilization() float64 {
	u := t.Utilization()
	if len(u) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range u {
		sum += v
	}
	return sum / float64(len(u))
}

// Gantt renders an ASCII Gantt chart with the given width in characters.
// Each row is one host; tasks print as their task index character, and
// redistributions as '.'.
func (t *Trace) Gantt(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	if t.Makespan <= 0 || t.Hosts == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	rows := make([][]byte, t.Hosts)
	for h := range rows {
		rows[h] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(x / t.Makespan * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	glyphs := "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	taskIdx := 0
	for _, s := range t.Spans {
		var glyph byte
		switch s.Kind {
		case "task":
			glyph = glyphs[taskIdx%len(glyphs)]
			taskIdx++
		default:
			glyph = '.'
		}
		lo, hi := col(s.Start), col(s.Finish)
		for _, h := range s.Hosts {
			for c := lo; c <= hi; c++ {
				if s.Kind == "redist" && rows[h][c] != ' ' {
					continue // tasks win over redistributions visually
				}
				rows[h][c] = glyph
			}
		}
	}
	fmt.Fprintf(w, "gantt (makespan %.3f s, %d hosts, '.' = redistribution)\n", t.Makespan, t.Hosts)
	for h, row := range rows {
		fmt.Fprintf(w, "  host %2d |%s|\n", h, string(row))
	}
}
