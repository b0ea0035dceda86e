package dag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/jsonfast"
)

// jsonGraph is the on-disk representation used by cmd/daggen and the
// examples: an explicit node and edge list, stable and diff-friendly.
// MarshalJSON writes through it; UnmarshalJSON reads through it only for
// input its scanner does not take (see UnmarshalJSON).
type jsonGraph struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges [][2]int   `json:"edges"`
}

type jsonTask struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
}

// MarshalJSON encodes the graph as a node/edge list.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.Tasks {
		jg.Tasks = append(jg.Tasks, jsonTask{ID: t.ID, Name: t.Name, Kernel: t.Kernel.String(), N: t.N})
		for _, s := range t.succs {
			jg.Edges = append(jg.Edges, [2]int{t.ID, s})
		}
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a node/edge list and validates the result.
//
// Canonical input — exact keys, each at most once, strings without escapes,
// plain integers, no nulls, valid tasks and edges: what MarshalJSON and
// client libraries write — is scanned in one pass straight into the graph.
// Anything else is decoded by encoding/json into jsonGraph, which gives the
// same graph for every input the scanner takes and the error for every
// input that has one.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var r jsonfast.Reader
	r.Reset(data)
	if g.scan(&r) && r.End() {
		return nil
	}
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	b := builders.Get().(*graphBuilder)
	defer b.release()
	for i, jt := range jg.Tasks {
		if jt.ID != i {
			return fmt.Errorf("dag: json task IDs must be dense and ordered, got %d at index %d", jt.ID, i)
		}
		k, err := parseKernel(jt.Kernel)
		if err != nil {
			return err
		}
		addTask(b, k, jt.N, jt.Name)
	}
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= len(jg.Tasks) || e[1] < 0 || e[1] >= len(jg.Tasks) {
			return fmt.Errorf("dag: json edge %v out of range", e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("dag: json edge %v is a self edge", e)
		}
		b.edges = append(b.edges, e[0], e[1])
	}
	b.text = append(b.text, jg.Name...)
	return b.build(g)
}

// ScanJSON decodes the canonical node/edge list at r's cursor (see
// UnmarshalJSON) and leaves the cursor after it. It returns false for
// input outside the canonical subset, which the caller must decode with
// encoding/json instead.
func ScanJSON(r *jsonfast.Reader) (*Graph, bool) {
	g := new(Graph)
	if !g.scan(r) {
		return nil, false
	}
	return g, true
}

// decodeJSON is Import's JSON path: json.NewDecoder(data).Decode into a
// graph, which reads the first value and ignores what follows it, without
// encoding/json's passes over canonical input.
func decodeJSON(data []byte) (*Graph, error) {
	var r jsonfast.Reader
	r.Reset(data)
	if g, ok := ScanJSON(&r); ok {
		return g, nil
	}
	return ReadJSON(bytes.NewReader(data))
}

// graphBuilder assembles a decoded graph: the tasks into one slab, their
// adjacency lists into one more, every name into one string, and one
// Validate. Builders are pooled; build copies out of them.
type graphBuilder struct {
	tasks []Task // ID, Kernel and N; the names are in text
	// text holds each task's name back to back, ends[i] marking where task
	// i's ends, and then the graph's name.
	text  []byte
	ends  []int
	edges []int // src, dst pairs in input order
	count []int // scratch: out-degrees, then in-degrees
}

var builders = sync.Pool{New: func() any { return new(graphBuilder) }}

func (b *graphBuilder) release() {
	b.tasks, b.text, b.ends, b.edges = b.tasks[:0], b.text[:0], b.ends[:0], b.edges[:0]
	builders.Put(b)
}

// addTask appends the next task; an empty name stands for AddTask's
// default, "t<id>/<kernel>".
func addTask[S []byte | string](b *graphBuilder, k Kernel, n int, name S) {
	id := len(b.tasks)
	b.tasks = append(b.tasks, Task{ID: id, Kernel: k, N: n})
	if len(name) > 0 {
		b.text = append(b.text, name...)
	} else {
		b.text = append(b.text, 't')
		b.text = strconv.AppendInt(b.text, int64(id), 10)
		b.text = append(b.text, '/')
		b.text = append(b.text, k.String()...)
	}
	b.ends = append(b.ends, len(b.text))
}

var errEdge = errors.New("dag: json edge out of range or a self edge")

// build validates the assembled graph and, only if it is valid, stores it
// in g. A duplicate edge is dropped, as AddEdge drops it.
func (b *graphBuilder) build(g *Graph) error {
	n := len(b.tasks)
	for i := 0; i < len(b.edges); i += 2 {
		if s, d := b.edges[i], b.edges[i+1]; s < 0 || s >= n || d < 0 || d >= n || s == d {
			return errEdge // the scanner's input: UnmarshalJSON's checks say which edge
		}
	}
	slab := make([]Task, n)
	copy(slab, b.tasks)
	text := string(b.text)
	start := 0
	for i := range slab {
		slab[i].Name = text[start:b.ends[i]]
		start = b.ends[i]
	}
	if len(b.edges) > 0 {
		b.count = append(b.count[:0], make([]int, 2*n)...)
		for i := 0; i < len(b.edges); i += 2 {
			b.count[b.edges[i]]++
			b.count[n+b.edges[i+1]]++
		}
		adj := make([]int, len(b.edges))
		off := 0
		for i := range slab {
			if c := b.count[i]; c > 0 {
				slab[i].succs = adj[off : off : off+c]
				off += c
			}
			if c := b.count[n+i]; c > 0 {
				slab[i].preds = adj[off : off : off+c]
				off += c
			}
		}
		for i := 0; i < len(b.edges); i += 2 {
			s, d := &slab[b.edges[i]], &slab[b.edges[i+1]]
			if !contains(s.succs, d.ID) {
				s.succs = append(s.succs, d.ID)
				d.preds = append(d.preds, s.ID)
			}
		}
	}
	out := Graph{Name: text[start:]}
	if n > 0 {
		out.Tasks = make([]*Task, n)
		for i := range slab {
			out.Tasks[i] = &slab[i]
		}
	}
	if err := out.Validate(); err != nil {
		return err
	}
	g.Name, g.Tasks = out.Name, out.Tasks
	g.topo.Store(out.topo.Load()) // Validate computed it; the order is immutable
	return nil
}

// scan reads a canonical node/edge list into g, leaving g untouched when it
// returns false.
func (g *Graph) scan(r *jsonfast.Reader) bool {
	b := builders.Get().(*graphBuilder)
	defer b.release()
	return b.scanGraph(r) && b.build(g) == nil
}

const (
	seenName = 1 << iota
	seenTasks
	seenEdges
	seenID
	seenKernel
	seenN
)

// see marks a key as read, failing a duplicate: encoding/json lets a
// repeated key overwrite part of what the first one decoded.
func see(seen *int, bit int) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (b *graphBuilder) scanGraph(r *jsonfast.Reader) bool {
	var name []byte
	seen := 0
	more, ok := r.Open('{', '}')
	for ok && more {
		var key []byte
		if key, ok = r.Key(); !ok {
			return false
		}
		switch string(key) {
		case "name":
			var s, e int
			s, e, ok = r.String()
			ok = ok && see(&seen, seenName)
			name = r.Data()[s:e]
		case "tasks":
			ok = see(&seen, seenTasks) && b.scanTasks(r)
		case "edges":
			ok = see(&seen, seenEdges) && b.scanEdges(r)
		default:
			return false
		}
		if ok {
			more, ok = r.Next('}')
		}
	}
	b.text = append(b.text, name...)
	return ok
}

func (b *graphBuilder) scanTasks(r *jsonfast.Reader) bool {
	more, ok := r.Open('[', ']')
	for ok && more {
		if ok = b.scanTask(r); ok {
			more, ok = r.Next(']')
		}
	}
	return ok
}

func (b *graphBuilder) scanTask(r *jsonfast.Reader) bool {
	var (
		id, size   int
		kernel     Kernel
		name       []byte
		seen       int
		more, ok   = r.Open('{', '}')
		start, end int
	)
	for ok && more {
		var key []byte
		if key, ok = r.Key(); !ok {
			return false
		}
		switch string(key) {
		case "id":
			id, ok = scanInt(r)
			ok = ok && see(&seen, seenID)
		case "name":
			start, end, ok = r.String()
			ok = ok && see(&seen, seenName)
			name = r.Data()[start:end]
		case "kernel":
			start, end, ok = r.String()
			ok = ok && see(&seen, seenKernel)
			if ok {
				kernel, ok = kernelOf(r.Data()[start:end])
			}
		case "n":
			size, ok = scanInt(r)
			ok = ok && see(&seen, seenN)
		default:
			return false
		}
		if ok {
			more, ok = r.Next('}')
		}
	}
	if !ok || id != len(b.tasks) || seen&seenKernel == 0 {
		return false
	}
	addTask(b, kernel, size, name)
	return true
}

func (b *graphBuilder) scanEdges(r *jsonfast.Reader) bool {
	more, ok := r.Open('[', ']')
	for ok && more {
		var src, dst int
		ok = r.Byte('[')
		if ok {
			src, ok = scanInt(r)
		}
		ok = ok && r.Byte(',')
		if ok {
			dst, ok = scanInt(r)
		}
		if ok = ok && r.Byte(']'); ok {
			b.edges = append(b.edges, src, dst)
			more, ok = r.Next(']')
		}
	}
	return ok
}

// scanInt reads an integer that fits an int.
func scanInt(r *jsonfast.Reader) (int, bool) {
	v, ok := r.Int()
	return int(v), ok && int64(int(v)) == v
}

func kernelOf(s []byte) (Kernel, bool) {
	switch string(s) {
	case "add":
		return KernelAdd, true
	case "mul":
		return KernelMul, true
	case "noop":
		return KernelNoop, true
	}
	return 0, false
}

func parseKernel(s string) (Kernel, error) {
	if k, ok := kernelOf([]byte(s)); ok {
		return k, nil
	}
	return 0, fmt.Errorf("dag: unknown kernel %q", s)
}

// WriteJSON writes the graph as indented JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON parses a graph from JSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}
