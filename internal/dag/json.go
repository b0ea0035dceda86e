package dag

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the on-disk representation used by cmd/daggen and the
// examples: an explicit node and edge list, stable and diff-friendly.
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
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	out := New(jg.Name)
	for i, jt := range jg.Tasks {
		if jt.ID != i {
			return fmt.Errorf("dag: json task IDs must be dense and ordered, got %d at index %d", jt.ID, i)
		}
		k, err := parseKernel(jt.Kernel)
		if err != nil {
			return err
		}
		t := out.AddTask(k, jt.N)
		if jt.Name != "" {
			t.Name = jt.Name
		}
	}
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= out.Len() || e[1] < 0 || e[1] >= out.Len() {
			return fmt.Errorf("dag: json edge %v out of range", e)
		}
		out.AddEdge(e[0], e[1])
	}
	if err := out.Validate(); err != nil {
		return err
	}
	g.Name, g.Tasks = out.Name, out.Tasks
	g.topo.Store(out.topo.Load()) // Validate computed it; the order is immutable
	return nil
}

func parseKernel(s string) (Kernel, error) {
	switch s {
	case "add":
		return KernelAdd, nil
	case "mul":
		return KernelMul, nil
	case "noop":
		return KernelNoop, nil
	default:
		return 0, fmt.Errorf("dag: unknown kernel %q", s)
	}
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
