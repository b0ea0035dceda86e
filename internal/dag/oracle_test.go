package dag

import (
	"encoding/json"
	"fmt"
)

// OracleGraph decodes with the node/edge-list decoder the scanner replaced,
// kept as the reference FuzzGraphJSON holds UnmarshalJSON to: encoding/json
// into a jsonGraph, then New, AddTask, AddEdge and Validate. That decoder
// let AddEdge panic on a self edge; the oracle reports the panic as an
// OraclePanic error.
type OracleGraph struct{ G *Graph }

// OraclePanic is a panic the reference decoder raised.
type OraclePanic struct{ V any }

func (p OraclePanic) Error() string { return fmt.Sprint("panic: ", p.V) }

func (o *OracleGraph) UnmarshalJSON(data []byte) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = OraclePanic{v}
		}
	}()
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	out := New(jg.Name)
	for i, jt := range jg.Tasks {
		if jt.ID != i {
			return fmt.Errorf("dag: json task IDs must be dense and ordered, got %d at index %d", jt.ID, i)
		}
		var k Kernel
		switch jt.Kernel {
		case "add":
			k = KernelAdd
		case "mul":
			k = KernelMul
		case "noop":
			k = KernelNoop
		default:
			return fmt.Errorf("dag: unknown kernel %q", jt.Kernel)
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
	o.G = out
	return nil
}
