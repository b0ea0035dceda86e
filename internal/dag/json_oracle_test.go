package dag_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/jsonfast"
	"repro/internal/testutil"
)

// sameResult fails t unless the new decoder's (g, err) is the oracle's: the
// same graph, or the same error message. Where the oracle panicked on a self
// edge, the new decoder must return an error naming it.
func sameResult(t *testing.T, what string, data []byte, want *dag.Graph, werr error, got *dag.Graph, gerr error) {
	t.Helper()
	if _, ok := werr.(dag.OraclePanic); ok {
		if gerr == nil || !strings.Contains(gerr.Error(), "self edge") {
			t.Fatalf("%s: oracle panicked (%v), new decoder returned %v\ninput: %q", what, werr, gerr, data)
		}
		return
	}
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: error %v, want %v\ninput: %q", what, gerr, werr, data)
	}
	if werr == nil {
		if d := testutil.GraphDiff(want, got); d != "" {
			t.Fatalf("%s: %s\ninput: %q", what, d, data)
		}
	}
}

// graphSeeds are inputs on both sides of the canonical line: daggen-style
// indented and compact exports, and every way a document can leave the
// subset the scanner takes while staying valid JSON.
func graphSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds, err := testutil.FuzzCorpus("testdata/fuzz/FuzzDAGImport")
	if err != nil {
		tb.Fatal(err)
	}
	for _, g := range []*dag.Graph{
		dag.Diamond(2000), dag.ForkJoin(3, 2, 3000), dag.Chain(4, 500, dag.KernelMul, dag.KernelAdd),
		dag.MustGenerate(dag.GenParams{Tasks: 30, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 3}),
	} {
		var indented bytes.Buffer
		if err := g.WriteJSON(&indented); err != nil {
			tb.Fatal(err)
		}
		compact, err := json.Marshal(g)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, indented.Bytes(), compact)
	}
	for _, s := range []string{
		`{}`, `{"name":"e","tasks":[],"edges":[]}`, ` {"tasks":[{"id":0,"kernel":"noop","n":0}]} `,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":1}],"edges":[[0,0]]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":1},{"id":1,"kernel":"add","n":1}],"edges":[[0,1],[0,1]]}`,
		`{"edges":[[0,1]],"tasks":[{"id":0,"kernel":"mul","n":1},{"id":1,"kernel":"add","n":1}],"name":"edges first"}`,
		`{"Name":"case","TASKS":[{"ID":0,"Kernel":"mul","N":3}]}`,
		`{"name":"a","name":"dup"}`,
		`{"tasks":[{"id":0,"kernel":"mul","n":3}],"tasks":[{"id":0,"name":"second","kernel":"add"}]}`,
		`{"name":null,"tasks":null,"edges":null}`, `null`, `[]`, `5`, `"s"`,
		`{"name":"escA\n<&>","tasks":[{"id":0,"name":" ","kernel":"mul","n":2}]}`,
		"{\"name\":\"bad utf8 \xff\",\"tasks\":[]}",
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":2.0}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":1e3}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":123456789012345678901}]}`,
		`{"name":"x","tasks":[{"id":-0,"kernel":"mul","n":7}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":-7}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7,"extra":[1,{"a":null}]}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7},{"id":1,"kernel":"mul","n":7}],"edges":[[0,1,2]]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7},{"id":1,"kernel":"mul","n":7}],"edges":[[1]]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7}]} trailing`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7}]}{"name":"second value"}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"fft","n":7}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul"}]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7}],"edges":[[0,3]]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7},{"id":1,"kernel":"mul","n":7}],"edges":[[0,1],[1,0]]}`,
		`{"name":"x","tasks":[{"id":0,"kernel":"mul","n":7}`, `{"name":"x",}`, ``, `   `,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzGraphJSON holds Graph.UnmarshalJSON, and dag.Import's JSON path, to
// the decoder the scanner replaced: the same inputs accepted, the same
// graph — names, kernels, sizes, predecessor and successor order,
// topological order — or the same error. Import, like json.Decoder.Decode,
// ignores what follows the first value. CI runs it as a fuzz smoke.
func FuzzGraphJSON(f *testing.F) {
	for _, s := range graphSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o dag.OracleGraph
		werr := json.Unmarshal(data, &o)
		var g dag.Graph
		gerr := json.Unmarshal(data, &g)
		sameResult(t, "json.Unmarshal", data, o.G, werr, &g, gerr)

		o = dag.OracleGraph{}
		werr = o.UnmarshalJSON(data)
		var direct dag.Graph
		gerr = direct.UnmarshalJSON(data)
		sameResult(t, "UnmarshalJSON", data, o.G, werr, &direct, gerr)

		trimmed := bytes.TrimLeft(data, " \t\r\n")
		if len(trimmed) == 0 || trimmed[0] != '{' {
			return // Import reads anything else as DOT
		}
		o = dag.OracleGraph{}
		werr = json.NewDecoder(bytes.NewReader(trimmed)).Decode(&o)
		imported, gerr := dag.Import(data)
		sameResult(t, "Import", data, o.G, werr, imported, gerr)
	})
}

// TestTopoOrderIsSmallestReadyFirst holds TopoOrder to the Kahn's algorithm
// it replaced — a sorted ready list, smallest ID first, with each task's
// newly ready successors merged in — on the Table I suite and on random
// graphs whose edges arrive in shuffled order.
func TestTopoOrderIsSmallestReadyFirst(t *testing.T) {
	oracle := func(g *dag.Graph) []int {
		indeg := make([]int, g.Len())
		var ready []int
		for _, task := range g.Tasks {
			if indeg[task.ID] = task.InDegree(); indeg[task.ID] == 0 {
				ready = append(ready, task.ID)
			}
		}
		var order []int
		for len(ready) > 0 {
			id := ready[0]
			ready = ready[1:]
			order = append(order, id)
			for _, s := range g.Tasks[id].Succs() {
				if indeg[s]--; indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
			sort.Ints(ready)
		}
		return order
	}
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*dag.Graph
	for _, inst := range suite {
		graphs = append(graphs, inst.Graph)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(60)
		g := dag.New("random")
		for i := 0; i < n; i++ {
			g.AddTask(dag.KernelMul, 10)
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			// Edges run from higher to lower IDs: acyclic, but the ID
			// order is not a topological order.
			if a > b {
				a, b = b, a
			}
			g.AddEdge(n-1-a, n-1-b)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		got, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(g); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("graph %d: TopoOrder %v, want %v", i, got, want)
		}
	}
}

// TestScanJSONTakesExports pins the fast path to the inputs it exists for:
// WriteJSON's indented export and json.Marshal's compact one are scanned,
// not handed to encoding/json.
func TestScanJSONTakesExports(t *testing.T) {
	g := dag.MustGenerate(dag.GenParams{Tasks: 100, InputMatrices: 8, AddRatio: 0.5, N: 2000, Seed: 9})
	var indented bytes.Buffer
	if err := g.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{indented.Bytes(), compact} {
		var r jsonfast.Reader
		r.Reset(data)
		got, ok := dag.ScanJSON(&r)
		if !ok || !r.End() {
			t.Fatalf("ScanJSON did not take an export:\n%.200s", data)
		}
		var o dag.OracleGraph
		if err := json.Unmarshal(data, &o); err != nil {
			t.Fatal(err)
		}
		if d := testutil.GraphDiff(o.G, got); d != "" {
			t.Fatal(d)
		}
	}
}
