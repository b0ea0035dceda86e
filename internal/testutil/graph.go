package testutil

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/dag"
)

// GraphDiff describes the first difference between two graphs — name, task
// count, any task's ID, name, kernel, size, predecessor or successor list
// (in order), or the topological order — and returns "" when there is none.
func GraphDiff(want, got *dag.Graph) string {
	if want.Name != got.Name {
		return fmt.Sprintf("graph name %q, want %q", got.Name, want.Name)
	}
	if want.Len() != got.Len() {
		return fmt.Sprintf("%d tasks, want %d", got.Len(), want.Len())
	}
	for i := range want.Tasks {
		w, g := want.Tasks[i], got.Tasks[i]
		if w.ID != g.ID || w.Name != g.Name || w.Kernel != g.Kernel || w.N != g.N {
			return fmt.Sprintf("task %d = {%d %q %v n=%d}, want {%d %q %v n=%d}",
				i, g.ID, g.Name, g.Kernel, g.N, w.ID, w.Name, w.Kernel, w.N)
		}
		if !sameInts(w.Preds(), g.Preds()) || !sameInts(w.Succs(), g.Succs()) {
			return fmt.Sprintf("task %d edges = (preds %v, succs %v), want (preds %v, succs %v)",
				i, g.Preds(), g.Succs(), w.Preds(), w.Succs())
		}
	}
	wantOrder, werr := want.TopoOrder()
	gotOrder, gerr := got.TopoOrder()
	if fmt.Sprint(werr) != fmt.Sprint(gerr) || !reflect.DeepEqual(wantOrder, gotOrder) {
		return fmt.Sprintf("topological order %v (%v), want %v (%v)", gotOrder, gerr, wantOrder, werr)
	}
	return ""
}

// sameInts compares two lists element by element; nil and empty are equal.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzCorpus reads the []byte inputs of a directory of `go test fuzz v1`
// corpus files, such as testdata/fuzz/<FuzzTarget>, so one target's
// committed corpus can seed another's.
func FuzzCorpus(dir string) ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			continue // not a one-[]byte corpus entry
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, []byte(s))
	}
	return out, nil
}
