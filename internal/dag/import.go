package dag

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file completes the serialization round trip: graphs exported with
// WriteDOT or WriteJSON can be read back into a *Graph. The importers are
// strict about structure (dense IDs, valid edges, acyclicity — everything
// Validate checks) but never panic on malformed input: hostile bytes get an
// error, which is what lets imported workflow traces flow through the same
// engines as generated suites.
//
// Both exports list edges grouped by source task in ascending ID order, so
// an imported graph's predecessor lists are normalized to that order; task
// order, successor order, and therefore re-exported bytes are preserved
// exactly.

// Import parses a serialized graph, sniffing the format: input whose first
// non-space byte is '{' is treated as the WriteJSON node/edge list,
// everything else as the WriteDOT dialect.
func Import(data []byte) (*Graph, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return decodeJSON(trimmed)
	}
	return ReadDOT(bytes.NewReader(data))
}

// ImportFile reads and parses a serialized graph from path.
func ImportFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := Import(data)
	if err != nil {
		return nil, fmt.Errorf("dag: import %s: %w", path, err)
	}
	return g, nil
}

// dotNode is one parsed node statement, attributes still in escaped form.
type dotNode struct {
	id     int
	label  string
	kernel string
	shape  string
	hasLbl bool
}

// ReadDOT parses the DOT dialect emitted by WriteDOT back into a graph. It
// is line-oriented and tolerant of attribute order, extra attributes,
// comment lines and multi-hop edge statements, but requires the node labels
// WriteDOT produces ("<name>\nn=<size>") and dense task IDs t0..tN-1.
func ReadDOT(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		name      string
		sawHeader bool
		sawClose  bool
		nodes     = map[int]dotNode{}
		edges     [][2]int
	)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#"):
			continue
		case !sawHeader:
			n, err := parseDOTHeader(line)
			if err != nil {
				return nil, err
			}
			name, sawHeader = n, true
		case line == "}":
			sawClose = true
		case sawClose:
			return nil, fmt.Errorf("dag: dot: content after closing brace: %q", line)
		case isDOTDirective(line):
			continue
		case strings.Contains(line, "->"):
			hops, err := parseDOTEdge(line)
			if err != nil {
				return nil, err
			}
			for i := 0; i+1 < len(hops); i++ {
				edges = append(edges, [2]int{hops[i], hops[i+1]})
			}
		default:
			nd, err := parseDOTNode(line)
			if err != nil {
				return nil, err
			}
			if _, dup := nodes[nd.id]; dup {
				return nil, fmt.Errorf("dag: dot: duplicate node t%d", nd.id)
			}
			nodes[nd.id] = nd
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dag: dot: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("dag: dot: missing digraph header")
	}
	if !sawClose {
		return nil, fmt.Errorf("dag: dot: missing closing brace")
	}
	return buildFromDOT(name, nodes, edges)
}

// buildFromDOT assembles and validates the graph from parsed statements.
func buildFromDOT(name string, nodes map[int]dotNode, edges [][2]int) (*Graph, error) {
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			return nil, fmt.Errorf("dag: dot: task IDs must be dense 0..%d, got t%d", len(ids)-1, id)
		}
	}
	g := New(name)
	for _, id := range ids {
		nd := nodes[id]
		taskName, n, err := splitDOTLabel(nd)
		if err != nil {
			return nil, err
		}
		k, err := dotKernel(nd, taskName)
		if err != nil {
			return nil, err
		}
		t := g.AddTask(k, n)
		if taskName != "" {
			t.Name = taskName
		}
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= g.Len() || e[1] < 0 || e[1] >= g.Len() {
			return nil, fmt.Errorf("dag: dot: edge t%d -> t%d references undefined task", e[0], e[1])
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("dag: dot: self edge on t%d", e[0])
		}
		g.AddEdge(e[0], e[1])
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// splitDOTLabel recovers the task name and matrix size from a node label.
// The label is still escaped; the split happens at the last \n escape, which
// is always the WriteDOT separator because the "n=<size>" suffix contains no
// backslashes. The name half alone is then unescaped.
func splitDOTLabel(nd dotNode) (string, int, error) {
	if !nd.hasLbl {
		return "", 0, fmt.Errorf("dag: dot: node t%d has no label", nd.id)
	}
	i := strings.LastIndex(nd.label, `\n`)
	if i < 0 || !strings.HasPrefix(nd.label[i+2:], "n=") {
		return "", 0, fmt.Errorf("dag: dot: node t%d label %q lacks the \\nn=<size> suffix", nd.id, nd.label)
	}
	n, err := strconv.Atoi(nd.label[i+4:])
	if err != nil || n < 0 {
		return "", 0, fmt.Errorf("dag: dot: node t%d has invalid size %q", nd.id, nd.label[i+4:])
	}
	return dotUnescape(nd.label[:i]), n, nil
}

// dotKernel resolves a node's kernel: the explicit kernel attribute wins,
// then a "/add"-style task-name suffix, then the node shape (ellipse is a
// multiplication, box alone is ambiguous between add and noop and defaults
// to add).
func dotKernel(nd dotNode, taskName string) (Kernel, error) {
	if nd.kernel != "" {
		return parseKernel(nd.kernel)
	}
	for _, k := range []Kernel{KernelAdd, KernelMul, KernelNoop} {
		if strings.HasSuffix(taskName, "/"+k.String()) {
			return k, nil
		}
	}
	if nd.shape == "ellipse" {
		return KernelMul, nil
	}
	return KernelAdd, nil
}

// parseDOTHeader parses `digraph "name" {` (quoted or bare name, both
// optional) and returns the unescaped graph name.
func parseDOTHeader(line string) (string, error) {
	rest, ok := strings.CutPrefix(line, "digraph")
	if !ok {
		return "", fmt.Errorf("dag: dot: expected digraph header, got %q", line)
	}
	rest = strings.TrimSpace(rest)
	name := ""
	if strings.HasPrefix(rest, `"`) {
		esc, tail, err := scanDOTQuoted(rest)
		if err != nil {
			return "", fmt.Errorf("dag: dot: header: %w", err)
		}
		name, rest = dotUnescape(esc), strings.TrimSpace(tail)
	} else if i := strings.IndexByte(rest, '{'); i > 0 {
		name, rest = strings.TrimSpace(rest[:i]), rest[i:]
	}
	if !strings.HasPrefix(rest, "{") {
		return "", fmt.Errorf("dag: dot: header %q lacks opening brace", line)
	}
	return name, nil
}

// isDOTDirective reports whether the line is a graph-level attribute or
// default-attribute statement the importer can skip.
func isDOTDirective(line string) bool {
	for _, p := range []string{"rankdir", "graph ", "graph[", "node ", "node[", "edge ", "edge[", "label=", "labelloc", "fontname", "fontsize"} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// parseDOTEdge parses `tA -> tB [-> tC ...];` into the hop list.
func parseDOTEdge(line string) ([]int, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	// Drop a trailing attribute block; edge attributes carry no structure.
	if i := strings.IndexByte(line, '['); i >= 0 {
		if !strings.HasSuffix(strings.TrimSpace(line), "]") {
			return nil, fmt.Errorf("dag: dot: unterminated edge attributes: %q", line)
		}
		line = strings.TrimSpace(line[:i])
	}
	parts := strings.Split(line, "->")
	if len(parts) < 2 {
		return nil, fmt.Errorf("dag: dot: malformed edge %q", line)
	}
	hops := make([]int, len(parts))
	for i, p := range parts {
		id, err := parseDOTNodeID(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		hops[i] = id
	}
	return hops, nil
}

// parseDOTNode parses `tID [k=v ...];` into a dotNode.
func parseDOTNode(line string) (dotNode, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	idTok := line
	attrs := ""
	if i := strings.IndexByte(line, '['); i >= 0 {
		if !strings.HasSuffix(line, "]") {
			return dotNode{}, fmt.Errorf("dag: dot: unterminated node attributes: %q", line)
		}
		idTok, attrs = strings.TrimSpace(line[:i]), line[i+1:len(line)-1]
	}
	id, err := parseDOTNodeID(idTok)
	if err != nil {
		return dotNode{}, err
	}
	nd := dotNode{id: id}
	for attrs = strings.TrimSpace(attrs); attrs != ""; attrs = strings.TrimSpace(attrs) {
		attrs = strings.TrimPrefix(attrs, ",")
		eq := strings.IndexByte(attrs, '=')
		if eq <= 0 {
			return dotNode{}, fmt.Errorf("dag: dot: node t%d: malformed attribute near %q", id, attrs)
		}
		key := strings.TrimSpace(attrs[:eq])
		rest := strings.TrimSpace(attrs[eq+1:])
		var val string
		if strings.HasPrefix(rest, `"`) {
			esc, tail, err := scanDOTQuoted(rest)
			if err != nil {
				return dotNode{}, fmt.Errorf("dag: dot: node t%d: %w", id, err)
			}
			val, attrs = esc, tail
		} else {
			end := strings.IndexAny(rest, " \t,")
			if end < 0 {
				end = len(rest)
			}
			val, attrs = rest[:end], rest[end:]
		}
		switch key {
		case "label":
			nd.label, nd.hasLbl = val, true
		case "kernel":
			nd.kernel = dotUnescape(val)
		case "shape":
			nd.shape = dotUnescape(val)
		}
	}
	return nd, nil
}

// parseDOTNodeID parses a `t<digits>` node identifier.
func parseDOTNodeID(tok string) (int, error) {
	digits, ok := strings.CutPrefix(tok, "t")
	if !ok || digits == "" {
		return 0, fmt.Errorf("dag: dot: node identifier %q is not of the form t<id>", tok)
	}
	id, err := strconv.Atoi(digits)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("dag: dot: node identifier %q is not of the form t<id>", tok)
	}
	return id, nil
}

// scanDOTQuoted scans a double-quoted DOT string starting at s[0] == '"'.
// It returns the contents still in escaped form plus the remainder after
// the closing quote.
func scanDOTQuoted(s string) (esc, rest string, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '"':
			return s[1:i], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string %q", s)
}

// dotUnescape inverts dotEscape: \\ and \" drop the backslash, \n becomes a
// raw newline, and any other escape keeps the escaped byte.
func dotUnescape(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
