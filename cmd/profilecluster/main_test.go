package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.txt instead of comparing against it")

// TestReportGolden pins the summary profilecluster prints at its default
// seed, byte for byte, for one worker and for four: the fit-validation
// table's cells draw from per-cell sessions, so the worker count must not
// show. Refresh after an intentional change with
//
//	go test ./cmd/profilecluster -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	path := filepath.Join("testdata", "report.txt")
	for _, parallel := range []int{1, 4} {
		var buf bytes.Buffer
		if err := report(&buf, 42, parallel, ""); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("-parallel %d: report drifted from %s:\ngot:\n%s\nwant:\n%s", parallel, path, buf.Bytes(), want)
		}
	}
}
