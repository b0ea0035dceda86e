package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// viewOf renders everything a handle shows of the pool — jobs in order, and
// the cell plan of each — normalised through JSON.
func viewOf(t *testing.T, s *Store) string {
	t.Helper()
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	view := map[string]any{"jobs": jobs}
	for _, j := range jobs {
		if cells, ok, err := s.Cells(j.ID); err != nil {
			t.Fatalf("Cells: %v", err)
		} else if ok {
			view["cells:"+j.ID] = cells
		}
	}
	return jsonRound(t, view)
}

// The streamed snapshot carries everything the state holds — finished,
// running and queued jobs, a half-finished cell plan, replica registrations —
// to three kinds of reader: the compacting handle itself, a live handle that
// follows the compaction without reading the snapshot, and a fresh one that
// reads it record by record. All three must show the same pool, and go on
// agreeing when work continues on top.
func TestCompactionStreamedSnapshotThreeReaders(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	follower := openTestStore(t, dir, clock)

	for i := 0; i < 3; i++ {
		rec, err := a.SubmitJob("k", []byte(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := a.Claim("r1", time.Second); !ok {
			t.Fatal("claim failed")
		}
		if err := a.Complete(rec.ID, "r1", fmt.Sprintf("out <%d> & more", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	sharded := planShardedJob(t, a, "r1", 3)
	for i := 0; i < 2; i++ {
		if _, err := a.SubmitJob("queued", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := a.ClaimCell("r2", time.Minute, sharded.ID); !ok {
		t.Fatal("cell claim failed")
	}
	if _, _, err := a.CompleteCellAndClaim(sharded.ID, 0, "r2", []byte("frame-0"), "", nil, true, sharded.ID, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := a.Heartbeat("r1", time.Minute); err != nil {
		t.Fatal(err)
	}
	// The follower has seen only part of the log when the compaction lands.
	if _, err := follower.Jobs(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitJob("late", nil); err != nil {
		t.Fatal(err)
	}

	if err := a.Compact(2); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := viewOf(t, a)
	if got := viewOf(t, follower); got != want {
		t.Errorf("follower differs from the compactor:\n got %s\nwant %s", got, want)
	}
	fresh := openTestStore(t, dir, clock)
	if got := viewOf(t, fresh); got != want {
		t.Errorf("fresh handle differs from the compactor:\n got %s\nwant %s", got, want)
	}
	if follower.gen != 1 || fresh.gen != 1 {
		t.Fatalf("generations: follower %d, fresh %d, want 1", follower.gen, fresh.gen)
	}
	replicas, err := fresh.Replicas()
	if err != nil || len(replicas) != 1 || replicas[0].Name != "r1" {
		t.Errorf("fresh handle's replicas = %+v, %v", replicas, err)
	}

	// The pool keeps working on top of the snapshot, from any of them: the
	// plan finishes, and its last result is recognised as the last.
	if _, _, err := follower.CompleteCellAndClaim(sharded.ID, 1, "r2", []byte("frame-1"), "", nil, false, "", 0); err != nil {
		t.Fatal(err)
	}
	stamp := fresh.Stamp()
	if _, ok, err := fresh.ClaimCell("r3", time.Minute, sharded.ID); err != nil || !ok {
		t.Fatalf("ClaimCell on the snapshot's plan = %v, %v", ok, err)
	}
	if _, _, err := fresh.CompleteCellAndClaim(sharded.ID, 2, "r3", []byte("frame-2"), "", nil, false, "", 0); err != nil {
		t.Fatal(err)
	}
	if fresh.Stamp() == stamp {
		t.Error("the result that completed a plan loaded from a snapshot woke nobody")
	}
	results, err := a.CellResults(sharded.ID)
	if err != nil || len(results) != 3 || string(results[2]) != "frame-2" {
		t.Fatalf("CellResults = %q, %v", results, err)
	}
	if got, want := viewOf(t, follower), viewOf(t, a); got != want {
		t.Errorf("views diverged after the compaction:\n got %s\nwant %s", got, want)
	}

	// A second compaction, by the former follower, with the first compactor
	// following.
	if err := follower.Compact(1); err != nil {
		t.Fatal(err)
	}
	if got, want := viewOf(t, a), viewOf(t, follower); got != want {
		t.Errorf("views differ after the second compaction:\n got %s\nwant %s", got, want)
	}
}

// A handle that fell more than one generation behind cannot follow; it loads
// the snapshot.
func TestCompactionSkippedGenerationLoadsSnapshot(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	b := openTestStore(t, dir, clock)
	for round := 0; round < 3; round++ {
		if _, err := a.SubmitJob("k", nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Compact(8); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := viewOf(t, b), viewOf(t, a); got != want {
		t.Errorf("handle three generations behind:\n got %s\nwant %s", got, want)
	}
}

// copyDir copies a flat fixture directory.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A store directory written by the commit before snapshots were streamed —
// testdata/parent-format: an indented single-object snapshot with finished,
// running (sharded, one cell done) and queued jobs, and a WAL with a
// submission and a claim on top — opens, is claimed from and finished, and
// comes out of its first compaction in the streamed form.
func TestCompactionParentFormatSnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "parent-format"), dir)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, j := range jobs {
		states = append(states, j.ID+":"+j.State)
	}
	want := "[job-1:done job-4:done job-7:running job-8:running job-14:queued]"
	if got := fmt.Sprint(states); got != want {
		t.Fatalf("jobs = %s, want %s", got, want)
	}
	cells, ok, err := s.Cells("job-7")
	if err != nil || !ok || len(cells) != 2 || cells[0].State != StateDone || string(cells[0].Result) != "0" {
		t.Fatalf("cells of job-7 = %+v, %v, %v", cells, ok, err)
	}

	// Every lease in the fixture lapsed long ago: three claims hand out the
	// queued job and both orphans, and each finishes.
	for i := 0; i < 3; i++ {
		rec, ok, err := s.Claim("new", time.Minute)
		if err != nil || !ok {
			t.Fatalf("claim %d = %v, %v", i, ok, err)
		}
		if rec.ID == "job-7" {
			cell, ok, err := s.ClaimCell("new", time.Minute, rec.ID)
			if err != nil || !ok || cell.Index != 1 {
				t.Fatalf("ClaimCell = %+v, %v, %v", cell, ok, err)
			}
			if _, _, err := s.CompleteCellAndClaim(rec.ID, 1, "new", []byte("1"), "", nil, false, "", 0); err != nil {
				t.Fatal(err)
			}
			if results, err := s.CellResults(rec.ID); err != nil || len(results) != 2 {
				t.Fatalf("CellResults = %q, %v", results, err)
			}
		}
		if err := s.Complete(rec.ID, "new", "finished by the new code", nil); err != nil {
			t.Fatalf("Complete %s: %v", rec.ID, err)
		}
	}
	before := viewOf(t, s)

	if err := s.Compact(8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshot-2.json"))
	if err != nil || !bytes.HasPrefix(data, []byte(snapMagic)) {
		t.Fatalf("first compaction did not write the streamed form: %q, %v", data[:min(len(data), 20)], err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-1.json")); !os.IsNotExist(err) {
		t.Errorf("the old-form snapshot survived the compaction: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := viewOf(t, s2); got != before {
		t.Errorf("migrated store differs:\n got %s\nwant %s", got, before)
	}
}

// A snapshot is synced before MANIFEST names it, so one that is cut short or
// damaged is an error to report, never a shorter table to carry on with.
func TestCompactionDamagedSnapshotFailsLoad(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)
	for i := 0; i < 4; i++ {
		if _, err := s.SubmitJob("k", []byte(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(8); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "snapshot-1.json")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-2] ^= 0x40
	for name, data := range map[string][]byte{
		"cut mid-frame":     whole[:len(whole)-5],
		"cut at a boundary": whole[:lastFrameStart(t, whole)],
		"flipped bit":       flipped,
		"trailing bytes":    append(append([]byte(nil), whole...), appendFrame(nil, []byte("{}"))...),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if h, err := Open(dir, Options{Now: clock.Now}); err == nil {
			h.Close()
			t.Errorf("%s: Open succeeded on a damaged snapshot", name)
		}
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatalf("Open of the intact snapshot: %v", err)
	}
	h.Close()
}

// lastFrameStart finds where a snapshot's last frame begins.
func lastFrameStart(t *testing.T, data []byte) int {
	t.Helper()
	off, last := len(snapMagic), len(snapMagic)
	for off < len(data) {
		last = off
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return last
}

// Compaction cost is flat in the table size: with everything retained,
// compacting a 4 000-job table and taking a second live handle across the
// compaction allocate no buffer the size of the table — under half a megabyte
// in large objects, which is the write buffer; the rest is the few small
// objects each record's JSON encoding costs, dead as soon as they are made —
// and a trigger that measures the log against the snapshot compacts
// O(log jobs) times, not once per so many bytes. (The whole-table
// MarshalIndent and Unmarshal this replaces put eight times the snapshot's
// size into large objects, every 256 KB of log.)
func TestCompactionCostFlatInTableSize(t *testing.T) {
	const jobs, retainAll, minWAL = 4000, 1 << 20, 4 << 10
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	b := openTestStore(t, dir, clock)

	gens := map[int]uint64{}
	for i := 1; i <= jobs; i++ {
		rec, err := a.SubmitJob("table1", []byte(`{"study":"table1"}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := a.Claim("w", time.Minute); err != nil || !ok {
			t.Fatalf("Claim = %v, %v", ok, err)
		}
		if err := a.Complete(rec.ID, "w", "a report, or what stands in for one in a test", nil); err != nil {
			t.Fatal(err)
		}
		if err := a.CompactPast(minWAL, retainAll); err != nil {
			t.Fatal(err)
		}
		if i == jobs/8 || i == jobs/4 || i == jobs/2 || i == jobs {
			gens[i] = a.gen
		}
	}
	// Each doubling of the table adds a compaction or two; a trigger at a
	// fixed log size would add as many again as all doublings before it.
	for _, n := range []int{jobs / 4, jobs / 2, jobs} {
		if added := gens[n] - gens[n/2]; added > 3 {
			t.Errorf("jobs %d -> %d: %d more compactions, want at most 3 (generations %v)", n/2, n, added, gens)
		}
	}
	t.Logf("generations after jobs/8, /4, /2, all: %v", gens)
	if gens[jobs] < 3 {
		t.Fatalf("only %d compactions over %d jobs; the trigger never fired", gens[jobs], jobs)
	}
	if _, err := b.Jobs(); err != nil { // b is level with the log
		t.Fatal(err)
	}

	large, total := allocatedBy(func() {
		if err := a.Compact(retainAll); err != nil {
			t.Error(err)
		}
		if _, ok, err := b.Job("job-1"); err != nil || !ok {
			t.Errorf("second handle after the compaction: %v, %v", ok, err)
		}
	})
	if b.gen != a.gen {
		t.Fatalf("second handle is at generation %d, compactor at %d", b.gen, a.gen)
	}
	snap, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snapshot-%d.json", a.gen)))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot %d KB; compaction + reload allocated %d KB, %d KB of it in large objects",
		snap.Size()>>10, total>>10, large>>10)
	if large > 512<<10 {
		t.Errorf("compaction and the second handle's reload put %d KB into large objects, want under 512", large>>10)
	}
	if got, want := viewOf(t, b), viewOf(t, a); got != want {
		t.Error("second handle's table differs from the compactor's")
	}
}

// allocatedBy runs fn and returns the bytes it allocated: in large objects —
// beyond the runtime's size classes, over 32 KB, where a buffer proportional
// to the table lands — and in total. The collector is off meanwhile, so the
// total is also the most the heap in use can have grown.
func allocatedBy(fn func()) (large, total int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	total = int64(after.TotalAlloc - before.TotalAlloc)
	large = total
	for i := range after.BySize {
		large -= int64(after.BySize[i].Mallocs-before.BySize[i].Mallocs) * int64(after.BySize[i].Size)
	}
	return large, total
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoder — both forms,
// told apart by the first byte. It must never panic, and whatever it accepts
// must be a state a replay could have produced: every listed job present
// once, live jobs exactly the non-terminal ones, cell plans only for live
// jobs with every cell in its place and the open-cell count right — and
// writing that state back out must decode to the same state.
func FuzzSnapshot(f *testing.F) {
	st := newState()
	st.seq = 9
	st.replicas["r1"] = 42
	started := time.Unix(5, 0).UTC()
	st.addJob(&JobRecord{ID: "job-1", Kind: "k", lease: lease{State: StateDone, Holder: "r1"}, Output: "out", Started: &started, Ended: &started})
	st.addJob(&JobRecord{ID: "job-3", Kind: "toy:x", lease: lease{State: StateRunning, Holder: "r1"}, Payload: json.RawMessage(`{"cells":2}`)})
	st.addJob(&JobRecord{ID: "job-8", Kind: "k", lease: lease{State: StateQueued}})
	st.setPlan("job-3", []*CellRecord{
		{Job: "job-3", Index: 0, lease: lease{State: StateDone, Holder: "r2"}, Result: []byte("frame")},
		{Job: "job-3", Index: 1, lease: lease{State: StateQueued}},
	})
	var valid bytes.Buffer
	if _, err := writeSnapshot(&valid, &st, snapHeader{Gen: 4, PrevWAL: 100, Retain: 8}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-format", "snapshot-1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add([]byte(`{"gen":1,"seq":2,"jobs":[{"id":"a","state":"done"},null]}`))
	f.Add([]byte(`{"jobs":[{"id":"a","state":"done"}],"cells":{"a":[{"job":"a","index":0}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got.jobs) != len(got.order) {
			t.Fatalf("%d jobs under %d ids", len(got.jobs), len(got.order))
		}
		live := 0
		for _, id := range got.order {
			j, ok := got.jobs[id]
			if !ok || j.ID != id {
				t.Fatalf("order lists %q, table has %+v", id, j)
			}
			if !terminal(j.State) {
				if live >= len(got.live) || got.live[live] != id {
					t.Fatalf("live jobs %v miss %q", got.live, id)
				}
				live++
			}
		}
		if live != len(got.live) {
			t.Fatalf("live jobs %v, want %d of them", got.live, live)
		}
		for job, cells := range got.cells {
			if j, ok := got.jobs[job]; !ok || terminal(j.State) || len(cells) == 0 {
				t.Fatalf("plan of %d cells for %q (%+v)", len(cells), job, j)
			}
			left := 0
			for i, c := range cells {
				if c.Job != job || c.Index != i {
					t.Fatalf("cell %d of %q is %+v", i, job, c)
				}
				if !terminal(c.State) {
					left++
				}
			}
			if got.cellsLeft[job] != left {
				t.Fatalf("%q: %d cells counted open, %d are", job, got.cellsLeft[job], left)
			}
		}
		var out bytes.Buffer
		if _, err := writeSnapshot(&out, &got, snapHeader{}); err != nil {
			t.Fatalf("re-encoding an accepted state: %v", err)
		}
		again, err := readSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded state: %v", err)
		}
		a, _ := json.Marshal(map[string]any{"seq": got.seq, "jobs": got.jobs, "order": got.order, "cells": got.cells, "replicas": got.replicas})
		b, _ := json.Marshal(map[string]any{"seq": again.seq, "jobs": again.jobs, "order": again.order, "cells": again.cells, "replicas": again.replicas})
		if !bytes.Equal(a, b) {
			t.Fatalf("state changed across a write and a read:\n got %s\nwant %s", b, a)
		}
	})
}
