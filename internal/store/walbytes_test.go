package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// walBytesDir holds the files walScript leaves behind, as the store wrote
// them before the job and cell leases shared one state machine.
var walBytesDir = filepath.Join("testdata", "walbytes")

// walScript drives one directory handle on a simulated clock through every
// lease transition, for a job and for a cell — submit or plan, claim, renew,
// an expiry takeover, takeovers up to the seventh (which poisons), release —
// plus a duplicate cell completion and one compaction, then through a seeded
// random tail of the same calls. It returns the log as it stood just before
// the compaction; the snapshot and the log of the compacted generation are
// left in dir.
func walScript(t *testing.T, dir string) (wal0 []byte) {
	t.Helper()
	const ttl = 10 * time.Second
	clock := newFakeClock()
	s := openTestStore(t, dir, clock)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	claim := func(holder, want string) {
		t.Helper()
		rec, ok, err := s.Claim(holder, ttl)
		must(err)
		if got := map[bool]string{true: rec.ID}[ok]; got != want {
			t.Fatalf("%s claimed %q, want %q", holder, got, want)
		}
	}
	claimCell := func(holder string, want int) {
		t.Helper()
		c, ok, err := s.ClaimCell(holder, ttl, "")
		must(err)
		if !ok || c.Index != want {
			t.Fatalf("%s claimed cell %+v (%v), want cell %d", holder, c, ok, want)
		}
	}
	lapse := func() { clock.Advance(ttl + time.Second) }
	prog := func(n int) *obs.ProgressSnapshot {
		return &obs.ProgressSnapshot{CellsDone: int64(n), TrialsUsed: int64(10 * n)}
	}
	holders := []string{"r2", "r1"}

	// A job: claimed, renewed, taken over six times — renewed with progress
	// after each — and failed as poisoned by the seventh claim.
	a, err := s.SubmitJob("toy", json.RawMessage(`{"n":1}`))
	must(err)
	claim("r1", a.ID)
	must(s.Renew(a.ID, "r1", ttl, prog(1)))
	for i := 0; i < MaxRestarts; i++ {
		lapse()
		claim(holders[i%2], a.ID)
		must(s.Renew(a.ID, holders[i%2], ttl, prog(i+2)))
	}
	lapse()
	claim("r2", "")

	// A job released and claimed again by another replica, which finishes it.
	b, err := s.SubmitJob("toy", nil)
	must(err)
	claim("r1", b.ID)
	must(s.Renew(b.ID, "r1", ttl, nil))
	must(s.ReleaseLease(b.ID, -1, "r1"))
	claim("r2", b.ID)
	must(s.Complete(b.ID, "r2", "out-b", prog(1)))

	// A sharded job: cell 0 is renewed, taken over six times and poisoned by
	// the seventh claim; cell 1 is released and completed by another replica
	// — chaining to cell 2 — and then completed again by its first holder.
	c, err := s.SubmitJob("toy", json.RawMessage(`{"cells":3}`))
	must(err)
	claim("r1", c.ID)
	must(s.PlanCells(c.ID, 3))
	claimCell("r1", 0)
	must(s.RenewLease(c.ID, 0, "r1", ttl, prog(1)))
	for i := 0; i < MaxRestarts; i++ {
		lapse()
		must(s.Renew(c.ID, "r1", ttl, nil))
		claimCell(holders[i%2], 0)
		must(s.RenewLease(c.ID, 0, holders[i%2], ttl, prog(i+2)))
	}
	lapse()
	must(s.Renew(c.ID, "r1", ttl, nil))
	claimCell("r2", 1)
	must(s.ReleaseLease(c.ID, 1, "r2"))
	claimCell("r1", 1)
	next, ok, err := s.CompleteCellAndClaim(c.ID, 1, "r1", []byte("frame-1"), "", prog(1), true, "", ttl)
	must(err)
	if !ok || next.Index != 2 {
		t.Fatalf("chained claim = %+v, %v; want cell 2", next, ok)
	}
	_, ok, err = s.CompleteCellAndClaim(c.ID, 1, "r2", []byte("frame-1"), "", prog(1), true, "", ttl)
	must(err)
	if ok {
		t.Fatal("duplicate completion claimed a cell; none is claimable")
	}
	_, _, err = s.CompleteCellAndClaim(c.ID, 2, "r1", []byte("frame-2"), "", nil, false, "", 0)
	must(err)
	_, _, err = s.CompleteCellAndClaim(c.ID, 0, "r1", []byte("frame-0"), "", nil, false, "", 0)
	must(err)
	must(s.Fail(c.ID, "r1", "cell 0: poisoned"))

	// A queued job cancelled, a heartbeat, a sharded job part-way through its
	// cells, and the compaction.
	d, err := s.SubmitJob("toy", nil)
	must(err)
	must(s.Cancel(d.ID, "", "stop"))
	must(s.Heartbeat("r1", ttl))
	e, err := s.SubmitJob("toy", json.RawMessage(`{"cells":2}`))
	must(err)
	claim("r1", e.ID)
	must(s.PlanCells(e.ID, 2))
	claimCell("r2", 0)
	_, _, err = s.CompleteCellAndClaim(e.ID, 0, "r2", []byte("frame-0"), "", prog(1), false, "", 0)
	must(err)
	wal0, err = os.ReadFile(filepath.Join(dir, "wal-0.log"))
	must(err)
	must(s.Compact(2))

	// The seeded tail: the calls of the handle-equivalence script, bar
	// compaction, whose results must not fail.
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		op := r.Intn(16)
		jobs, err := s.Jobs()
		must(err)
		job, holder := jobs[r.Intn(len(jobs))].ID, quickHolders[r.Intn(len(quickHolders))]
		cell, n, flag := r.Intn(4)-1, r.Intn(4), r.Intn(2) == 0
		if r.Intn(4) > 0 { // mostly, whoever holds the lease asks
			if rec, _, _ := s.Job(job); rec.Holder != "" {
				holder = rec.Holder
			}
			if cells, _, _ := s.Cells(job); cell >= 0 && cell < len(cells) && cells[cell].Holder != "" {
				holder = cells[cell].Holder
			}
		}
		switch op {
		case 0, 1:
			_, err = s.SubmitJobBounded("toy", json.RawMessage(`{"n":2}`), 4)
			if err == ErrQueueFull {
				err = nil
			}
		case 2, 3:
			_, _, err = s.Claim(holder, ttl)
		case 4:
			err = s.RenewLease(job, cell, holder, ttl, prog(step))
		case 5:
			err = s.Complete(job, holder, fmt.Sprintf("out-%d", step), prog(step))
		case 6:
			err = s.Fail(job, holder, "boom")
		case 7:
			err = s.Cancel(job, holder, "stop")
		case 8:
			err = s.ReleaseLease(job, cell, holder)
		case 9:
			err = s.PlanCells(job, n+1)
		case 10, 11:
			_, _, err = s.ClaimCell(holder, ttl, map[bool]string{true: job}[flag])
		case 12:
			_, _, err = s.CompleteCellAndClaim(job, max(cell, 0), holder, []byte{byte(step)}, map[bool]string{true: "cell boom"}[n == 0], prog(step), flag, "", ttl)
		case 13:
			err = s.Heartbeat(holder, ttl)
		default:
			clock.Advance(time.Duration(n) * ttl / 2)
		}
		if err == ErrLeaseLost {
			err = nil
		}
		_ = err // refusals (no such job, a finished job, a replan) are part of the script
	}
	return wal0
}

// walFrames splits a log into its frame payloads.
func walFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	n, err := replayFrames(data, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil || n != len(data) {
		t.Fatalf("log does not parse: %d of %d bytes, %v", n, len(data), err)
	}
	return out
}

// sameFrames requires two logs to hold the same frames, byte for byte.
func sameFrames(t *testing.T, name string, got, want []byte) {
	t.Helper()
	g, w := walFrames(t, got), walFrames(t, want)
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s frame %d:\n got %s\nwant %s", name, i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d frames, want %d", name, len(g), len(w))
	}
}

// snapshotFrames reads a streamed snapshot: its header frame and its record
// frames, each decoded.
func snapshotFrames(t *testing.T, data []byte) (hdr []byte, jobs []JobRecord, plans [][]CellRecord) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	var buf bytes.Buffer
	h, err := readSnapshotHeader(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr = append([]byte(nil), buf.Bytes()...)
	for i := 0; i < h.Jobs+h.Plans; i++ {
		payload, err := readFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if i < h.Jobs {
			jobs = append(jobs, JobRecord{})
			err = json.Unmarshal(payload, &jobs[i])
		} else {
			plans = append(plans, nil)
			err = json.Unmarshal(payload, &plans[i-h.Jobs])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return hdr, jobs, plans
}

// TestWALBytesMatchParent holds what walScript writes to the files in
// testdata/walbytes: both logs frame for frame and byte for byte, the
// snapshot's header frame byte for byte, and its job and cell records
// decoded to equal values. (The record frames are not byte-identical: the
// lease fields JobRecord and CellRecord share now sit together, so the JSON
// keys come in another order.)
func TestWALBytesMatchParent(t *testing.T) {
	dir := t.TempDir()
	wal0 := walScript(t, dir)
	read := func(dir, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sameFrames(t, "wal-0.log", wal0, read(walBytesDir, "wal-0.log"))
	sameFrames(t, "wal-1.log", read(dir, "wal-1.log"), read(walBytesDir, "wal-1.log"))

	gotHdr, gotJobs, gotPlans := snapshotFrames(t, read(dir, "snapshot-1.json"))
	wantHdr, wantJobs, wantPlans := snapshotFrames(t, read(walBytesDir, "snapshot-1.json"))
	if !bytes.Equal(gotHdr, wantHdr) {
		t.Fatalf("snapshot header:\n got %s\nwant %s", gotHdr, wantHdr)
	}
	if !reflect.DeepEqual(gotJobs, wantJobs) || !reflect.DeepEqual(gotPlans, wantPlans) {
		t.Fatalf("snapshot records:\n got %+v %+v\nwant %+v %+v", gotJobs, gotPlans, wantJobs, wantPlans)
	}
	if len(gotJobs) < 2 || len(gotPlans) == 0 {
		t.Fatalf("snapshot holds %d jobs and %d plans; the script should leave both", len(gotJobs), len(gotPlans))
	}
}
