package store

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The probe an idle handle runs every millisecond is one fstat: it takes no
// lock and allocates nothing.
func TestWakeProbeAllocatesNothing(t *testing.T) {
	s := openTestStore(t, t.TempDir(), newFakeClock())
	if _, err := s.SubmitJob("k", nil); err != nil {
		t.Fatal(err)
	}
	moved := false
	if allocs := testing.AllocsPerRun(1000, func() { moved = moved || s.logMoved() }); allocs != 0 {
		t.Errorf("probe allocates %v objects per run, want 0", allocs)
	}
	if moved {
		t.Error("probe reports movement on a log only this handle wrote")
	}
}

// waitTook runs one WaitChange and reports how long it blocked.
func waitTook(s *Store, since ChangeStamp, fallback time.Duration) time.Duration {
	start := time.Now()
	s.WaitChange(context.Background(), since, fallback)
	return time.Since(start)
}

// A handle without a directory wakes its waiters on its own appends and has
// nothing else to listen for: no prober runs while they wait. Its log never
// grows, so CompactPast prunes whenever it is asked.
func TestWakeLogLessHandleNeedsNoProber(t *testing.T) {
	s := NewMemory(Options{})
	woke := make(chan time.Duration)
	stamp := s.Stamp()
	go func() {
		begin := time.Now()
		s.WaitChange(context.Background(), stamp, time.Minute)
		woke <- time.Since(begin)
	}()
	waiting := func() (n int, probing bool) {
		s.waiters.mu.Lock()
		defer s.waiters.mu.Unlock()
		return s.waiters.n, s.waiters.probing
	}
	for n, _ := waiting(); n == 0; n, _ = waiting() {
		time.Sleep(time.Millisecond)
	}
	if _, probing := waiting(); probing {
		t.Error("a prober runs on a handle that has no log to probe")
	}
	rec, err := s.SubmitJob("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if took := <-woke; took > 10*time.Second {
		t.Errorf("waiter woke after %v, want it woken by the submission", took)
	}
	for i := 0; i < 2; i++ {
		if i > 0 {
			if rec, err = s.SubmitJob("k", nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok, err := s.Claim("", time.Minute); err != nil || !ok {
			t.Fatalf("Claim: ok=%v err=%v", ok, err)
		}
		if err := s.Complete(rec.ID, "", "out", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.CompactPast(1<<20, 1); err != nil {
			t.Fatal(err)
		}
	}
	if jobs, _ := s.Jobs(); len(jobs) != 1 || jobs[0].ID != rec.ID {
		t.Errorf("after two finished jobs and retain 1: %+v, want only %s", jobs, rec.ID)
	}
	if size, err := s.WALSize(); size != 0 || err != nil {
		t.Errorf("WALSize = %d, %v; want 0", size, err)
	}
}

// A waiter on one handle learns of another handle's submission from the
// prober, in about a millisecond, with the fallback nowhere near; a claim or
// a renewal through the other handle is replayed but wakes nobody; and a
// compaction by the other handle — which leaves the waiter's log unlinked and
// silent — is noticed too.
func TestWakeOnForeignAppend(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	b := openTestStore(t, dir, clock)
	const fallback = 10 * time.Second

	after := func(d time.Duration, fn func()) {
		go func() {
			time.Sleep(d)
			fn()
		}()
	}

	stamp := b.Stamp()
	var rec JobRecord
	submitted := make(chan struct{})
	after(20*time.Millisecond, func() {
		rec, _ = a.SubmitJob("k", nil)
		close(submitted)
	})
	if took := waitTook(b, stamp, fallback); took > time.Second {
		t.Fatalf("waiter slept %v through another handle's submission", took)
	}
	<-submitted
	if got, ok, err := b.Claim("beta", time.Minute); err != nil || !ok || got.ID != rec.ID {
		t.Fatalf("woken handle's Claim = %+v, %v, %v", got, ok, err)
	}

	// a sees b's claim and renewals without any of its waiters stirring.
	stamp = a.Stamp()
	after(10*time.Millisecond, func() { _ = b.Renew(rec.ID, "beta", time.Minute, nil) })
	if took := waitTook(a, stamp, 80*time.Millisecond); took < 80*time.Millisecond {
		t.Errorf("a claim and a renewal on the other handle woke a waiter after %v", took)
	}
	if j, _, _ := a.Job(rec.ID); j.Holder != "beta" {
		t.Fatalf("a's view of the job = %+v", j)
	}
	if a.Stamp() != stamp {
		t.Error("replaying a claim and a renewal moved the stamp")
	}

	// The job's end is news — a status watcher on a waits for exactly that.
	after(10*time.Millisecond, func() { _ = b.Complete(rec.ID, "beta", "out", nil) })
	if took := waitTook(a, stamp, fallback); took > time.Second {
		t.Fatalf("waiter slept %v through the job's terminal record", took)
	}
	if j, _, _ := a.Job(rec.ID); j.State != StateDone {
		t.Fatalf("a's view after the wake = %+v", j)
	}

	// A compaction elsewhere: the waiter's log never grows again.
	stamp = a.Stamp()
	after(10*time.Millisecond, func() { _ = b.Compact(8) })
	if took := waitTook(a, stamp, fallback); took > time.Second {
		t.Fatalf("waiter slept %v through a compaction", took)
	}
	if _, err := a.Jobs(); err != nil || a.gen != 1 {
		t.Fatalf("after the compaction a is at generation %d (%v)", a.gen, err)
	}
}

// An expired lease writes no frame: only the fallback deadline ends the wait,
// and the claim that follows succeeds.
func TestWakeFallbackCoversLeaseExpiry(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	rec, err := s.SubmitJob("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Claim("dead", time.Second); !ok {
		t.Fatal("claim failed")
	}
	stamp := s.Stamp()
	if _, ok, _ := s.Claim("live", time.Second); ok {
		t.Fatal("claimed a job under a live lease")
	}
	clock.Advance(2 * time.Second)
	if took := waitTook(s, stamp, 30*time.Millisecond); took < 30*time.Millisecond {
		t.Fatalf("wait ended after %v; nothing announces an expiry", took)
	}
	if got, ok, err := s.Claim("live", time.Second); err != nil || !ok || got.ID != rec.ID {
		t.Fatalf("Claim after the expiry = %+v, %v, %v", got, ok, err)
	}
}

// Many waiters, many writers, and a Close in the middle of it: for the race
// detector, and to see that the prober goes away with its last waiter.
func TestWakeConcurrentWaiters(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	b := openTestStore(t, dir, clock)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 4)
	for w := 0; w < 4; w++ {
		go func() {
			wakes := 0
			for ctx.Err() == nil {
				stamp := b.Stamp()
				_, _, _ = b.Claim("beta", time.Minute)
				b.WaitChange(ctx, stamp, 50*time.Millisecond)
				wakes++
			}
			done <- wakes
		}()
	}
	for i := 0; i < 40; i++ {
		if _, err := a.SubmitJob("k", nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := a.Compact(4); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every submission ends up claimed by the waiters.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs, err := a.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		queued := 0
		for _, j := range jobs {
			if j.State == StateQueued {
				queued++
			}
		}
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still queued", queued)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	for w := 0; w < 4; w++ {
		<-done
	}
	for i := 0; ; i++ {
		b.waiters.mu.Lock()
		probing := b.waiters.probing
		b.waiters.mu.Unlock()
		if !probing {
			break
		}
		if i > 1000 {
			t.Fatal("prober outlived its last waiter")
		}
		time.Sleep(time.Millisecond)
	}
}

// The durability contract, call by call: what a client was promised is on the
// device when the call returns; cell frames are not synced on their own, and
// become durable with the next synced frame.
func TestCommitPointsSync(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	synced := func(what string) {
		t.Helper()
		if s.syncedOff != s.walOff {
			t.Errorf("%s returned with %d of %d log bytes synced", what, s.syncedOff, s.walOff)
		}
	}
	unsynced := func(what string, before int64) {
		t.Helper()
		if s.walOff == before {
			t.Errorf("%s wrote nothing", what)
		}
		if s.syncedOff != before {
			t.Errorf("%s moved the synced offset %d -> %d; cell frames do not sync", what, before, s.syncedOff)
		}
	}

	rec, err := s.SubmitJob("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	synced("SubmitJob")
	if _, ok, _ := s.Claim("alpha", time.Minute); !ok {
		t.Fatal("claim failed")
	}
	synced("Claim")
	if err := s.Renew(rec.ID, "alpha", time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	synced("Renew")
	if err := s.PlanCells(rec.ID, 3); err != nil {
		t.Fatal(err)
	}
	synced("PlanCells")

	at := s.syncedOff
	if _, ok, _ := s.ClaimCell("alpha", time.Minute, ""); !ok {
		t.Fatal("cell claim failed")
	}
	unsynced("ClaimCell", at)
	mark := s.walOff
	if err := s.RenewLease(rec.ID, 0, "alpha", time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CompleteCellAndClaim(rec.ID, 0, "alpha", []byte("f0"), "", nil, true, "", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseLease(rec.ID, 1, "alpha"); err != nil {
		t.Fatal(err)
	}
	if s.walOff == mark {
		t.Error("cell renewal, completion and release wrote nothing")
	}
	unsynced("RenewCell, CompleteCellAndClaim, ReleaseCell", at)

	if err := s.ReleaseLease(rec.ID, -1, "alpha"); err != nil {
		t.Fatal(err)
	}
	synced("Release") // and with it every cell frame before it
	if _, ok, _ := s.Claim("alpha", time.Minute); !ok {
		t.Fatal("reclaim failed")
	}
	if err := s.Complete(rec.ID, "alpha", "out", nil); err != nil {
		t.Fatal(err)
	}
	synced("Complete")
	if err := s.Heartbeat("alpha", time.Minute); err != nil {
		t.Fatal(err)
	}
	synced("Heartbeat")
}

// powerLossJob is one sharded job of the power-loss simulation.
type powerLossJob struct {
	id       string
	cells    int
	sawState string // the last state a reader saw
	sawOut   string
}

// cellFrame is the deterministic result of one cell; report the merge of a
// job's frames in plan order.
func cellFrame(job string, cell int) []byte { return []byte(fmt.Sprintf("%s#%d", job, cell)) }

func report(frames [][]byte) string {
	parts := make([]string, len(frames))
	for i, f := range frames {
		parts[i] = string(f)
	}
	return strings.Join(parts, ",")
}

// TestPowerLossSimulated drives two handles — two replicas, each coordinating
// jobs and running cells, cell claims and completions in separate steps —
// through sharded jobs, and at random points cuts the power: both handles
// close, the log is cut back to the last offset either of them synced plus a
// random fragment of what followed (a prefix of it, sometimes with a hole
// where a block never reached the device), both reopen and the leases run
// out. Whatever the cut:
//
//   - every job whose SubmitJob returned is there,
//   - no job a reader saw finished is unfinished,
//   - the cluster finishes every job, and its report is the fault-free one,
//   - every cell ends up with exactly one result in the log.
func TestPowerLossSimulated(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { powerLossRun(t, seed) })
	}
}

func powerLossRun(t *testing.T, seed int64) {
	const totalJobs, ttl = 8, time.Minute
	rng := rand.New(rand.NewSource(seed))
	clock := newFakeClock()
	dir := t.TempDir()
	replicas := []string{"alpha", "beta"}
	open := func() []*Store {
		hs := make([]*Store, len(replicas))
		for i := range hs {
			h, err := Open(dir, Options{Now: clock.Now})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			hs[i] = h
		}
		return hs
	}
	handles := open()
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()

	var jobs []*powerLossJob
	byID := map[string]*powerLossJob{}
	// What each replica remembers between steps, gone with the power.
	coordinating := make([]string, len(replicas))
	holding := make([]*CellRecord, len(replicas))
	durable := int64(0) // log bytes on the device before the handles opened
	crashes := 0

	read := func(h *Store, j *powerLossJob) {
		rec, ok, err := h.Job(j.id)
		if err != nil || !ok {
			t.Fatalf("job %s, whose submission returned, is gone: ok=%v err=%v", j.id, ok, err)
		}
		if terminal(j.sawState) && (rec.State != j.sawState || rec.Output != j.sawOut) {
			t.Fatalf("job %s was seen %s with %q, is now %s with %q", j.id, j.sawState, j.sawOut, rec.State, rec.Output)
		}
		j.sawState, j.sawOut = rec.State, rec.Output
	}

	cutPower := func() {
		crashes++
		for _, h := range handles {
			durable = max(durable, h.syncedOff)
			h.Close()
		}
		wal := filepath.Join(dir, "wal-0.log")
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		lost := data[durable:]
		kept := append([]byte(nil), lost[:rng.Intn(len(lost)+1)]...)
		if len(kept) > 0 && rng.Intn(2) == 0 {
			from := rng.Intn(len(kept))
			for i := from; i < min(len(kept), from+1+rng.Intn(64)); i++ {
				kept[i] = 0
			}
		}
		if err := os.WriteFile(wal, append(data[:durable:durable], kept...), 0o644); err != nil {
			t.Fatal(err)
		}
		handles = open()
		// What replays of the cut log is on the device; the rest of the
		// fragment goes with the next append.
		durable = handles[0].walOff
		for i := range replicas {
			coordinating[i], holding[i] = "", nil
		}
		clock.Advance(ttl + time.Second)
		for _, j := range jobs {
			read(handles[rng.Intn(len(handles))], j)
		}
	}

	// step is one turn of replica r's claim loop.
	step := func(r int) {
		h, name := handles[r], replicas[r]
		if c := holding[r]; c != nil { // finish the cell claimed last turn
			holding[r] = nil
			if _, _, err := h.CompleteCellAndClaim(c.Job, c.Index, name, cellFrame(c.Job, c.Index), "", nil, false, "", 0); err != nil {
				// The job finished without this cell's holder; nothing to do.
				return
			}
			return
		}
		if id := coordinating[r]; id != "" {
			sum, ok, err := h.CellSummary(id)
			if err != nil {
				t.Fatal(err)
			}
			if ok && sum.Done == sum.Total {
				frames, err := h.CellResults(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Complete(id, name, report(frames), nil); err != nil && err != ErrLeaseLost {
					t.Fatal(err)
				}
				coordinating[r] = ""
				return
			}
			if err := h.Renew(id, name, ttl, nil); err == ErrLeaseLost {
				coordinating[r] = ""
				return
			}
		} else if rec, ok, err := h.Claim(name, ttl); err != nil {
			t.Fatal(err)
		} else if ok {
			coordinating[r] = rec.ID
			if err := h.PlanCells(rec.ID, byID[rec.ID].cells); err != nil {
				t.Fatal(err)
			}
			return
		}
		if c, ok, err := h.ClaimCell(name, ttl, ""); err != nil {
			t.Fatal(err)
		} else if ok {
			holding[r] = &c
		}
	}

	for steps := 0; ; steps++ {
		if steps > 20000 {
			t.Fatalf("cluster did not finish: %+v", jobs)
		}
		finished := 0
		for _, j := range jobs {
			if terminal(j.sawState) {
				finished++
			}
		}
		if finished == totalJobs {
			break
		}
		switch roll := rng.Intn(100); {
		case roll < 8 && len(jobs) < totalJobs:
			h := handles[rng.Intn(len(handles))]
			rec, err := h.SubmitJob("toy", nil)
			if err != nil {
				t.Fatal(err)
			}
			j := &powerLossJob{id: rec.ID, cells: 2 + rng.Intn(4), sawState: rec.State}
			jobs, byID[j.id] = append(jobs, j), j
		case roll < 14:
			cutPower()
		case roll < 30 && len(jobs) > 0:
			read(handles[rng.Intn(len(handles))], jobs[rng.Intn(len(jobs))])
		default:
			step(rng.Intn(len(replicas)))
		}
	}
	if crashes == 0 {
		t.Fatal("the run never lost power; the seed tests nothing")
	}

	// Byte for byte the fault-free report, and exactly one result per cell.
	results := map[string]int{}
	data, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := replayFrames(data, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Type == recCellDone {
			results[fmt.Sprintf("%s#%d", rec.Job, rec.Cell)]++
		}
		return nil
	})
	if err != nil || consumed != len(data) {
		t.Fatalf("final log: %d of %d bytes replay, err %v", consumed, len(data), err)
	}
	for _, j := range jobs {
		frames := make([][]byte, j.cells)
		for c := range frames {
			frames[c] = cellFrame(j.id, c)
			if n := results[string(frames[c])]; n != 1 {
				t.Errorf("cell %s has %d results in the log, want exactly 1", frames[c], n)
			}
		}
		if j.sawState != StateDone || j.sawOut != report(frames) {
			t.Errorf("job %s ended %s with %q, want done with %q", j.id, j.sawState, j.sawOut, report(frames))
		}
	}
}
