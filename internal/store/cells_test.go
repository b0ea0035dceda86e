package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// planShardedJob submits a job, claims it as coordinator, and plans n cells.
func planShardedJob(t *testing.T, s *Store, coordinator string, n int) JobRecord {
	t.Helper()
	rec, err := s.SubmitJob("campaign", []byte(`{"grid":true}`))
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	claimed, ok, err := s.Claim(coordinator, time.Minute)
	if err != nil || !ok || claimed.ID != rec.ID {
		t.Fatalf("Claim = %+v, %v, %v", claimed, ok, err)
	}
	if err := s.PlanCells(rec.ID, n); err != nil {
		t.Fatalf("PlanCells: %v", err)
	}
	return claimed
}

func TestCellLifecycle(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 3)

	cells, ok, err := s.Cells(job.ID)
	if err != nil || !ok || len(cells) != 3 {
		t.Fatalf("Cells = %v, %v, %v", cells, ok, err)
	}
	for i, c := range cells {
		if c.State != StateQueued || c.Index != i || c.Job != job.ID {
			t.Fatalf("cell %d = %+v", i, c)
		}
	}

	// Claim → renew with progress → complete, chaining to the next cell so
	// all three drain through a single claim plus two batched follow-ups.
	cell, ok, err := s.ClaimCell("alpha", time.Minute, "")
	if err != nil || !ok || cell.Index != 0 {
		t.Fatalf("ClaimCell = %+v, %v, %v", cell, ok, err)
	}
	snap := &obs.ProgressSnapshot{TrialsUsed: 7, TrialBudget: 10}
	if err := s.RenewLease(job.ID, 0, "alpha", time.Minute, snap); err != nil {
		t.Fatalf("RenewCell: %v", err)
	}
	sum, ok, err := s.CellSummary(job.ID)
	if err != nil || !ok || sum.Total != 3 || sum.Done != 0 || sum.TrialsUsed != 7 || sum.TrialBudget != 10 {
		t.Fatalf("CellSummary = %+v, %v, %v", sum, ok, err)
	}
	for i := 0; i < 3; i++ {
		frame := []byte(fmt.Sprintf("frame-%d", i))
		next, more, err := s.CompleteCellAndClaim(job.ID, i, "alpha", frame, "", nil, true, "", time.Minute)
		if err != nil {
			t.Fatalf("CompleteCellAndClaim(%d): %v", i, err)
		}
		if i < 2 && (!more || next.Index != i+1) {
			t.Fatalf("chained claim after %d = %+v, %v", i, next, more)
		}
		if i == 2 && more {
			t.Fatalf("claimed a cell past the end of the plan: %+v", next)
		}
	}
	results, err := s.CellResults(job.ID)
	if err != nil || len(results) != 3 {
		t.Fatalf("CellResults = %v, %v", results, err)
	}
	for i, frame := range results {
		if want := fmt.Sprintf("frame-%d", i); string(frame) != want {
			t.Fatalf("result %d = %q, want %q", i, frame, want)
		}
	}
}

func TestPlanCellsIdempotentAndFenced(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 4)

	// Replanning with the same n (a restarted coordinator) is a no-op.
	if err := s.PlanCells(job.ID, 4); err != nil {
		t.Fatalf("idempotent replan: %v", err)
	}
	// A different n means two coordinators disagree on the grid: reject.
	if err := s.PlanCells(job.ID, 5); err == nil {
		t.Fatal("replan with a different cell count succeeded")
	}
	// Planning a terminal job is rejected.
	if err := s.Fail(job.ID, "alpha", "boom"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if err := s.PlanCells(job.ID, 4); err == nil {
		t.Fatal("planned cells for a failed job")
	}
}

func TestCellReclaimAfterExpiry(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 1)

	cell, ok, err := s.ClaimCell("alpha", time.Minute, "")
	if err != nil || !ok {
		t.Fatalf("ClaimCell = %v, %v", ok, err)
	}
	if err := s.RenewLease(job.ID, 0, "alpha", time.Minute, &obs.ProgressSnapshot{TrialsUsed: 3}); err != nil {
		t.Fatalf("RenewCell: %v", err)
	}
	// While the lease is live, no other replica can take the cell.
	if _, ok, _ := s.ClaimCell("beta", time.Minute, ""); ok {
		t.Fatal("claimed a cell under a live lease")
	}
	clock.Advance(2 * time.Minute)
	taken, ok, err := s.ClaimCell("beta", time.Minute, "")
	if err != nil || !ok || taken.Index != cell.Index {
		t.Fatalf("reclaim = %+v, %v, %v", taken, ok, err)
	}
	cells, _, _ := s.Cells(job.ID)
	if cells[0].Holder != "beta" || cells[0].Restarts != 1 {
		t.Fatalf("reclaimed cell = %+v", cells[0])
	}
	// The takeover restarts the cell: the loser's partial progress is gone.
	if cells[0].Progress != nil {
		t.Fatalf("progress survived reclaim: %+v", cells[0].Progress)
	}
	// The loser's renewal is fenced off.
	if err := s.RenewLease(job.ID, 0, "alpha", time.Minute, nil); err != ErrLeaseLost {
		t.Fatalf("stale renew = %v, want ErrLeaseLost", err)
	}
}

func TestCellResultFirstWriteWins(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 1)

	if _, ok, _ := s.ClaimCell("alpha", time.Minute, ""); !ok {
		t.Fatal("claim failed")
	}
	clock.Advance(2 * time.Minute)
	if _, ok, _ := s.ClaimCell("beta", time.Minute, ""); !ok {
		t.Fatal("reclaim failed")
	}
	// The reclaimed (revived) original holder finishes first: deterministic
	// execution makes its frame correct, so the store accepts it even though
	// beta holds the lease now.
	if _, _, err := s.CompleteCellAndClaim(job.ID, 0, "alpha", []byte("frame"), "", nil, false, "", 0); err != nil {
		t.Fatalf("revived holder's completion: %v", err)
	}
	// Beta's duplicate (byte-identical in real runs) is silently ignored.
	if _, _, err := s.CompleteCellAndClaim(job.ID, 0, "beta", []byte("frame"), "", nil, false, "", 0); err != nil {
		t.Fatalf("duplicate completion: %v", err)
	}
	cells, _, _ := s.Cells(job.ID)
	if cells[0].State != StateDone || cells[0].Holder != "alpha" || !bytes.Equal(cells[0].Result, []byte("frame")) {
		t.Fatalf("cell after duplicate completions = %+v", cells[0])
	}
}

func TestCellReleaseRequeuesImmediately(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 1)

	if _, ok, _ := s.ClaimCell("alpha", time.Hour, ""); !ok {
		t.Fatal("claim failed")
	}
	if err := s.ReleaseLease(job.ID, 0, "alpha"); err != nil {
		t.Fatalf("ReleaseCell: %v", err)
	}
	// No expiry wait: the released cell is claimable right now.
	cell, ok, err := s.ClaimCell("beta", time.Minute, "")
	if err != nil || !ok || cell.Index != 0 {
		t.Fatalf("claim after release = %+v, %v, %v", cell, ok, err)
	}
}

func TestTerminalJobDropsCells(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	job := planShardedJob(t, s, "alpha", 2)

	if _, ok, _ := s.ClaimCell("beta", time.Minute, ""); !ok {
		t.Fatal("claim failed")
	}
	if err := s.Complete(job.ID, "alpha", "report", nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if _, ok, _ := s.Cells(job.ID); ok {
		t.Fatal("terminal job still has a cell plan")
	}
	// A worker still executing one of the dropped cells is fenced off at its
	// next renewal, which is how it learns the job is over.
	if err := s.RenewLease(job.ID, 0, "beta", time.Minute, nil); err != ErrLeaseLost {
		t.Fatalf("renew after job completion = %v, want ErrLeaseLost", err)
	}
}

func TestCellsSurviveCrashReplayAndCompaction(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)
	job := planShardedJob(t, s, "alpha", 2)
	if _, ok, _ := s.ClaimCell("alpha", time.Minute, ""); !ok {
		t.Fatal("claim failed")
	}
	if _, _, err := s.CompleteCellAndClaim(job.ID, 0, "alpha", []byte("frame-0"), "", nil, false, "", 0); err != nil {
		t.Fatalf("complete: %v", err)
	}

	// A second handle on the same directory — another replica, or this one
	// after a crash — replays the WAL to the same cell state.
	s2 := openTestStore(t, dir, clock)
	cells, ok, err := s2.Cells(job.ID)
	if err != nil || !ok || len(cells) != 2 {
		t.Fatalf("replayed Cells = %v, %v, %v", cells, ok, err)
	}
	if cells[0].State != StateDone || string(cells[0].Result) != "frame-0" || cells[1].State != StateQueued {
		t.Fatalf("replayed cells = %+v", cells)
	}

	// Compaction carries a live job's cells into the snapshot generation.
	if err := s.Compact(8); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s3 := openTestStore(t, dir, clock)
	cells, ok, err = s3.Cells(job.ID)
	if err != nil || !ok || len(cells) != 2 || string(cells[0].Result) != "frame-0" {
		t.Fatalf("compacted Cells = %v, %v, %v", cells, ok, err)
	}
}

func TestChangeStampMovesOnAppend(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)

	before := s.Stamp()
	rec, err := s.SubmitJob("campaign", nil)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	submitted := s.Stamp()
	if submitted == before {
		t.Fatalf("stamp did not move across a submission: %v", submitted)
	}
	// A claim makes nothing claimable: the holder's own workers sleep on.
	if _, ok, err := s.Claim("alpha", time.Minute); err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if err := s.Renew(rec.ID, "alpha", time.Minute, nil); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if got := s.Stamp(); got != submitted {
		t.Fatalf("stamp moved across a claim and a renewal: %v -> %v", submitted, got)
	}
	// A wait on a stale stamp returns at once; on the current one it sleeps
	// out its fallback.
	start := time.Now()
	s.WaitChange(context.Background(), before, time.Minute)
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("WaitChange on a stale stamp blocked for %v", waited)
	}
	start = time.Now()
	s.WaitChange(context.Background(), submitted, 20*time.Millisecond)
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("WaitChange returned after %v with nothing to announce", waited)
	}
}

// TestLeaseKindDifferences holds, on one pool, what the one lease does
// differently for a job and for a cell: a job claim stamps Started and a job
// release clears it; a job keeps its progress through a takeover and a
// release, a cell drops it; each kind's claims and takeovers move its own
// counters. (Sync policy: TestCommitPointsSync. Ends: a job's is fenced by
// holder in TestExpiredLeaseReclaimAndFencing, a cell's result is
// first-write-wins in TestCellResultFirstWriteWins. Claim orders:
// TestStickyClaimOrdering and TestLeaseStateMachineProperties.)
func TestLeaseKindDifferences(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	counters := func() [4]uint64 {
		return [4]uint64{leaseClaims.Value(), leaseReclaims.Value(), cellClaims.Value(), cellReclaims.Value()}
	}
	moved := func(what string, before [4]uint64, want [4]uint64) {
		t.Helper()
		after := counters()
		for i := range after {
			if after[i]-before[i] != want[i] {
				t.Errorf("%s moved the job claim, job reclaim, cell claim, cell reclaim counters by %v, want %v",
					what, [4]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}, want)
				return
			}
		}
	}
	prog := &obs.ProgressSnapshot{TrialsUsed: 5}
	const ttl = time.Minute

	before := counters()
	job := planShardedJob(t, s, "alpha", 1)
	moved("a job claim", before, [4]uint64{1, 0, 0, 0})
	if job.Started == nil {
		t.Fatal("a job claim stamped no Started")
	}
	before = counters()
	if _, ok, _ := s.ClaimCell("alpha", ttl, ""); !ok {
		t.Fatal("cell claim failed")
	}
	moved("a cell claim", before, [4]uint64{0, 0, 1, 0})
	for cell := -1; cell <= 0; cell++ {
		if err := s.RenewLease(job.ID, cell, "alpha", ttl, prog); err != nil {
			t.Fatalf("RenewLease(%d): %v", cell, err)
		}
	}

	// Both leases lapse and beta takes both over.
	clock.Advance(ttl + time.Second)
	before = counters()
	if rec, ok, _ := s.Claim("beta", ttl); !ok || rec.Progress == nil || *rec.Progress != *prog {
		t.Fatalf("job after takeover = %+v (%v); its progress should survive", rec, ok)
	}
	moved("a job takeover", before, [4]uint64{1, 1, 0, 0})
	before = counters()
	if c, ok, _ := s.ClaimCell("beta", ttl, ""); !ok || c.Progress != nil {
		t.Fatalf("cell after takeover = %+v (%v); its progress should be dropped", c, ok)
	}
	moved("a cell takeover", before, [4]uint64{0, 0, 1, 1})

	// Released, the job is no longer started and keeps its progress; the
	// cell drops the progress it was renewed with.
	for cell := -1; cell <= 0; cell++ {
		if err := s.RenewLease(job.ID, cell, "beta", ttl, prog); err != nil {
			t.Fatalf("RenewLease(%d): %v", cell, err)
		}
		if err := s.ReleaseLease(job.ID, cell, "beta"); err != nil {
			t.Fatalf("ReleaseLease(%d): %v", cell, err)
		}
	}
	if j, _, _ := s.Job(job.ID); j.State != StateQueued || j.Started != nil || j.Progress == nil {
		t.Fatalf("released job = %+v, want queued, not started, with its progress", j)
	}
	if cells, _, _ := s.Cells(job.ID); cells[0].State != StateQueued || cells[0].Progress != nil {
		t.Fatalf("released cell = %+v, want queued without progress", cells[0])
	}
}
