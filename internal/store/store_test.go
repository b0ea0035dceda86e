package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a manually advanced clock shared by the Stores of a test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func openTestStore(t *testing.T, dir string, clock *fakeClock) *Store {
	t.Helper()
	s, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestJobLifecycle(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)

	rec, err := s.SubmitJob("table1", []byte(`{"study":"table1"}`))
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if rec.State != StateQueued || rec.ID == "" {
		t.Fatalf("submitted record = %+v", rec)
	}

	got, ok, err := s.Claim("r1", time.Second)
	if err != nil || !ok {
		t.Fatalf("Claim: ok=%v err=%v", ok, err)
	}
	if got.ID != rec.ID {
		t.Fatalf("claimed %s, want %s", got.ID, rec.ID)
	}

	snap := &obs.ProgressSnapshot{CellsDone: 3, CellsTotal: 10}
	if err := s.Renew(rec.ID, "r1", time.Second, snap); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if err := s.Complete(rec.ID, "r1", "report text", snap); err != nil {
		t.Fatalf("Complete: %v", err)
	}

	// A second handle on the same directory replays to the same view.
	s2 := openTestStore(t, dir, clock)
	j, ok, err := s2.Job(rec.ID)
	if err != nil || !ok {
		t.Fatalf("second handle Job: ok=%v err=%v", ok, err)
	}
	if j.State != StateDone || j.Output != "report text" || j.Holder != "r1" {
		t.Fatalf("second handle sees %+v", j)
	}
	if j.Progress == nil || j.Progress.CellsDone != 3 {
		t.Fatalf("progress not persisted: %+v", j.Progress)
	}
	if j.Started == nil || j.Ended == nil {
		t.Fatalf("timestamps missing: %+v", j)
	}
}

func TestExpiredLeaseReclaimAndFencing(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)

	rec, err := s.SubmitJob("fig1", nil)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if _, ok, err := s.Claim("r1", time.Second); err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}

	// While the lease is live, nobody else can claim.
	if _, ok, _ := s.Claim("r2", time.Second); ok {
		t.Fatal("r2 claimed a job with a live lease")
	}

	clock.Advance(2 * time.Second) // lease expires

	got, ok, err := s.Claim("r2", time.Second)
	if err != nil || !ok {
		t.Fatalf("reclaim: ok=%v err=%v", ok, err)
	}
	if got.ID != rec.ID {
		t.Fatalf("reclaimed %s, want %s", got.ID, rec.ID)
	}

	// The old holder's writes are fenced off.
	if err := s.Renew(rec.ID, "r1", time.Second, nil); err != ErrLeaseLost {
		t.Fatalf("stale Renew err = %v, want ErrLeaseLost", err)
	}
	if err := s.Complete(rec.ID, "r1", "stale result", nil); err != ErrLeaseLost {
		t.Fatalf("stale Complete err = %v, want ErrLeaseLost", err)
	}

	// The new holder finishes; the takeover is visible as a restart.
	if err := s.Complete(rec.ID, "r2", "fresh result", nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	j, _, _ := s.Job(rec.ID)
	if j.Output != "fresh result" || j.Holder != "r2" || j.Restarts != 1 {
		t.Fatalf("after takeover: %+v", j)
	}
}

// Sticky reassignment: a returning holder gets its own expired jobs before
// anything else, and a different replica prefers never-held work.
func TestStickyClaimOrdering(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)

	first, _ := s.SubmitJob("a", nil)
	second, _ := s.SubmitJob("b", nil)

	// r1 claims the oldest job, then its lease expires.
	got, ok, _ := s.Claim("r1", time.Second)
	if !ok || got.ID != first.ID {
		t.Fatalf("r1 claimed %v, want %s", got.ID, first.ID)
	}
	clock.Advance(2 * time.Second)

	// Both jobs are claimable now. r1 must take back its own job even
	// though the untouched one exists; submission order alone would also
	// pick first, so check the reverse too: r2 prefers the never-held job
	// only through expiry ordering — the zero expiry of the never-leased
	// job sorts before r1's expired lease.
	got, ok, _ = s.Claim("r1", time.Second)
	if !ok || got.ID != first.ID {
		t.Fatalf("sticky claim got %v, want %s", got.ID, first.ID)
	}
	got, ok, _ = s.Claim("r2", time.Second)
	if !ok || got.ID != second.ID {
		t.Fatalf("r2 claimed %v, want %s", got.ID, second.ID)
	}
}

func TestReleaseRequeuesImmediately(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)

	rec, _ := s.SubmitJob("a", nil)
	if _, ok, _ := s.Claim("r1", time.Hour); !ok {
		t.Fatal("claim failed")
	}
	if err := s.ReleaseLease(rec.ID, -1, "r1"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	j, _, _ := s.Job(rec.ID)
	if j.State != StateQueued || j.Started != nil {
		t.Fatalf("after release: %+v", j)
	}
	// No clock advance needed: a released job is immediately claimable.
	got, ok, _ := s.Claim("r2", time.Second)
	if !ok || got.ID != rec.ID {
		t.Fatalf("claim after release: ok=%v id=%v", ok, got.ID)
	}
	// The release keeps the old holder on record (for sticky preference),
	// but a different replica picking the job up is no takeover.
	if got.Restarts != 0 || got.Holder != "r2" {
		t.Fatalf("claim after release: restarts=%d holder=%s, want 0/r2", got.Restarts, got.Holder)
	}
}

// TestHandBacksAreNoTakeovers passes a job and a cell between three holders
// by graceful release, more often than the restart cap allows takeovers: a
// release is no takeover, so neither is poisoned and neither counts a restart.
func TestHandBacksAreNoTakeovers(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)
	rec, _ := s.SubmitJob("a", nil)
	for i := 0; i <= MaxRestarts+1; i++ {
		holder := quickHolders[i%len(quickHolders)]
		if got, ok, err := s.Claim(holder, time.Hour); err != nil || !ok || got.ID != rec.ID {
			t.Fatalf("round %d: claim by %s = %+v, %v, %v", i, holder, got, ok, err)
		}
		if err := s.ReleaseLease(rec.ID, -1, holder); err != nil {
			t.Fatalf("round %d: Release: %v", i, err)
		}
	}
	if _, ok, err := s.Claim("r1", time.Hour); err != nil || !ok {
		t.Fatalf("claim after the hand-backs: ok=%v err=%v", ok, err)
	}
	if j, _, _ := s.Job(rec.ID); j.State != StateRunning || j.Restarts != 0 {
		t.Fatalf("job after the hand-backs = %+v, want running with 0 restarts", j)
	}

	if err := s.PlanCells(rec.ID, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= MaxRestarts+1; i++ {
		holder := quickHolders[i%len(quickHolders)]
		if _, ok, err := s.ClaimCell(holder, time.Hour, ""); err != nil || !ok {
			t.Fatalf("round %d: cell claim by %s: ok=%v err=%v", i, holder, ok, err)
		}
		if err := s.ReleaseLease(rec.ID, 0, holder); err != nil {
			t.Fatalf("round %d: ReleaseCell: %v", i, err)
		}
	}
	if _, ok, err := s.ClaimCell("r1", time.Hour, ""); err != nil || !ok {
		t.Fatalf("cell claim after the hand-backs: ok=%v err=%v", ok, err)
	}
	if cells, _, _ := s.Cells(rec.ID); cells[0].State != StateRunning || cells[0].Restarts != 0 {
		t.Fatalf("cell after the hand-backs = %+v, want running with 0 restarts", cells[0])
	}
}

func TestHeartbeatAndReplicas(t *testing.T) {
	clock := newFakeClock()
	s := openTestStore(t, t.TempDir(), clock)

	if err := s.Heartbeat("r1", time.Second); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if err := s.Heartbeat("r2", 10*time.Second); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	clock.Advance(2 * time.Second)
	reps, err := s.Replicas()
	if err != nil {
		t.Fatalf("Replicas: %v", err)
	}
	if len(reps) != 2 || reps[0].Name != "r1" || reps[1].Name != "r2" {
		t.Fatalf("replicas = %+v", reps)
	}
	if reps[0].Live || !reps[1].Live {
		t.Fatalf("liveness = %v/%v, want false/true", reps[0].Live, reps[1].Live)
	}
}

// Replay equivalence under compaction: the view of the store after Compact
// matches the pre-compaction view for every surviving job, from a fresh
// handle that never saw the original WAL.
func TestCompactionReplayEquivalence(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)

	// A mix of states: finished jobs beyond retention, a running job, a
	// queued job.
	for i := 0; i < 6; i++ {
		rec, err := s.SubmitJob("k", []byte(`{"n":1}`))
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		if i < 4 {
			if _, ok, _ := s.Claim("r1", time.Second); !ok {
				t.Fatal("claim failed")
			}
			if err := s.Complete(rec.ID, "r1", "out", nil); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
	}
	if _, ok, _ := s.Claim("r1", time.Hour); !ok { // 5th job now running
		t.Fatal("claim failed")
	}

	before, err := s.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}

	if err := s.Compact(2); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	// Retention: 4 finished, keep the newest 2, plus running + queued.
	after, err := s.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(after) != 4 {
		t.Fatalf("after compaction: %d jobs, want 4", len(after))
	}
	surviving := make(map[string]JobRecord)
	for _, j := range after {
		surviving[j.ID] = j
	}
	for _, b := range before[2:] { // oldest two finished jobs were pruned
		got, ok := surviving[b.ID]
		if !ok {
			t.Fatalf("job %s lost in compaction", b.ID)
		}
		if !reflect.DeepEqual(jsonRound(t, got), jsonRound(t, b)) {
			t.Fatalf("job %s changed across compaction:\n got %+v\nwant %+v", b.ID, got, b)
		}
	}

	// The WAL restarted empty and the old generation's files are gone.
	if size, _ := s.WALSize(); size != 0 {
		t.Fatalf("post-compaction WAL size = %d, want 0", size)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); !os.IsNotExist(err) {
		t.Fatalf("old WAL still present: %v", err)
	}

	// A fresh handle — replaying only snapshot + empty WAL — sees the same
	// surviving jobs, and the pool still works (ongoing sequence numbers
	// never collide with pruned IDs).
	s2 := openTestStore(t, dir, clock)
	fresh, err := s2.Jobs()
	if err != nil {
		t.Fatalf("fresh Jobs: %v", err)
	}
	if !reflect.DeepEqual(jsonRound(t, fresh), jsonRound(t, after)) {
		t.Fatalf("fresh handle replay differs:\n got %+v\nwant %+v", fresh, after)
	}
	rec, err := s2.SubmitJob("k2", nil)
	if err != nil {
		t.Fatalf("post-compaction submit: %v", err)
	}
	for _, j := range fresh {
		if j.ID == rec.ID {
			t.Fatalf("new job ID %s collides with a survivor", rec.ID)
		}
	}
}

// jsonRound normalises a value through JSON so time.Time monotonic-clock
// readings and map iteration cannot produce spurious diffs.
func jsonRound(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// A torn tail on disk — garbage after the last synced frame — must not
// poison the log: a new handle replays up to the tear, and the next append
// heals it by truncation.
func TestTornTailHealing(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	s := openTestStore(t, dir, clock)
	if _, err := s.SubmitJob("a", nil); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	s.Close()

	wal := filepath.Join(dir, "wal-0.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write([]byte("\x42garbage-from-a-crashed-writer")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	f.Close()

	s2 := openTestStore(t, dir, clock)
	jobs, err := s2.Jobs()
	if err != nil {
		t.Fatalf("Jobs over torn tail: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	if _, err := s2.SubmitJob("b", nil); err != nil {
		t.Fatalf("append over torn tail: %v", err)
	}

	// After the healing append, a third handle sees both jobs — the
	// garbage is gone from the file, not just skipped.
	s3 := openTestStore(t, dir, clock)
	jobs, err = s3.Jobs()
	if err != nil {
		t.Fatalf("Jobs after heal: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("after heal: %d jobs, want 2", len(jobs))
	}
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if strings.Contains(string(data), "garbage-from-a-crashed-writer") {
		t.Fatal("torn tail still present in the WAL after append")
	}
}

// Cross-handle visibility without reopening: two live handles interleave
// writes, each seeing the other's through the shared log.
func TestTwoHandlesInterleave(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	a := openTestStore(t, dir, clock)
	b := openTestStore(t, dir, clock)

	rec, err := a.SubmitJob("k", nil)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	got, ok, err := b.Claim("rb", time.Second)
	if err != nil || !ok || got.ID != rec.ID {
		t.Fatalf("b.Claim: ok=%v err=%v id=%v", ok, err, got.ID)
	}
	if err := b.Complete(rec.ID, "rb", "done by b", nil); err != nil {
		t.Fatalf("b.Complete: %v", err)
	}
	j, ok, err := a.Job(rec.ID)
	if err != nil || !ok {
		t.Fatalf("a.Job: ok=%v err=%v", ok, err)
	}
	if j.State != StateDone || j.Output != "done by b" {
		t.Fatalf("a sees %+v", j)
	}

	// And across a compaction by one handle, the other follows the
	// generation flip.
	if err := b.Compact(1); err != nil {
		t.Fatalf("b.Compact: %v", err)
	}
	rec2, err := a.SubmitJob("k2", nil)
	if err != nil {
		t.Fatalf("a.SubmitJob after b's compaction: %v", err)
	}
	j2, ok, err := b.Job(rec2.ID)
	if err != nil || !ok {
		t.Fatalf("b.Job after gen flip: ok=%v err=%v", ok, err)
	}
	if j2.State != StateQueued {
		t.Fatalf("b sees %+v", j2)
	}
}

// TestRestartCapPoisons drives takeovers on a simulated clock: a job and a
// cell each survive MaxRestarts takeovers, and the claim that would take
// either over once more fails it as poisoned instead — whether the claim is a
// plain one or chained onto a cell's completion. The handle without a
// directory, the file-backed one and a replay of its directory end in the
// same state.
func TestRestartCapPoisons(t *testing.T) {
	const ttl = time.Second
	poison := func(t *testing.T, s *Store, clock *fakeClock) {
		// takeOver claims the same work under a new holder after the last
		// lease lapsed, MaxRestarts times.
		takeOver := func(claim func(holder string) (bool, error)) {
			t.Helper()
			for i := 0; i <= MaxRestarts; i++ {
				clock.Advance(2 * ttl)
				if ok, err := claim(quickHolders[i%len(quickHolders)]); err != nil || !ok {
					t.Fatalf("takeover %d: ok=%v err=%v", i, ok, err)
				}
			}
			clock.Advance(2 * ttl)
		}
		next := quickHolders[(MaxRestarts+1)%len(quickHolders)]

		doomed, err := s.SubmitJob("doomed", nil)
		if err != nil {
			t.Fatal(err)
		}
		takeOver(func(holder string) (bool, error) {
			_, ok, err := s.Claim(holder, ttl)
			return ok, err
		})
		if rec, ok, err := s.Claim(next, time.Hour); err != nil || ok {
			t.Fatalf("claim past the cap = %+v, %v, %v; want none", rec, ok, err)
		}
		j, _, _ := s.Job(doomed.ID)
		if j.State != StateFailed || !strings.HasPrefix(j.Error, "poisoned: ") || j.Restarts != MaxRestarts {
			t.Fatalf("job past the cap = %+v, want failed as poisoned after %d restarts", j, MaxRestarts)
		}

		// Two cells of a healthy job: cell 0 stays with its first holder,
		// cell 1 is taken over until the completion of cell 0 would chain
		// into one takeover too many.
		healthy, err := s.SubmitJob("healthy", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Claim(next, time.Hour); err != nil || !ok {
			t.Fatalf("Claim = %v, %v", ok, err)
		}
		if err := s.PlanCells(healthy.ID, 2); err != nil {
			t.Fatal(err)
		}
		if c, ok, err := s.ClaimCell("keeper", time.Hour, ""); err != nil || !ok || c.Index != 0 {
			t.Fatalf("ClaimCell = %+v, %v, %v; want cell 0", c, ok, err)
		}
		takeOver(func(holder string) (bool, error) {
			c, ok, err := s.ClaimCell(holder, ttl, "")
			if ok && c.Index != 1 {
				t.Fatalf("%s claimed cell %d, want 1", holder, c.Index)
			}
			return ok, err
		})
		if _, ok, err := s.CompleteCellAndClaim(healthy.ID, 0, "keeper", []byte("0"), "", nil, true, "", ttl); err != nil || ok {
			t.Fatalf("chained claim past the cap: ok=%v err=%v; want no claim", ok, err)
		}
		sum, _, _ := s.CellSummary(healthy.ID)
		if sum.Done != 1 || sum.Failed != 1 || sum.FailedCell != 1 || !strings.HasPrefix(sum.Err, "poisoned: ") {
			t.Fatalf("cells past the cap = %+v, want cell 1 failed as poisoned", sum)
		}
		if cells, _, _ := s.Cells(healthy.ID); cells[1].Restarts != MaxRestarts {
			t.Errorf("poisoned cell restarts = %d, want %d", cells[1].Restarts, MaxRestarts)
		}
	}
	observe := func(s *Store) string {
		jobs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		cells, _, err := s.Cells(jobs[len(jobs)-1].ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal([]any{jobs, cells})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	memClock, fileClock := newFakeClock(), newFakeClock()
	mem, dir := NewMemory(Options{Now: memClock.Now}), t.TempDir()
	file := openTestStore(t, dir, fileClock)
	t.Run("log-less", func(t *testing.T) { poison(t, mem, memClock) })
	t.Run("file-backed", func(t *testing.T) { poison(t, file, fileClock) })
	want := observe(mem)
	if got := observe(file); got != want {
		t.Errorf("file-backed handle ends in\n%s\nthe handle without a directory in\n%s", got, want)
	}
	if got := observe(openTestStore(t, dir, fileClock)); got != want {
		t.Errorf("replayed directory ends in\n%s\nthe handle without a directory in\n%s", got, want)
	}
}
