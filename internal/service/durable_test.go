package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

func openServiceStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func waitJobState(t *testing.T, m *JobManager, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, ok := m.Get(id)
		if ok {
			for _, s := range want {
				if status.State == s {
					return status
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, _ := m.Get(id)
	t.Fatalf("job %s stuck in %q, want one of %v", id, status.State, want)
	return JobStatus{}
}

func TestDurableManagerRunsPayload(t *testing.T) {
	dir := t.TempDir()
	st := openServiceStore(t, dir)

	runner := func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
		prog.AddCellsTotal(2)
		prog.AddCellsDone(2)
		return "ran " + kind + " with " + string(payload), nil
	}
	m := NewJobManager(2, 64, 8, st, "alpha", time.Second, runWhole(runner))
	defer m.Shutdown(context.Background())

	if !m.Durable() || m.Replica() != "alpha" {
		t.Fatalf("Durable()=%v Replica()=%q", m.Durable(), m.Replica())
	}
	status, err := m.SubmitPayload("kind-x", json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatalf("SubmitPayload: %v", err)
	}
	if status.State != JobQueued {
		t.Fatalf("submitted state = %q", status.State)
	}

	final := waitJobState(t, m, status.ID, JobDone)
	if final.Output != `ran kind-x with {"n":1}` {
		t.Fatalf("output = %q", final.Output)
	}
	if final.Replica != "alpha" || final.Restarts != 0 {
		t.Fatalf("replica/restarts = %q/%d", final.Replica, final.Restarts)
	}
	if final.Progress == nil || final.Progress.CellsDone != 2 {
		t.Fatalf("final progress = %+v", final.Progress)
	}
	if len(m.List()) != 1 {
		t.Fatalf("List() = %+v", m.List())
	}
}

func TestDurableManagerFailedJob(t *testing.T) {
	st := openServiceStore(t, t.TempDir())
	runner := func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
		return "", errors.New("deliberate failure")
	}
	m := NewJobManager(1, 64, 8, st, "alpha", time.Second, runWhole(runner))
	defer m.Shutdown(context.Background())

	status, err := m.SubmitPayload("bad", nil)
	if err != nil {
		t.Fatalf("SubmitPayload: %v", err)
	}
	final := waitJobState(t, m, status.ID, JobFailed)
	if final.Error != "deliberate failure" {
		t.Fatalf("error = %q", final.Error)
	}
}

// Two replicas drain a shared pool; every job completes exactly once and
// both see identical terminal states.
func TestDurableManagerTwoReplicasShareThePool(t *testing.T) {
	dir := t.TempDir()
	stA := openServiceStore(t, dir)
	stB := openServiceStore(t, dir)

	runner := func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
		time.Sleep(10 * time.Millisecond) // let the pool interleave
		return "out:" + kind, nil
	}
	a := NewJobManager(2, 64, 32, stA, "alpha", time.Second, runWhole(runner))
	defer a.Shutdown(context.Background())
	b := NewJobManager(2, 64, 32, stB, "beta", time.Second, runWhole(runner))
	defer b.Shutdown(context.Background())

	const jobs = 12
	ids := make([]string, jobs)
	for i := range ids {
		status, err := a.SubmitPayload(fmt.Sprintf("job%02d", i), nil)
		if err != nil {
			t.Fatalf("SubmitPayload: %v", err)
		}
		ids[i] = status.ID
	}
	ranOn := make(map[string]int)
	for i, id := range ids {
		final := waitJobState(t, a, id, JobDone)
		if final.Output != fmt.Sprintf("out:job%02d", i) {
			t.Fatalf("job %s output = %q", id, final.Output)
		}
		ranOn[final.Replica]++
		// The other replica serves the same terminal status.
		other, ok := b.Get(id)
		if !ok || other.State != JobDone || other.Output != final.Output {
			t.Fatalf("replica beta sees %+v for %s", other, id)
		}
	}
	for r := range ranOn {
		if r != "alpha" && r != "beta" {
			t.Fatalf("job ran on unknown replica %q (distribution %v)", r, ranOn)
		}
	}
}

// A replica that vanishes mid-run (simulated by a bare store-level claim
// that is never renewed) loses the job to a live manager after the TTL.
func TestDurableManagerReclaimsExpiredLease(t *testing.T) {
	dir := t.TempDir()
	stDead := openServiceStore(t, dir)

	rec, err := stDead.SubmitJob("reclaim-me", nil)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	// The "dead" replica claims with a tiny TTL and never renews — the
	// store-level equivalent of a SIGKILL'd process.
	if _, ok, err := stDead.Claim("dead", 30*time.Millisecond); err != nil || !ok {
		t.Fatalf("dead claim: ok=%v err=%v", ok, err)
	}

	stLive := openServiceStore(t, dir)
	m := NewJobManager(1, 64, 8, stLive, "live", time.Second,
		runWhole(func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
			return "rescued", nil
		}))
	defer m.Shutdown(context.Background())

	final := waitJobState(t, m, rec.ID, JobDone)
	if final.Output != "rescued" || final.Replica != "live" {
		t.Fatalf("final = %+v", final)
	}
	if final.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (one takeover)", final.Restarts)
	}
}

// Graceful shutdown releases running jobs back to the queue instead of
// completing, cancelling, or leaking them; a second manager picks them up.
func TestDurableShutdownReleasesRunningJobs(t *testing.T) {
	dir := t.TempDir()
	stA := openServiceStore(t, dir)

	started := make(chan struct{}, 1)
	blockingRunner := func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
		started <- struct{}{}
		<-ctx.Done() // runs until shutdown cancels it
		return "should not complete", ctx.Err()
	}
	a := NewJobManager(1, 64, 8, stA, "alpha", time.Second, runWhole(blockingRunner))

	status, err := a.SubmitPayload("long", nil)
	if err != nil {
		t.Fatalf("SubmitPayload: %v", err)
	}
	<-started
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The job went back to queued durably — not cancelled, not failed.
	rec, ok, err := stA.Job(status.ID)
	if err != nil || !ok {
		t.Fatalf("Job: ok=%v err=%v", ok, err)
	}
	if rec.State != store.StateQueued {
		t.Fatalf("after shutdown, state = %q, want queued", rec.State)
	}

	stB := openServiceStore(t, dir)
	b := NewJobManager(1, 64, 8, stB, "beta", time.Second,
		runWhole(func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
			return "finished elsewhere", nil
		}))
	defer b.Shutdown(context.Background())
	final := waitJobState(t, b, status.ID, JobDone)
	if final.Output != "finished elsewhere" || final.Replica != "beta" {
		t.Fatalf("final = %+v", final)
	}
}

// Terminal transitions compact the store once the WAL has outgrown the
// threshold and the snapshot it would be folded into, and retention prunes
// finished jobs beyond the window — the durable fix for unbounded WAL growth.
func TestDurableRetentionCompactsStore(t *testing.T) {
	oldCompact := walCompactBytes
	walCompactBytes = 1 // only the snapshot's own size holds compaction back
	t.Cleanup(func() { walCompactBytes = oldCompact })

	dir := t.TempDir()
	st := openServiceStore(t, dir)
	m := NewJobManager(1, 64, 2, st, "alpha", time.Second,
		runWhole(func(ctx context.Context, kind string, payload []byte, prog *obs.Progress) (string, error) {
			return "ok", nil
		}))
	defer m.Shutdown(context.Background())

	const jobs = 12
	var last JobStatus
	for i := 0; i < jobs; i++ {
		status, err := m.SubmitPayload(fmt.Sprintf("k%d", i), nil)
		if err != nil {
			t.Fatalf("SubmitPayload: %v", err)
		}
		last = waitJobState(t, m, status.ID, JobDone)
	}
	// retain=2 finished jobs survive a compaction, plus whatever finished
	// since the last one — which is bounded, because the log is folded in as
	// soon as it is as large as the snapshot.
	if list := m.List(); len(list) > jobs/2 {
		t.Fatalf("retention kept %d of %d jobs: %+v", len(list), jobs, list)
	}
	gen := storeGeneration(t, dir)
	if gen < 2 {
		t.Fatalf("store is at generation %d after %d jobs, want several compactions", gen, jobs)
	}
	snap, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snapshot-%d.json", gen)))
	if err != nil {
		t.Fatal(err)
	}
	// The last terminal transition's compaction check may still be running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		size, err := st.WALSize()
		if err != nil {
			t.Fatalf("WALSize: %v", err)
		}
		if size < snap.Size() || storeGeneration(t, dir) > gen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL is %d bytes beside a %d-byte snapshot and was not compacted", size, snap.Size())
		}
		time.Sleep(time.Millisecond)
	}
	// Replay equivalence: a fresh handle sees the same retained jobs.
	st2 := openServiceStore(t, dir)
	rec, ok, err := st2.Job(last.ID)
	if err != nil || !ok {
		t.Fatalf("fresh handle lost job %s: ok=%v err=%v", last.ID, ok, err)
	}
	if rec.Output != "ok" {
		t.Fatalf("fresh handle output = %q", rec.Output)
	}
}

// storeGeneration reads a store directory's live generation — the number of
// compactions it has been through.
func storeGeneration(t *testing.T, dir string) uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.Gen
}

// The service wires a Store into a durable job manager and registers the
// environment payload dispatcher: a study submitted through the normal API
// runs from its durable payload and matches the synchronous result.
func TestServiceDurableStudyMatchesSynchronous(t *testing.T) {
	dir := t.TempDir()
	st := openServiceStore(t, dir)

	opts := DefaultOptions()
	opts.Store = st
	opts.ReplicaID = "svc-test"
	opts.LeaseTTL = 2 * time.Second
	svc := New(opts)
	defer svc.Close(context.Background())

	req := StudyRequest{Study: "table1", Environment: "bayreuth"}
	status, err := svc.SubmitStudy(req)
	if err != nil {
		t.Fatalf("SubmitStudy: %v", err)
	}
	final := waitJobState(t, svc.Jobs(), status.ID, JobDone, JobFailed)
	if final.State != JobDone {
		t.Fatalf("study failed: %s", final.Error)
	}
	if final.Replica != "svc-test" {
		t.Fatalf("replica = %q", final.Replica)
	}

	want, err := svc.RunStudy(context.Background(), req)
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	if final.Output != want {
		t.Fatalf("durable study output differs from synchronous run:\n--- durable\n%s\n--- sync\n%s", final.Output, want)
	}
}

// Fitted models persist: a second service on the same store directory lists
// the models measured by the first and serves them as cache hits without
// re-fitting.
func TestRegistryModelCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	key := ModelKey{Environment: "bayreuth", Kind: "empirical", Seed: 42}

	st1 := openServiceStore(t, dir)
	r1 := NewModelRegistry(opts.Profile, opts.Empirical)
	r1.SetStore(st1)
	r1.Warm()
	if _, hit, err := r1.Get(key); err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v", hit, err)
	}

	// "Restart": a fresh registry over a fresh handle on the same dir.
	st2 := openServiceStore(t, dir)
	r2 := NewModelRegistry(opts.Profile, opts.Empirical)
	r2.SetStore(st2)
	if n := r2.Warm(); n != 2 {
		t.Fatalf("Warm() = %d entries, want 2 (profile + empirical)", n)
	}
	infos := r2.Models()
	if len(infos) != 2 {
		t.Fatalf("restarted registry lists %d models, want 2: %+v", len(infos), infos)
	}

	model, hit, err := r2.Get(key)
	if err != nil {
		t.Fatalf("restarted Get: %v", err)
	}
	if !hit {
		t.Fatal("first lookup after restart was not a cache hit")
	}
	if model == nil {
		t.Fatal("restarted Get returned no model")
	}
	// The fit was loaded, not re-measured.
	c, ran, err := r2.campaignFor("bayreuth", 42)
	if err != nil {
		t.Fatalf("campaignFor: %v", err)
	}
	if ran && !c.fromDisk {
		t.Fatal("restarted registry re-ran the fitting campaign instead of loading the cache")
	}

	// And the loaded models predict identically to the originals: compare
	// through the study pipeline's cheapest probe — the model's own values.
	m1, _, _ := r1.Get(key)
	g := testDAG(t)
	for _, task := range []int{0, 1, 2} {
		tk := g.Task(task)
		for _, p := range []int{1, 2, 8, 32} {
			if got, want := model.TaskTime(tk, p), m1.TaskTime(tk, p); got != want {
				t.Fatalf("task %d p %d: loaded model predicts %v, fitted %v", task, p, got, want)
			}
		}
	}
}
