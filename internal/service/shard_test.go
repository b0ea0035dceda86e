package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/store"
)

// shardSpec is a small real robustness grid: 2 platforms × 1 workload × 1
// model = 2 cells, each with Monte Carlo trials. All seeds explicit, so
// every replica resolves identical work.
func shardSpec() robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "shard",
			Seed:       42,
			Platforms:  campaign.PlatformAxis{Nodes: []int{6, 8}},
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}, SuiteSeeds: []int64{2011}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 6, Levels: []float64{0.05, 0.2}},
	}
}

// durableService builds a store-backed service on dir with a tight lease.
func durableService(t *testing.T, dir, replica string) *Service {
	t.Helper()
	st := openServiceStore(t, dir)
	opts := DefaultOptions()
	opts.Store = st
	opts.ReplicaID = replica
	opts.LeaseTTL = 500 * time.Millisecond
	opts.JobWorkers = 1
	svc := New(opts)
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

func waitServiceJob(t *testing.T, svc *Service, id string) JobStatus {
	t.Helper()
	return waitJobState(t, svc.Jobs(), id, JobDone, JobFailed)
}

// TestShardedServiceByteIdentity is the tentpole pin at service level: the
// same robustness spec run in process with no store and durably, sharded
// into cells, must render byte-identical reports.
func TestShardedServiceByteIdentity(t *testing.T) {
	spec := shardSpec()

	ref := New(DefaultOptions())
	defer ref.Close(context.Background())
	want, err := ref.RunRobustness(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	svc := durableService(t, t.TempDir(), "solo")
	status, err := svc.SubmitRobustness(spec)
	if err != nil {
		t.Fatalf("SubmitRobustness: %v", err)
	}
	final := waitServiceJob(t, svc, status.ID)
	if final.State != JobDone {
		t.Fatalf("job = %+v", final)
	}
	if final.Output != want {
		t.Errorf("durable output differs from in-process run:\n--- in-process ---\n%s\n--- durable ---\n%s",
			want, final.Output)
	}
}

// arrivalShardSpec is a small online-arrival scenario: two algorithm cells
// over a three-class shape population, Poisson arrivals on 8-node
// partitions. All seeds explicit, so every replica resolves identical work.
func arrivalShardSpec() arrival.Spec {
	return arrival.Spec{
		Name:      "arrival-shard",
		Seed:      42,
		Workloads: campaign.WorkloadAxis{Shapes: []string{"diamond", "strassen", "reduction"}},
		Rate:      0.05,
		Jobs:      8,
		Partition: 8,
	}
}

// TestShardedArrivalByteIdentity extends the service-level byte-identity
// pin to online arrivals: the same scenario run in process and durably,
// sharded into cells, must render byte-identical reports.
func TestShardedArrivalByteIdentity(t *testing.T) {
	spec := arrivalShardSpec()

	ref := New(DefaultOptions())
	defer ref.Close(context.Background())
	want, err := ref.RunArrival(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	svc := durableService(t, t.TempDir(), "solo")
	status, err := svc.SubmitArrival(spec)
	if err != nil {
		t.Fatalf("SubmitArrival: %v", err)
	}
	final := waitServiceJob(t, svc, status.ID)
	if final.State != JobDone {
		t.Fatalf("job = %+v", final)
	}
	if final.Output != want {
		t.Errorf("durable output differs from in-process run:\n--- in-process ---\n%s\n--- durable ---\n%s",
			want, final.Output)
	}
}

// TestProgressSameOnBothBackends pins that a job reports the same progress
// wherever it runs: for one job of each family the final snapshot — cells
// and trials — of the in-memory service equals the durable service's, and
// both count exactly the plan's cells. (A robustness study used to count its
// grid twice in memory and once when sharded.)
func TestProgressSameOnBothBackends(t *testing.T) {
	mem := New(DefaultOptions())
	defer mem.Close(context.Background())
	dur := durableService(t, t.TempDir(), "solo")

	rob := shardSpec()
	for _, tc := range []struct {
		family string
		cells  int64
		submit func(*Service) (JobStatus, error)
	}{
		{"campaign", 2, func(s *Service) (JobStatus, error) { return s.SubmitCampaign(rob.Spec) }},
		{"robust", 2, func(s *Service) (JobStatus, error) { return s.SubmitRobustness(rob) }},
		{"arrival", 2, func(s *Service) (JobStatus, error) { return s.SubmitArrival(arrivalShardSpec()) }},
	} {
		var finals [2]JobStatus
		for i, svc := range []*Service{mem, dur} {
			status, err := tc.submit(svc)
			if err != nil {
				t.Fatalf("%s: submit: %v", tc.family, err)
			}
			finals[i] = waitServiceJob(t, svc, status.ID)
			if finals[i].State != JobDone || finals[i].Progress == nil {
				t.Fatalf("%s: job = %+v", tc.family, finals[i])
			}
		}
		inMem, durable := *finals[0].Progress, *finals[1].Progress
		if inMem != durable {
			t.Errorf("%s: final progress in memory %+v, durable %+v", tc.family, inMem, durable)
		}
		if inMem.CellsDone != tc.cells || inMem.CellsTotal != tc.cells {
			t.Errorf("%s: final progress = %+v, want %d/%d cells", tc.family, inMem, tc.cells, tc.cells)
		}
		if wantTrials := tc.family == "robust"; (inMem.TrialBudget > 0) != wantTrials || inMem.TrialsUsed != inMem.TrialBudget {
			t.Errorf("%s: final trial progress = %+v", tc.family, inMem)
		}
	}
}

// countingCells is a fake plan whose cells block until released, recording
// which replica executed each cell.
type countingCells struct {
	mu    sync.Mutex
	ran   map[string][]int // replica -> cell indices
	gate  chan struct{}    // closed to release all cells
	cells int
}

// taggedCells is one replica's view of the shared fake: its Dispatch shards
// kind "grid" into the fake plan.
type taggedCells struct {
	c       *countingCells
	replica string
}

func (r taggedCells) dispatch() Dispatch {
	return Dispatch{Plan: func(kind string, payload []byte) (Plan, error) {
		if kind != "grid" {
			return nil, fmt.Errorf("no plan for kind %q", kind)
		}
		return &cellPlan[string]{
			cells: r.c.cells,
			run: func(ctx context.Context, index int, _ *obs.Progress) (string, error) {
				select {
				case <-r.c.gate:
				case <-ctx.Done():
					return "", ctx.Err()
				}
				r.c.mu.Lock()
				r.c.ran[r.replica] = append(r.c.ran[r.replica], index)
				r.c.mu.Unlock()
				return fmt.Sprintf("cell-%d", index), nil
			},
			encode: func(cell string) ([]byte, error) { return []byte(cell), nil },
			decode: func(frame []byte) (string, error) { return string(frame), nil },
			merge:  func(cells []string) (string, error) { return strings.Join(cells, "\n") + "\n", nil },
		}, nil
	}}
}

// TestShardedJobSpansReplicas proves cooperation: with every cell gated
// until both replicas are claim-looping, a sharded job's cells execute on
// BOTH managers, and the coordinator merges frames in plan order no matter
// who ran what.
func TestShardedJobSpansReplicas(t *testing.T) {
	dir := t.TempDir()
	shared := &countingCells{ran: make(map[string][]int), gate: make(chan struct{}), cells: 6}

	stA := openServiceStore(t, dir)
	a := NewJobManager(1, 64, 8, stA, "alpha", time.Second, taggedCells{shared, "alpha"}.dispatch())
	defer a.Shutdown(context.Background())
	stB := openServiceStore(t, dir)
	b := NewJobManager(1, 64, 8, stB, "beta", time.Second, taggedCells{shared, "beta"}.dispatch())
	defer b.Shutdown(context.Background())

	status, err := a.SubmitPayload("grid", nil)
	if err != nil {
		t.Fatalf("SubmitPayload: %v", err)
	}
	// Wait until cells exist and both replicas hold one, then open the gate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			cells, ok, _ := stA.Cells(status.ID)
			t.Fatalf("replicas never both claimed cells: ok=%v cells=%+v", ok, cells)
		}
		cells, ok, err := stA.Cells(status.ID)
		if err != nil {
			t.Fatal(err)
		}
		holders := map[string]bool{}
		if ok {
			for _, c := range cells {
				if c.State == store.StateRunning {
					holders[c.Holder] = true
				}
			}
		}
		if holders["alpha"] && holders["beta"] {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(shared.gate)

	final := waitJobState(t, a, status.ID, JobDone)
	want := ""
	for i := 0; i < shared.cells; i++ {
		want += fmt.Sprintf("cell-%d\n", i)
	}
	if final.Output != want {
		t.Errorf("merged output = %q, want %q", final.Output, want)
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if len(shared.ran["alpha"]) == 0 || len(shared.ran["beta"]) == 0 {
		t.Errorf("cells did not span replicas: %+v", shared.ran)
	}
	if len(shared.ran["alpha"])+len(shared.ran["beta"]) != shared.cells {
		t.Errorf("ran %+v, want %d cells total", shared.ran, shared.cells)
	}
}

// TestCoordinatorRestartMidGather: all cells already carry results (the
// work happened before the original coordinator died), a fresh manager
// claims the queued job, replans idempotently, and merges WITHOUT
// re-executing a single cell.
func TestCoordinatorRestartMidGather(t *testing.T) {
	dir := t.TempDir()
	st := openServiceStore(t, dir)

	rec, err := st.SubmitJob("grid", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The dead coordinator's legacy: a claimed-then-expired job whose cells
	// all finished. (Claim with a tiny ttl and let it lapse.)
	if _, ok, err := st.Claim("dead", time.Millisecond); err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if err := st.PlanCells(rec.ID, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := st.CompleteCellAndClaim(rec.ID, i, "dead", []byte(fmt.Sprintf("cell-%d", i)), "", nil, false, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the 1ms job lease lapse

	shared := &countingCells{ran: make(map[string][]int), gate: make(chan struct{}), cells: 3}
	close(shared.gate)
	m := NewJobManager(1, 64, 8, st, "heir", time.Second, taggedCells{shared, "heir"}.dispatch())
	defer m.Shutdown(context.Background())

	final := waitJobState(t, m, rec.ID, JobDone)
	if final.Output != "cell-0\ncell-1\ncell-2\n" || final.Replica != "heir" || final.Restarts < 1 {
		t.Fatalf("final = %+v", final)
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if len(shared.ran["heir"]) != 0 {
		t.Errorf("heir re-executed cells %v; the frames were already durable", shared.ran["heir"])
	}
}

// TestShardedMergePermutation is the merge-determinism pin: cells completed
// in a shuffled order, with a duplicate frame from a reclaimed-then-revived
// holder racing the reclaimer, still gather in plan order and merge
// byte-identically to the serial in-process report.
func TestShardedMergePermutation(t *testing.T) {
	spec := shardSpec()
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference and the frames themselves, via the same plan the
	// durable manager resolves.
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	kind := "robust:" + spec.Spec.Name
	plan, err := svc.plan(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.NumCells()
	if n < 2 {
		t.Fatalf("spec has %d cells; the permutation needs at least 2", n)
	}
	frames := make([][]byte, n)
	for i := range frames {
		if frames[i], err = plan.RunCell(context.Background(), i, nil); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	want, err := plan.Merge(frames)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 5; trial++ {
		st := openServiceStore(t, t.TempDir())
		rec, err := st.SubmitJob(kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Claim("coord", time.Minute); err != nil || !ok {
			t.Fatalf("Claim = %v, %v", ok, err)
		}
		if err := st.PlanCells(rec.ID, n); err != nil {
			t.Fatal(err)
		}
		order := rand.New(rand.NewSource(int64(trial))).Perm(n)
		for _, i := range order {
			holder := fmt.Sprintf("replica-%d", i%3)
			if _, _, err := st.CompleteCellAndClaim(rec.ID, i, holder, frames[i], "", nil, false, "", 0); err != nil {
				t.Fatal(err)
			}
		}
		// The revived original holder of cell 0 delivers its (byte-identical)
		// frame late; first write already won, so this is a no-op.
		if _, _, err := st.CompleteCellAndClaim(rec.ID, 0, "revived", frames[0], "", nil, false, "", 0); err != nil {
			t.Fatal(err)
		}
		results, err := st.CellResults(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Merge(results)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("trial %d: shuffled merge differs from serial report", trial)
		}
	}
}

// TestGatherHoldsNoClaimLoop: a sharded job whose remaining cells other
// loops hold waits for them off the claim loops. With two loops each running
// one of a grid's two gated cells, the loop whose cell finishes first runs a
// job submitted meanwhile while the other cell is still held, on both kinds
// of handle.
func TestGatherHoldsNoClaimLoop(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
			dispatch := Dispatch{Plan: func(kind string, _ []byte) (Plan, error) {
				if kind == "quick" {
					return oneCell(func(context.Context, *obs.Progress) (string, error) { return "quick", nil }), nil
				}
				return &cellPlan[string]{
					cells: len(gates),
					run: func(ctx context.Context, i int, _ *obs.Progress) (string, error) {
						select {
						case <-gates[i]:
						case <-ctx.Done():
							return "", ctx.Err()
						}
						return fmt.Sprintf("cell-%d", i), nil
					},
					encode: func(cell string) ([]byte, error) { return []byte(cell), nil },
					decode: func(frame []byte) (string, error) { return string(frame), nil },
					merge:  func(cells []string) (string, error) { return strings.Join(cells, "\n") + "\n", nil },
				}, nil
			}}
			st := pool.open(t)
			m := NewJobManager(2, 8, 8, st, pool.replica, pool.ttl, dispatch)
			defer m.Shutdown(context.Background())

			grid, err := m.SubmitPayload("grid", nil)
			if err != nil {
				t.Fatal(err)
			}
			cellStates := func() []string {
				cells, _, err := st.Cells(grid.ID)
				if err != nil {
					t.Fatal(err)
				}
				var states []string
				for _, c := range cells {
					states = append(states, c.State)
				}
				return states
			}
			waitCells := func(want ...string) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !slices.Equal(cellStates(), want); time.Sleep(2 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("cells = %v, want %v", cellStates(), want)
					}
				}
			}
			waitCells(store.StateRunning, store.StateRunning)
			close(gates[0])
			waitCells(store.StateDone, store.StateRunning)

			quick, err := m.SubmitPayload("quick", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := waitJobState(t, m, quick.ID, JobDone, JobFailed); got.Output != "quick" {
				t.Fatalf("quick job = %+v", got)
			}
			if got, _ := m.Get(grid.ID); got.State != JobRunning || !slices.Equal(cellStates(), []string{store.StateDone, store.StateRunning}) {
				t.Fatalf("grid = %+v with cells %v, want running with cell 1 held", got, cellStates())
			}
			close(gates[1])
			if got := waitJobState(t, m, grid.ID, JobDone, JobFailed); got.Output != "cell-0\ncell-1\n" {
				t.Fatalf("grid job = %+v", got)
			}
		})
	}
}
