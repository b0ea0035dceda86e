package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/experiments"
)

func testDAG(t *testing.T) *dag.Graph {
	t.Helper()
	g, err := dag.Generate(dag.GenParams{
		Tasks: 8, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistryFitsEachModelOnce(t *testing.T) {
	opts := DefaultOptions()
	r := NewModelRegistry(opts.Profile, opts.Empirical)
	key := ModelKey{Environment: "bayreuth", Kind: "empirical", Seed: 42}

	first, hit, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Get reported a cache hit")
	}
	second, hit, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second Get was not a cache hit")
	}
	if first != second {
		t.Error("second Get returned a different model instance: the fit was rebuilt")
	}

	// The profile model shares the campaign: requesting it must not re-run
	// anything, and it must be the same instance on repeat requests.
	p1, _, err := r.Get(ModelKey{Environment: "bayreuth", Kind: "profile", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, hit, err := r.Get(ModelKey{Environment: "bayreuth", Kind: "profile", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p1 != p2 {
		t.Error("profile model was rebuilt on repeat request")
	}

	infos := r.Models()
	if len(infos) != 2 {
		t.Fatalf("registry lists %d entries, want 2: %+v", len(infos), infos)
	}
	for _, info := range infos {
		if info.Hits != 1 {
			t.Errorf("%s: hits = %d, want 1", info.Kind, info.Hits)
		}
	}
}

func TestRegistryConcurrentFirstRequestsBuildOnce(t *testing.T) {
	opts := DefaultOptions()
	r := NewModelRegistry(opts.Profile, opts.Empirical)
	key := ModelKey{Environment: "bayreuth", Kind: "empirical", Seed: 7}

	const callers = 8
	models := make([]any, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, hit, err := r.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
			hits[i] = hit
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d got a different model instance", i)
		}
	}
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d cache misses across %d concurrent first requests, want exactly 1", misses, callers)
	}
}

func TestServiceScheduleMatchesDirectPipeline(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	g := testDAG(t)

	resp, err := svc.Schedule(context.Background(), ScheduleRequest{DAG: g, Algorithm: "MCPA", Model: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SimMakespan <= 0 || resp.EstMakespan <= 0 {
		t.Fatalf("non-positive makespans: %+v", resp)
	}
	if len(resp.Tasks) != g.Len() {
		t.Fatalf("schedule has %d tasks, want %d", len(resp.Tasks), g.Len())
	}

	sim, err := svc.Simulate(context.Background(), ScheduleRequest{DAG: g, Algorithm: "MCPA", Model: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan != resp.SimMakespan {
		t.Errorf("simulate makespan %g != schedule's predicted %g", sim.Makespan, resp.SimMakespan)
	}
}

// TestStudyJobMatchesNewLab pins the registry's fit-once path to the
// reference pipeline: a study run through the service must be byte-identical
// to the same study on a NewLab-built lab (which runs its own campaigns).
func TestStudyJobMatchesNewLab(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())

	got, err := svc.RunStudy(context.Background(), StudyRequest{Study: "fig3", Environment: "bayreuth"})
	if err != nil {
		t.Fatal(err)
	}

	lab, err := experiments.NewLab(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	err = experiments.RenderStudy(context.Background(), "fig3", experiments.DefaultConfig(),
		func() (*experiments.Lab, error) { return lab, nil }, &want)
	if err != nil {
		t.Fatal(err)
	}

	if got != want.String() {
		t.Errorf("service study output differs from NewLab's:\n--- service ---\n%s\n--- NewLab ---\n%s", got, want.String())
	}
}

func TestHTTPScheduleRoundTripAndCacheHit(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}

	req := ScheduleRequest{DAG: testDAG(t), Algorithm: "HCPA", Model: "empirical"}
	first, err := client.Schedule(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}
	second, err := client.Schedule(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical request missed the registry cache")
	}
	if first.SimMakespan != second.SimMakespan {
		t.Errorf("cached model predicts %g, first prediction was %g", second.SimMakespan, first.SimMakespan)
	}

	models, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range models {
		if m.Kind == "empirical" && m.Environment == "bayreuth" {
			found = true
			if m.Hits < 1 {
				t.Errorf("empirical model hits = %d, want >= 1", m.Hits)
			}
		}
	}
	if !found {
		t.Errorf("empirical/bayreuth missing from /v1/models: %+v", models)
	}
}

// TestSimulateBatchMatchesSingleRequests pins the batched path's semantics:
// one batch over N DAGs returns, item for item, exactly what N single
// simulate requests return, shares a single model resolution, and is
// deterministic for any worker-pool size.
func TestSimulateBatchMatchesSingleRequests(t *testing.T) {
	dags := make([]*dag.Graph, 3)
	for i := range dags {
		g, err := dag.Generate(dag.GenParams{
			Tasks: 6 + i, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: int64(11 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		dags[i] = g
	}
	ctx := context.Background()

	runBatch := func(parallelism int) *SimulateBatchResponse {
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		svc := New(opts)
		defer svc.Close(ctx)
		resp, err := svc.SimulateBatch(ctx, SimulateBatchRequest{DAGs: dags, Model: "empirical"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	batch := runBatch(1)
	if batch.CacheHit {
		t.Error("cold batch reported a cache hit")
	}
	if len(batch.Results) != len(dags) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(dags))
	}

	// Single requests on a fresh service agree item for item.
	svc := New(DefaultOptions())
	defer svc.Close(ctx)
	for i, g := range dags {
		single, err := svc.Simulate(ctx, ScheduleRequest{DAG: g, Model: "empirical"})
		if err != nil {
			t.Fatal(err)
		}
		if single.Makespan != batch.Results[i].Makespan {
			t.Errorf("dag %d: batch makespan %g != single makespan %g", i, batch.Results[i].Makespan, single.Makespan)
		}
		if len(single.Tasks) != len(batch.Results[i].Tasks) {
			t.Fatalf("dag %d: batch has %d tasks, single has %d", i, len(batch.Results[i].Tasks), len(single.Tasks))
		}
		for j, task := range single.Tasks {
			if !reflect.DeepEqual(task, batch.Results[i].Tasks[j]) {
				t.Errorf("dag %d task %d: batch %+v != single %+v", i, j, batch.Results[i].Tasks[j], task)
			}
		}
	}

	// The batch is byte-stable across worker counts.
	parallel := runBatch(8)
	for i := range batch.Results {
		if batch.Results[i].Makespan != parallel.Results[i].Makespan {
			t.Errorf("dag %d: makespan differs between parallelism 1 (%g) and 8 (%g)",
				i, batch.Results[i].Makespan, parallel.Results[i].Makespan)
		}
	}

	// A second batch on a warm service is one registry hit for all DAGs.
	resp, err := svc.SimulateBatch(ctx, SimulateBatchRequest{DAGs: dags, Model: "empirical"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("warm batch missed the registry cache")
	}
}

// TestHTTPSimulateBatch drives the batched shape of POST /v1/simulate over
// the wire, including its request validation.
func TestHTTPSimulateBatch(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	g := testDAG(t)
	resp, err := client.SimulateBatch(ctx, SimulateBatchRequest{DAGs: []*dag.Graph{g, g}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "HCPA" || resp.Model != "analytic" || resp.Environment != "bayreuth" {
		t.Errorf("batch defaults = %s/%s/%s, want HCPA/analytic/bayreuth", resp.Algorithm, resp.Model, resp.Environment)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(resp.Results))
	}
	if resp.Results[0].Makespan != resp.Results[1].Makespan {
		t.Errorf("identical DAGs simulated to different makespans: %g vs %g",
			resp.Results[0].Makespan, resp.Results[1].Makespan)
	}
	single, err := client.Simulate(ctx, ScheduleRequest{DAG: g})
	if err != nil {
		t.Fatal(err)
	}
	if single.Makespan != resp.Results[0].Makespan {
		t.Errorf("single simulate makespan %g != batch item %g", single.Makespan, resp.Results[0].Makespan)
	}

	// An empty batch and a both-shapes request are rejected up front; the
	// typed client fails an empty batch before it reaches the wire.
	if _, err := client.SimulateBatch(ctx, SimulateBatchRequest{}); err == nil || !strings.Contains(err.Error(), "batch has no dags") {
		t.Errorf("empty batch: err = %v, want the batch contract's error", err)
	}
	for name, body := range map[string]string{
		"both dag and dags":          `{"dag": {}, "dags": [{}]}`,
		"present-but-empty dags key": `{"dags": []}`,
	} {
		httpResp, err := srv.Client().Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		httpResp.Body.Close()
		if httpResp.StatusCode != 400 {
			t.Errorf("%s: HTTP %d, want 400", name, httpResp.StatusCode)
		}
	}
}

func TestHTTPConcurrentScheduleRequests(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	g := testDAG(t)

	const callers = 8
	makespans := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Schedule(context.Background(),
				ScheduleRequest{DAG: g, Algorithm: "HCPA", Model: "empirical"})
			if err != nil {
				t.Error(err)
				return
			}
			makespans[i] = resp.SimMakespan
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if makespans[i] != makespans[0] {
			t.Fatalf("caller %d predicted %g, caller 0 predicted %g: model not shared",
				i, makespans[i], makespans[0])
		}
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	job, err := client.SubmitStudy(ctx, StudyRequest{Study: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobQueued {
		t.Errorf("submitted state = %s, want queued", job.State)
	}
	done, err := client.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", done.State, done.Error)
	}
	if !strings.Contains(done.Output, "Table I") {
		t.Errorf("job output missing Table I header:\n%s", done.Output)
	}

	list, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Errorf("job list = %+v, want just %s", list, job.ID)
	}

	if _, err := client.Job(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job: err = %v, want HTTP 404", err)
	}
	if _, err := client.SubmitStudy(ctx, StudyRequest{Study: "figure-nine"}); err == nil {
		t.Error("unknown study accepted")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()
	g := testDAG(t)

	cases := []ScheduleRequest{
		{},                                  // no DAG
		{DAG: g, Algorithm: "SJF"},          // unknown algorithm
		{DAG: g, Model: "oracular"},         // unknown model
		{DAG: g, Environment: "perlmutter"}, // unknown environment
	}
	for i, req := range cases {
		if _, err := client.Schedule(ctx, req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
}

func TestServiceShutdownCancelsInFlightStudy(t *testing.T) {
	opts := DefaultOptions()
	opts.JobWorkers = 1
	opts.QueueCap = 4
	svc := New(opts)

	// A slow suite-wide study plus queued followers.
	running, err := svc.SubmitStudy(StudyRequest{Study: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitStudy(StudyRequest{Study: "fig1"})
	if err != nil {
		t.Fatal(err)
	}

	// Give the worker a moment to pick the first job up, then shut down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _ := svc.Jobs().Get(running.ID)
		if status.State == JobRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, id := range []string{running.ID, queued.ID} {
		status, ok := svc.Jobs().Get(id)
		if !ok {
			t.Fatalf("job %s evicted during shutdown", id)
		}
		if status.State != JobCancelled && status.State != JobDone {
			t.Errorf("job %s ended %s, want cancelled (or done if it won the race)", id, status.State)
		}
		if status.State == JobCancelled && status.Output != "" {
			t.Errorf("cancelled job %s retained output", id)
		}
	}
}
