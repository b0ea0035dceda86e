package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/store"
)

// TestErrorEnvelopeEverywhere pins the error contract: every failure a
// client can provoke — handler rejections, but also the mux's own 404 and
// 405, which ServeMux writes as plain text — arrives as the JSON
// {"error": ...} envelope with an application/json content type.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"mux 404", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"mux 405", http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed},
		{"schedule bad json", http.MethodPost, "/v1/schedule", "{", http.StatusBadRequest},
		{"schedule no dag", http.MethodPost, "/v1/schedule", "{}", http.StatusBadRequest},
		{"simulate both shapes", http.MethodPost, "/v1/simulate",
			`{"dag": {"tasks": [{"id": 0, "name": "t"}]}, "dags": []}`, http.StatusBadRequest},
		{"job unknown study", http.MethodPost, "/v1/jobs", `{"study": "nope"}`, http.StatusBadRequest},
		{"job not found", http.MethodGet, "/v1/jobs/job-999", "", http.StatusNotFound},
		{"campaign not found", http.MethodGet, "/v1/campaigns/job-999", "", http.StatusNotFound},
		{"robustness not found", http.MethodGet, "/v1/robustness/job-999", "", http.StatusNotFound},
		{"campaign empty spec", http.MethodPost, "/v1/campaigns", `{"algorithms": ["NOPE"]}`, http.StatusBadRequest},
		{"bad watch duration", http.MethodGet, "/v1/jobs/job-1?watch=bogus", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if id := resp.Header.Get("X-Request-ID"); id == "" {
				t.Error("response has no X-Request-ID header")
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var envelope apiError
			if err := json.Unmarshal(body, &envelope); err != nil {
				t.Fatalf("body is not the JSON error envelope: %v\n%s", err, body)
			}
			if envelope.Error == "" {
				t.Errorf("envelope has empty error message: %s", body)
			}
		})
	}
}

// TestHealthzVitals pins the /healthz payload shape: liveness plus process
// vitals, with the "ok" status the CI smoke test greps for.
func TestHealthzVitals(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q, want ok", health.Status)
	}
	if health.Version == "" {
		t.Error("version is empty")
	}
	if !strings.HasPrefix(health.GoVersion, "go") {
		t.Errorf("go_version = %q", health.GoVersion)
	}
	if health.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %g, want >= 0", health.UptimeSeconds)
	}
	if health.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", health.Goroutines)
	}
}

// TestMetricsRoute scrapes GET /metrics through the service's own handler
// and checks the per-route HTTP series advanced for the /healthz hit that
// preceded the scrape.
func TestMetricsRoute(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE repro_http_requests_total counter",
		`repro_http_requests_total{route="GET /healthz",code="2xx"}`,
		"# TYPE repro_http_request_seconds histogram",
		"repro_http_inflight_requests 1", // the scrape itself is in flight
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition is missing %q", want)
		}
	}
}

// TestPprofGating pins that /debug/pprof/ is absent by default and mounted
// with Options.EnablePprof.
func TestPprofGating(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	opts := DefaultOptions()
	opts.EnablePprof = true
	svc2 := New(opts)
	defer svc2.Close(context.Background())
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof with EnablePprof: status %d, want 200", resp2.StatusCode)
	}
}

// TestHTTPCampaignWatchProgress drives ?watch over the wire: a queued
// campaign's poll endpoint reports monotonically non-decreasing progress and
// ends with every cell done.
func TestHTTPCampaignWatchProgress(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := campaign.Spec{
		Name:       "watch-test",
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic"},
	}
	status, err := svc.SubmitCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	var lastDone int64 = -1
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish in time")
		}
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + status.ID + "?watch=2s")
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress == nil {
			t.Fatal("campaign job status has no progress record")
		}
		if cur.Progress.CellsDone < lastDone {
			t.Fatalf("progress went backwards: %d after %d", cur.Progress.CellsDone, lastDone)
		}
		lastDone = cur.Progress.CellsDone
		if cur.State == JobDone {
			if cur.Progress.CellsTotal == 0 || cur.Progress.CellsDone != cur.Progress.CellsTotal {
				t.Fatalf("finished campaign progress = %d/%d, want all cells done",
					cur.Progress.CellsDone, cur.Progress.CellsTotal)
			}
			return
		}
		if cur.State == JobFailed || cur.State == JobCancelled {
			t.Fatalf("campaign ended %s: %s", cur.State, cur.Error)
		}
	}
}

// TestJobDurationSeriesPerFamily pins the kind label of
// repro_job_duration_seconds: one job of each of the four families — and an
// arrival job on the durable manager, which observes through the same
// mapping — must each land in its own family's series. Arrival jobs used to
// be filed under kind="study".
func TestJobDurationSeriesPerFamily(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	counts := func() map[string]int {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, line := range strings.Split(string(body), "\n") {
			var n int
			for _, kind := range []string{"study", "campaign", "robust", "arrival"} {
				if _, err := fmt.Sscanf(line, `repro_job_duration_seconds_count{kind="`+kind+`"} %d`, &n); err == nil {
					out[kind] = n
				}
			}
		}
		return out
	}
	before := counts()

	tiny := campaign.Spec{
		Name:       "tiny",
		Platforms:  campaign.PlatformAxis{Nodes: []int{6}},
		Workloads:  campaign.WorkloadAxis{Shapes: []string{"diamond"}, Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic"},
	}
	submit := func(job JobStatus, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	ids := []string{
		submit(svc.SubmitStudy(StudyRequest{Study: "table1"})),
		submit(svc.SubmitCampaign(tiny)),
		submit(svc.SubmitRobustness(robust.Spec{Spec: tiny, Robustness: robust.Axis{Trials: 1, Levels: []float64{0.1}}})),
		submit(svc.SubmitArrival(onlineSpec())),
	}
	for _, id := range ids {
		if done := waitServiceJob(t, svc, id); done.State != JobDone {
			t.Fatalf("job %s (%s) ended %s: %s", id, done.Kind, done.State, done.Error)
		}
	}
	durable := durableService(t, t.TempDir(), "a")
	id := submit(durable.SubmitArrival(arrivalShardSpec()))
	if done := waitServiceJob(t, durable, id); done.State != JobDone {
		t.Fatalf("durable arrival job ended %s: %s", done.State, done.Error)
	}

	after := counts()
	for kind, want := range map[string]int{"study": 1, "campaign": 1, "robust": 1, "arrival": 2} {
		if got := after[kind] - before[kind]; got != want {
			t.Errorf(`repro_job_duration_seconds_count{kind=%q} rose by %d, want %d`, kind, got, want)
		}
	}
}

// heldService is a service whose jobs, whatever their payload says, wait for
// a token: every send on gate lets one job finish, closing it lets them all.
// Its manager runs workers claim loops over st and queues at most two jobs.
func heldService(t *testing.T, gate chan struct{}, workers int, st *store.Store, replica string, ttl time.Duration) *Service {
	t.Helper()
	svc := New(DefaultOptions())
	if err := svc.jobs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.jobs = NewJobManager(workers, 2, 8, st, replica, ttl, runWhole(func(ctx context.Context, _ string, _ []byte, _ *obs.Progress) (string, error) {
		select {
		case <-gate:
			return "out", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}))
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

// scrapeGauge reads one unlabelled series off a /metrics page.
func scrapeGauge(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if value, ok := strings.CutPrefix(line, name+" "); ok {
			return value
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return ""
}

// TestQueueFullOverHTTP pins the queue bound and the queue-depth gauge as one
// definition for both kinds of pool: two workers hold two jobs, the queue's
// two more are accepted, the next is a 429 from every replica — the bound is the
// pool's, not a replica's — and a finished job makes room again. A
// store-backed replica used to accept without limit and report a depth of 0.
func TestQueueFullOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas func(t *testing.T, gate chan struct{}) []*Service
	}{
		{"log-less", func(t *testing.T, gate chan struct{}) []*Service {
			return []*Service{heldService(t, gate, 2, store.NewMemory(store.Options{}), "", noExpiry)}
		}},
		{"two replicas", func(t *testing.T, gate chan struct{}) []*Service {
			dir := t.TempDir()
			return []*Service{
				heldService(t, gate, 1, openServiceStore(t, dir), "alpha", time.Minute),
				heldService(t, gate, 1, openServiceStore(t, dir), "beta", time.Minute),
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			replicas := tc.replicas(t, gate)
			var urls []string
			for _, svc := range replicas {
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()
				urls = append(urls, srv.URL)
			}
			first, last := replicas[0], urls[len(urls)-1]
			submit := func(url string) (int, string) {
				return envelope(t, http.MethodPost, url+"/v1/jobs", `{"study": "table1"}`)
			}
			states := func() map[JobState]int {
				count := make(map[JobState]int)
				for _, j := range first.Jobs().List() {
					count[j.State]++
				}
				return count
			}
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s; jobs by state: %v", what, states())
					}
				}
			}

			for i := 0; i < 4; i++ {
				if code, msg := submit(urls[i%len(urls)]); code != http.StatusAccepted {
					t.Fatalf("submit %d = %d %q, want 202", i, code, msg)
				}
				if i == 1 {
					await("both workers to be holding a job", func() bool { return states()[JobRunning] == 2 })
				}
			}
			if depth := scrapeGauge(t, last, "repro_jobs_queue_depth"); depth != "2" {
				t.Errorf("repro_jobs_queue_depth = %s with two jobs queued, want 2", depth)
			}
			for _, url := range urls {
				if code, msg := submit(url); code != http.StatusTooManyRequests || msg != ErrQueueFull.Error() {
					t.Errorf("submit into the full queue = %d %q, want 429 %q", code, msg, ErrQueueFull)
				}
			}
			gate <- struct{}{}
			await("a finished job to make room", func() bool { s := states(); return s[JobDone] == 1 && s[JobQueued] == 1 })
			if code, msg := submit(last); code != http.StatusAccepted {
				t.Errorf("submit after a job finished = %d %q, want 202", code, msg)
			}
			close(gate)
			await("every job to finish", func() bool { return states()[JobDone] == 5 })
			await("the queue-depth gauge to read 0", func() bool { return scrapeGauge(t, last, "repro_jobs_queue_depth") == "0" })
		})
	}
}

// TestShardedProgressRisesBeforeDone pins live progress of a sharded job on
// both kinds of handle. With one claim loop — the coordinator, which then runs
// every cell itself — ?watch on a multi-cell robustness job must see
// cells_done rise above 0 while the job still runs. Without a log, cell
// progress reaches the job only because renewals and the coordinator's fold
// come there as often as a watcher looks: at a third of a lease that cannot
// run out they would never come, and the job would read 0 cells done until it
// ended.
func TestShardedProgressRisesBeforeDone(t *testing.T) {
	old := watchPoll
	watchPoll = 10 * time.Millisecond
	defer func() { watchPoll = old }()
	spec := shardSpec()
	spec.Name = "rising"
	spec.Platforms.Nodes = []int{6, 8, 10}
	spec.Robustness.Trials = 64
	spec.Robustness.Levels = []float64{0.05, 0.1, 0.2, 0.5}
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) *store.Store
	}{
		{"log-less", func(*testing.T) *store.Store { return nil }},
		{"file-backed", func(t *testing.T) *store.Store { return openServiceStore(t, t.TempDir()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.JobWorkers = 1
			opts.Store, opts.ReplicaID, opts.LeaseTTL = tc.store(t), "solo", 300*time.Millisecond
			svc := New(opts)
			defer svc.Close(context.Background())
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			status, err := svc.SubmitRobustness(spec)
			if err != nil {
				t.Fatal(err)
			}
			var seen []string
			risen := false
			for deadline := time.Now().Add(time.Minute); !terminalState(status.State); {
				if time.Now().After(deadline) {
					t.Fatalf("job still %s; progress seen %v", status.State, seen)
				}
				resp, err := http.Get(srv.URL + "/v1/robustness/" + status.ID + "?watch=2s")
				if err != nil {
					t.Fatal(err)
				}
				status = JobStatus{}
				err = json.NewDecoder(resp.Body).Decode(&status)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if p := status.Progress; p != nil {
					seen = append(seen, fmt.Sprintf("%s %d/%d", status.State, p.CellsDone, p.CellsTotal))
					risen = risen || status.State == JobRunning && p.CellsDone > 0 && p.CellsDone < p.CellsTotal
				}
			}
			if status.State != JobDone {
				t.Fatalf("job = %+v", status)
			}
			if !risen {
				t.Errorf("cells_done never rose while the job ran; progress seen %v", seen)
			}
		})
	}
}
