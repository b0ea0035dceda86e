package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// toyFamily is a whole job family in one table entry: a plan of 3 cells
// (or "cells" many), cell i's frame is its index, and the merge lists them.
// Nothing outside this file knows it exists.
func toyFamily() *Family {
	return &Family{Name: "toy", Route: "toys", Noun: "toy", Prepare: func(spec []byte, _ Defaults) (Plan, error) {
		s := struct {
			Name  string `json:"name,omitempty"`
			Cells int    `json:"cells"`
		}{Cells: 3}
		if err := json.Unmarshal(spec, &s); err != nil {
			return nil, err
		}
		if s.Cells < 1 {
			return nil, fmt.Errorf("toy: %d cells, want at least 1", s.Cells)
		}
		canonical, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		return &cellPlan[int]{
			label: s.Name, spec: canonical, cells: s.Cells,
			run:    func(_ context.Context, i int, _ *obs.Progress) (int, error) { return i, nil },
			encode: func(i int) ([]byte, error) { return []byte(strconv.Itoa(i)), nil },
			decode: func(frame []byte) (int, error) { return strconv.Atoi(string(frame)) },
			merge:  func(cells []int) (string, error) { return fmt.Sprint(cells), nil },
		}, nil
	}}
}

// addFamily appends an entry to a service's family table, or replaces the
// entry of the same name. A durable service's claim loops already consult
// the table, so they are parked while it changes and restarted on the same
// dispatch New builds.
func addFamily(t *testing.T, svc *Service, f *Family) {
	t.Helper()
	set := func() {
		for i, g := range svc.families {
			if g.Name == f.Name {
				svc.families[i] = f
				return
			}
		}
		svc.families = append(svc.families, f)
	}
	if !svc.jobs.Durable() {
		set()
		return
	}
	if err := svc.jobs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	set()
	svc.jobs = NewJobManager(svc.opts.JobWorkers, svc.opts.QueueCap, svc.opts.Retain,
		svc.opts.Store, svc.opts.ReplicaID, svc.opts.LeaseTTL, svc.dispatch())
}

// envelope issues one request and returns the status code and, for error
// responses, the {"error": ...} message.
func envelope(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: body is not the JSON error envelope: %v", method, url, err)
		}
	}
	return resp.StatusCode, e.Error
}

// TestToyFamilyOverHTTP proves the table is the only thing a family needs on
// the in-memory service: its routes exist, its jobs run cell by cell with
// live progress, listings and 404s are filtered by family, errors arrive in
// the envelope under the family's noun, and the duration series carries the
// family's name — never a user-chosen job name.
func TestToyFamilyOverHTTP(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	addFamily(t, svc, toyFamily())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	before := jobDuration("toy").Count()
	job, err := client.Submit(ctx, "toys", map[string]any{"name": "first"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "toy:first" || job.State != JobQueued {
		t.Errorf("submitted job = %+v, want kind toy:first, queued", job)
	}
	done, err := client.Wait(ctx, "toys", job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Output != "[0 1 2]" {
		t.Fatalf("toy job = %+v, want done with output [0 1 2]", done)
	}
	if done.Progress == nil || done.Progress.CellsDone != 3 || done.Progress.CellsTotal != 3 {
		t.Errorf("final progress = %+v, want 3/3 cells", done.Progress)
	}

	// Listings and polls are filtered by family, both ways.
	if toys, err := client.List(ctx, "toys"); err != nil || len(toys) != 1 || toys[0].ID != job.ID {
		t.Errorf("GET /v1/toys = %+v, %v; want just %s", toys, err, job.ID)
	}
	if camps, err := client.List(ctx, "campaigns"); err != nil || len(camps) != 0 {
		t.Errorf("toy job leaked into GET /v1/campaigns: %+v, %v", camps, err)
	}
	if all, err := client.Jobs(ctx); err != nil || len(all) != 1 {
		t.Errorf("GET /v1/jobs = %+v, %v; want the toy job", all, err)
	}
	for _, tc := range []struct {
		method, path, body string
		status             int
		message            string
	}{
		{http.MethodGet, "/v1/toys/job-999", "", http.StatusNotFound, "service: no such toy"},
		{http.MethodGet, "/v1/campaigns/" + job.ID, "", http.StatusNotFound, "service: no such campaign"},
		{http.MethodPost, "/v1/toys", `{"cells": -1}`, http.StatusBadRequest, "toy: -1 cells, want at least 1"},
		{http.MethodPost, "/v1/toys", `{`, http.StatusBadRequest, "unexpected EOF"},
		{http.MethodDelete, "/v1/toys", "", http.StatusMethodNotAllowed, "Method Not Allowed"},
	} {
		if status, message := envelope(t, tc.method, srv.URL+tc.path, tc.body); status != tc.status || message != tc.message {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, status, message, tc.status, tc.message)
		}
	}

	// One more job, unnamed: the duration series is the family's, and no
	// series is ever labelled with a job kind.
	if job, err = client.Submit(ctx, "toys", map[string]any{"cells": 1}); err != nil {
		t.Fatal(err)
	}
	if job.Kind != "toy" {
		t.Errorf("unnamed toy job kind = %q, want toy", job.Kind)
	}
	if _, err := client.Wait(ctx, "toys", job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rose := jobDuration("toy").Count() - before; rose != 2 {
		t.Errorf("toy duration series rose by %d, want 2", rose)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]bool{}
	for _, f := range svc.families {
		table[f.Name] = true
	}
	for _, m := range regexp.MustCompile(`repro_job_duration_seconds_count\{kind="([^"]*)"\}`).FindAllStringSubmatch(string(metrics), -1) {
		if !table[m[1]] {
			t.Errorf("duration series labelled %q, which is not a family in the table", m[1])
		}
	}
	if !strings.Contains(string(metrics), `repro_http_requests_total{route="POST /v1/toys",code="2xx"}`) {
		t.Error("the toy submit route has no request series of its own")
	}
}

// TestToyFamilySharded drives the same table entry through a two-replica
// durable cluster: the job is planned into cells in the store, the cells'
// frames are merged in index order, and progress counts the plan's cells.
func TestToyFamilySharded(t *testing.T) {
	dir := t.TempDir()
	a, b := durableService(t, dir, "alpha"), durableService(t, dir, "beta")
	addFamily(t, a, toyFamily())
	addFamily(t, b, toyFamily())

	cellsBefore := cellsDone.Value()
	status, err := a.submit(a.family("toy"), []byte(`{"name": "grid", "cells": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	final := waitServiceJob(t, b, status.ID)
	if final.State != JobDone || final.Kind != "toy:grid" || final.Output != "[0 1 2 3 4]" {
		t.Fatalf("toy job = %+v, want done with output [0 1 2 3 4]", final)
	}
	if final.Progress == nil || final.Progress.CellsDone != 5 || final.Progress.CellsTotal != 5 {
		t.Errorf("final progress = %+v, want 5/5 cells", final.Progress)
	}
	if ran := cellsDone.Value() - cellsBefore; ran != 5 {
		t.Errorf("the cluster executed %d sharded cells, want 5", ran)
	}
	if _, err := a.submit(a.family("toy"), []byte(`{"cells": 0}`)); !IsBadRequest(err) {
		t.Errorf("bad toy spec: err = %v, want a bad request", err)
	}
}

// TestFailedPlanResolutionIsNotCached is the regression test for the plan
// cache retaining failures: a replica that could not read a job's trace file
// must not answer from the cache once the operator has put the file there
// and resubmitted the identical spec.
func TestFailedPlanResolutionIsNotCached(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())

	path := filepath.Join(t.TempDir(), "late.dot")
	spec := campaign.Spec{
		Name:       "late-trace",
		Seed:       42,
		Workloads:  campaign.WorkloadAxis{Traces: []campaign.TraceRef{{Path: path}}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic"},
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// What a replica does with a claimed job whose file it cannot see.
	const kind = "campaign:late-trace"
	if _, err := svc.plan(kind, payload); err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("plan with a missing trace: err = %v, want not-exist", err)
	}
	if _, err := svc.SubmitCampaign(spec); !IsBadRequest(err) {
		t.Fatalf("submit with a missing trace: err = %v, want a bad request", err)
	}

	dot, err := os.ReadFile("../../testdata/traces/linalg-pipeline.dot")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, dot, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := svc.plan(kind, payload); err != nil || p.NumCells() != 1 {
		t.Fatalf("same payload after the file appeared: plan %v, err = %v; want 1 cell", p, err)
	}
	status, err := svc.SubmitCampaign(spec)
	if err != nil {
		t.Fatalf("resubmission after the file appeared: %v", err)
	}
	if done := waitServiceJob(t, svc, status.ID); done.State != JobDone {
		t.Fatalf("resubmitted job = %+v", done)
	}
}

// gatedPlan holds each cell at enter before running it.
type gatedPlan struct {
	Plan
	enter func(ctx context.Context) error
}

func (g gatedPlan) RunCell(ctx context.Context, i int, prog *obs.Progress) ([]byte, error) {
	if err := g.enter(ctx); err != nil {
		return nil, err
	}
	return g.Plan.RunCell(ctx, i, prog)
}

// TestStudyJobOnTwoReplicasMatchesMixedsim: a fig1 job submitted to one
// replica of a two-replica cluster runs as the study table's plan of one
// scoring cell per suite instance, splits its cells across both replicas,
// reports n/n cells, and renders the bytes cmd/mixedsim writes for fig1
// (testdata/golden/fig1.txt), read back through the other replica. A gate
// holds each replica's first cell until the other replica has entered one,
// so the split does not depend on timing.
func TestStudyJobOnTwoReplicasMatchesMixedsim(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/fig1.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := durableService(t, dir, "alpha"), durableService(t, dir, "beta")
	ref, err := a.planStudy(StudyRequest{Study: "fig1"}, a.defaults())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(ref.NumCells())
	if n < 2 {
		t.Fatalf("fig1 plans %d cells, want one per suite instance", n)
	}

	var mu sync.Mutex
	ran := map[string]int{}
	both := make(chan struct{})
	var open sync.Once
	for _, svc := range []*Service{a, b} {
		replica, study := svc.opts.ReplicaID, svc.named("study")
		gated := *study
		gated.Prepare = func(spec []byte, d Defaults) (Plan, error) {
			p, err := study.Prepare(spec, d)
			if err != nil {
				return nil, err
			}
			return gatedPlan{p, func(ctx context.Context) error {
				mu.Lock()
				ran[replica]++
				first := ran[replica] == 1
				if len(ran) == 2 {
					open.Do(func() { close(both) })
				}
				mu.Unlock()
				if !first {
					return nil
				}
				select {
				case <-both:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}}, nil
		}
		addFamily(t, svc, &gated)
	}

	status, err := a.submit(a.named("study"), []byte(`{"study":"fig1"}`))
	if err != nil {
		t.Fatal(err)
	}
	final := waitServiceJob(t, b, status.ID)
	if final.State != JobDone || final.Kind != "fig1" {
		t.Fatalf("fig1 job = %+v", final)
	}
	if final.Output != string(want) {
		t.Errorf("fig1 job output differs from mixedsim's:\n--- job\n%s\n--- mixedsim\n%s", final.Output, want)
	}
	if final.Progress == nil || *final.Progress != (obs.ProgressSnapshot{CellsDone: n, CellsTotal: n}) {
		t.Errorf("fig1 job progress = %+v, want %d/%d cells", final.Progress, n, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["alpha"] == 0 || ran["beta"] == 0 || int64(ran["alpha"]+ran["beta"]) < n {
		t.Errorf("cells run per replica = %v, want all %d split across alpha and beta", ran, n)
	}
}

// TestParentEraStudyPayloadRuns: a study job as an older replica queued it —
// payload {"study":"table1"}, with no environment and no seeds, as in
// internal/store/testdata/parent-format — runs through the study family, on
// both kinds of handle, to exactly RunStudy's bytes, and is timed as a study.
func TestParentEraStudyPayloadRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		svc  func(t *testing.T) *Service
	}{
		{"log-less", func(t *testing.T) *Service {
			svc := New(DefaultOptions())
			t.Cleanup(func() { svc.Close(context.Background()) })
			return svc
		}},
		{"file-backed", func(t *testing.T) *Service { return durableService(t, t.TempDir(), "solo") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.svc(t)
			timed := jobDuration("study").Count()
			status, err := svc.Jobs().SubmitPayload("table1", json.RawMessage(`{"study":"table1"}`))
			if err != nil {
				t.Fatal(err)
			}
			final := waitServiceJob(t, svc, status.ID)
			want, err := svc.RunStudy(context.Background(), StudyRequest{Study: "table1"})
			if err != nil {
				t.Fatal(err)
			}
			if final.State != JobDone || final.Output != want {
				t.Errorf("parent-era table1 job = %+v\nwant done with RunStudy's report:\n%s", final, want)
			}
			if rose := jobDuration("study").Count() - timed; rose != 1 {
				t.Errorf(`repro_job_duration_seconds_count{kind="study"} rose by %d, want 1`, rose)
			}
		})
	}
}

// BenchmarkSubmitStudy prices submitting a study job on a log-less service:
// validating the request, planning it and queueing its canonical payload.
// Submitting builds no lab, fits nothing and scores nothing. The queued
// table1 jobs run on a lab warmed before the timer starts, and every eighth
// submission waits, untimed, for its job to end, so the queue stays short.
func BenchmarkSubmitStudy(b *testing.B) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	req := StudyRequest{Study: "table1", Environment: "bayreuth", SuiteSeed: 2011}
	if _, err := svc.RunStudy(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, err := svc.SubmitStudy(req)
		if err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			b.StopTimer()
			for !terminalState(status.State) {
				status, _ = svc.Jobs().Watch(context.Background(), status.ID, time.Second)
			}
			b.StartTimer()
		}
	}
}
