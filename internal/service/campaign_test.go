package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dag"
)

// acceptanceSpec is the 3-axis acceptance grid: 4 platform scales × 2
// algorithms × 2 models over the n=2000 half of the Table I suite.
func acceptanceSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "acceptance",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{6, 8, 12, 16}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}
}

// TestHTTPCampaignEndToEnd drives the acceptance criterion over the wire: a
// 3-axis campaign submitted through POST /v1/campaigns completes, reuses
// registry-cached fits (the hit counters at GET /v1/models increase), and
// renders the per-axis report.
func TestHTTPCampaignEndToEnd(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	job, err := client.Submit(ctx, "campaigns", acceptanceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.Kind, "campaign") {
		t.Errorf("campaign job kind = %q", job.Kind)
	}
	done, err := client.Wait(ctx, "campaigns", job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("campaign ended %s (%s), want done", done.State, done.Error)
	}
	for _, want := range []string{
		`Campaign "acceptance"`,
		"8 cells (4 platforms × 1 workloads × 2 models) × 2 algorithms",
		"bayreuth-x6", "bayreuth-x16",
		"Winner prediction",
		"Axis summary — platform",
		"Axis summary — model",
	} {
		if !strings.Contains(done.Output, want) {
			t.Errorf("campaign report missing %q:\n%s", want, done.Output)
		}
	}

	// The grid resolved one model per cell and amortized it over the cell's
	// algorithm runs; the 8 distinct (platform, kind) fits are registered.
	models, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]bool{}
	for _, m := range models {
		envs[m.Environment] = true
	}
	for _, env := range []string{"bayreuth-x6", "bayreuth-x8", "bayreuth-x12", "bayreuth-x16"} {
		if !envs[env] {
			t.Errorf("derived platform %s missing from /v1/models: %+v", env, models)
		}
	}

	// A plain schedule request against one of the campaign's derived
	// platforms reuses its fit: the request is a cache hit and the registry
	// counters move — the fit-once/reuse-many economics across entry points.
	g := dag.MustGenerate(dag.GenParams{Tasks: 6, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 3})
	resp, err := client.Schedule(ctx, ScheduleRequest{DAG: g, Model: "empirical", Environment: "bayreuth-x8"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("schedule request against a campaign-fitted platform missed the registry cache")
	}
	var hits int64
	models, err = client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		hits += m.Hits
	}
	if hits == 0 {
		t.Errorf("no registry cache hits after reusing a campaign fit: %+v", models)
	}

	// The campaign listing shows it; the study-job listing does too (one
	// shared queue), and campaign IDs resolve only on the campaign path.
	campaigns, err := client.List(ctx, "campaigns")
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 1 || campaigns[0].ID != job.ID {
		t.Errorf("campaign list = %+v, want just %s", campaigns, job.ID)
	}
}

func TestHTTPCampaignBadSpecs(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	cases := []campaign.Spec{
		{Platforms: campaign.PlatformAxis{Base: "perlmutter"}},            // unknown base
		{Algorithms: []string{"SJF"}},                                     // unknown algorithm
		{Models: []string{"oracular"}},                                    // unknown model
		{Platforms: campaign.PlatformAxis{Nodes: seqInts(33)}},            // axis too long
		{Workloads: campaign.WorkloadAxis{Sizes: []int{1234}}},            // bad size filter
		{Platforms: campaign.PlatformAxis{BandwidthScale: []float64{-1}}}, // bad scale
		// Only resolving the plan against the base environment can see this
		// one: 0 and 32 are the same 32-node platform twice.
		{Platforms: campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{0, 32}}},
	}
	for i, spec := range cases {
		if _, err := client.Submit(ctx, "campaigns", spec); err == nil {
			t.Errorf("case %d: bad campaign spec accepted", i)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("case %d: err = %v, want HTTP 400", i, err)
		}
	}

	// A study job is not addressable as a campaign.
	study, err := svc.SubmitStudy(StudyRequest{Study: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(ctx, "campaigns", study.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("study job served on the campaign path: err = %v, want 404", err)
	}
}

// seqInts returns {1, 2, ..., n}.
func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
