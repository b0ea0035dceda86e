package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/robust"
)

// stabilitySpec is a small Monte Carlo study: the paper's HCPA-vs-MCPA pair
// on the base platform under the analytic model, 4 trials at two levels.
func stabilitySpec() robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "stability",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{
			Trials: 4,
			Levels: []float64{0.05, 0.2},
		},
	}
}

// TestHTTPRobustnessEndToEnd drives a robustness study over the wire: a
// spec submitted through POST /v1/robustness completes, renders the base
// campaign followed by the stability sections, and is listed under
// GET /v1/robustness but not under GET /v1/campaigns.
func TestHTTPRobustnessEndToEnd(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	job, err := client.Submit(ctx, "robustness", stabilitySpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "robust:stability" {
		t.Errorf("robustness job kind = %q, want robust:stability", job.Kind)
	}
	done, err := client.Wait(ctx, "robustness", job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("robustness study ended %s (%s), want done", done.State, done.Error)
	}
	for _, want := range []string{
		`Campaign "stability"`,
		"Winner prediction",
		"Robustness — Monte Carlo model perturbation",
		"trials=4 per level",
		"Winner stability",
		"Critical noise level",
		"HCPA vs MCPA",
	} {
		if !strings.Contains(done.Output, want) {
			t.Errorf("robustness report missing %q:\n%s", want, done.Output)
		}
	}

	studies, err := client.List(ctx, "robustness")
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 1 || studies[0].ID != job.ID {
		t.Errorf("GET /v1/robustness = %+v, want the submitted study", studies)
	}
	campaigns, err := client.List(ctx, "campaigns")
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 0 {
		t.Errorf("robustness study leaked into GET /v1/campaigns: %+v", campaigns)
	}
	if _, err := client.Get(ctx, "campaigns", job.ID); err == nil {
		t.Error("GET /v1/campaigns/{robustness-id} should 404")
	}
}

// TestRobustnessTrialsZeroMatchesCampaign pins the reduction guarantee at
// the service layer: a robustness run with trials=0 returns byte-for-byte
// the same report as the equivalent campaign run against the same registry.
func TestRobustnessTrialsZeroMatchesCampaign(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	ctx := context.Background()

	spec := stabilitySpec()
	spec.Robustness = robust.Axis{}
	robustOut, err := svc.RunRobustness(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	campaignOut, err := svc.RunCampaign(ctx, spec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if robustOut != campaignOut {
		t.Errorf("trials=0 robustness output differs from the campaign output:\n--- robustness ---\n%s\n--- campaign ---\n%s",
			robustOut, campaignOut)
	}
}

// TestSubmitRobustnessRejectsBadSpecs checks up-front validation maps to
// bad requests.
func TestSubmitRobustnessRejectsBadSpecs(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())

	bad := stabilitySpec()
	bad.Robustness.Trials = robust.MaxTrials + 1
	if _, err := svc.SubmitRobustness(bad); err == nil || !IsBadRequest(err) {
		t.Errorf("oversized trials: err = %v, want bad request", err)
	}

	unknown := stabilitySpec()
	unknown.Platforms.Base = "atlantis"
	if _, err := svc.SubmitRobustness(unknown); err == nil || !IsBadRequest(err) {
		t.Errorf("unknown base environment: err = %v, want bad request", err)
	}

	// Only resolving the plan against the base environment can see this one:
	// 0 and 32 are the same 32-node platform twice.
	twice := stabilitySpec()
	twice.Platforms.Nodes = []int{0, 32}
	if _, err := svc.SubmitRobustness(twice); err == nil || !IsBadRequest(err) {
		t.Errorf("base platform listed twice: err = %v, want bad request", err)
	}
}
