package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/campaign"
)

// onlineSpec is a small arrival scenario: eight Poisson jobs over two
// canonical shapes, HCPA vs MCPA on 8-node partitions.
func onlineSpec() arrival.Spec {
	return arrival.Spec{
		Name: "online",
		Workloads: campaign.WorkloadAxis{
			Shapes: []string{"diamond", "reduction"},
			Sizes:  []int{2000},
		},
		Algorithms:  []string{"HCPA", "MCPA"},
		Rate:        0.05,
		Jobs:        8,
		ArrivalSeed: 7,
		Partition:   8,
	}
}

// TestHTTPArrivalEndToEnd drives an arrival scenario over the wire: a spec
// submitted through POST /v1/arrivals completes, renders the online
// scorecard, and is listed under GET /v1/arrivals but not under
// GET /v1/campaigns.
func TestHTTPArrivalEndToEnd(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	job, err := client.Submit(ctx, "arrivals", onlineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "arrival:online" {
		t.Errorf("arrival job kind = %q, want arrival:online", job.Kind)
	}
	done, err := client.Wait(ctx, "arrivals", job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("arrival scenario ended %s (%s), want done", done.State, done.Error)
	}
	for _, want := range []string{
		`Online arrivals "online"`,
		"8 jobs on bayreuth, partition 8 of 32 nodes (4 slots)",
		"poisson(rate=0.05/s,seed=7)",
		"Online scorecard",
		"Service-time prediction — fitted analytic model",
		"HCPA",
		"MCPA",
	} {
		if !strings.Contains(done.Output, want) {
			t.Errorf("arrival report missing %q:\n%s", want, done.Output)
		}
	}

	scenarios, err := client.List(ctx, "arrivals")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].ID != job.ID {
		t.Errorf("GET /v1/arrivals = %+v, want the submitted scenario", scenarios)
	}
	campaigns, err := client.List(ctx, "campaigns")
	if err != nil {
		t.Fatal(err)
	}
	if len(campaigns) != 0 {
		t.Errorf("arrival scenario leaked into GET /v1/campaigns: %+v", campaigns)
	}
	if _, err := client.Get(ctx, "campaigns", job.ID); err == nil {
		t.Error("GET /v1/campaigns/{arrival-id} should 404")
	}
}

// TestSubmitArrivalRejectsBadSpecs checks the whole rejection surface maps
// to bad requests at submit time — including the partition geometry, which
// needs the resolved environment's node count.
func TestSubmitArrivalRejectsBadSpecs(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())

	oversized := onlineSpec()
	oversized.Partition = 64
	if _, err := svc.SubmitArrival(oversized); err == nil || !IsBadRequest(err) {
		t.Errorf("partition 64 on a 32-node cluster: err = %v, want bad request", err)
	}

	unknown := onlineSpec()
	unknown.Environment = "atlantis"
	if _, err := svc.SubmitArrival(unknown); err == nil || !IsBadRequest(err) {
		t.Errorf("unknown environment: err = %v, want bad request", err)
	}

	badAlgo := onlineSpec()
	badAlgo.Algorithms = []string{"NOPE"}
	if _, err := svc.SubmitArrival(badAlgo); err == nil || !IsBadRequest(err) {
		t.Errorf("unknown algorithm: err = %v, want bad request", err)
	}
}
