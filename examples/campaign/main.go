// Campaign example — the §IX what-if scenario end to end: start the
// scheduling service in-process, submit a declarative campaign that sweeps
// the Bayreuth environment from 8 to 256 nodes under the analytic and
// empirical simulators, poll it to completion over the typed client, and
// print the report plus the registry economics (each derived platform is
// fitted once and reused by every run of the grid).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)

	// 1. The service and an HTTP server on a loopback port.
	svc := service.New(service.DefaultOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("reprosrv serving on %s\n", base)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	client := service.NewClient(base)
	if err := client.Health(ctx); err != nil {
		log.Fatal(err)
	}

	// 2. The what-if question: the paper validated its models on 32 nodes —
	//    do its conclusions (the analytic simulator flips winners, the
	//    empirical one does not) survive on hypothetical platforms from 8 to
	//    256 nodes? The campaign sweeps the scale axis under both models.
	spec := campaign.Spec{
		Name:       "bayreuth-scale-sweep",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{8, 16, 32, 64, 128, 256}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}

	job, err := client.Submit(ctx, "campaigns", spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted %s (%s): %d platform scales × %d models, polling…\n",
		job.ID, job.Kind, len(spec.Platforms.Nodes), len(spec.Models))

	start := time.Now()
	done, err := client.Wait(ctx, "campaigns", job.ID, 200*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if done.State != service.JobDone {
		log.Fatalf("campaign ended %s: %s", done.State, done.Error)
	}
	fmt.Printf("campaign done in %.1fs\n\n%s", time.Since(start).Seconds(), done.Output)

	// 3. The registry after the sweep: one fit per derived platform, reused
	//    by every later run of the grid (hits > 0).
	models, err := client.Models(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfitted-model registry after the sweep:")
	for _, m := range models {
		fmt.Printf("  %-9s env=%-14s build=%8.1fms hits=%d\n",
			m.Kind, m.Environment, m.BuildMillis, m.Hits)
	}

	// 4. Graceful shutdown.
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := svc.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshut down cleanly")
}
