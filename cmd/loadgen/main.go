// Command loadgen drives a reprosrv daemon (or a multi-replica cluster)
// with concurrent load and reports throughput. Two modes:
//
//   - schedule: workers hammer the synchronous POST /v1/schedule path with
//     generated DAGs for a fixed duration, round-robin across -addrs, and
//     report requests/s. This exercises the registry cache and the pooled
//     scheduling scratch under concurrency.
//   - jobs: submit -jobs async study jobs round-robin across -addrs, poll
//     every job to a terminal state, and report jobs/s plus which replica
//     ran each job — on a shared -store-dir cluster the lease pool spreads
//     them across replicas.
//   - robust: submit ONE sharded robustness job (-cells grid cells of
//     -trials Monte Carlo trials each) and report its wall-clock and cells/s
//     plus how many cells each replica executed (scraped from every addr's
//     /metrics) — the scaling probe for cell-sharded clusters: the same job
//     against 1, 2, 4 replicas sharing a store directory measures the
//     speedup of cooperative execution directly.
//
// Usage:
//
//	loadgen -mode schedule -addrs http://127.0.0.1:8080 -c 8 -duration 10s
//	loadgen -mode jobs -addrs http://127.0.0.1:8080,http://127.0.0.1:8081 -jobs 16 -study table1
//	loadgen -mode robust -addrs http://127.0.0.1:8080,http://127.0.0.1:8081 -cells 8 -trials 48
//
// With -json the summary is machine-readable, for benchmark harnesses.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/robust"
	"repro/internal/service"
)

type summary struct {
	Mode          string         `json:"mode"`
	Addrs         int            `json:"addrs"`
	Concurrency   int            `json:"concurrency"`
	Requests      int64          `json:"requests"`
	Errors        int64          `json:"errors"`
	Seconds       float64        `json:"seconds"`
	RequestsPerS  float64        `json:"requests_per_sec"`
	JobsDone      int64          `json:"jobs_done,omitempty"`
	JobsFailed    int64          `json:"jobs_failed,omitempty"`
	JobsPerS      float64        `json:"jobs_per_sec,omitempty"`
	JobsByReplica map[string]int `json:"jobs_by_replica,omitempty"`
	Cells         int64          `json:"cells,omitempty"`
	CellsPerS     float64        `json:"cells_per_sec,omitempty"`
	CellsByAddr   map[string]int `json:"cells_by_addr,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addrs    = flag.String("addrs", "http://127.0.0.1:8080", "comma-separated daemon base URLs (round-robin)")
		mode     = flag.String("mode", "schedule", "load shape: schedule (sync requests/s) or jobs (async submit+poll)")
		conc     = flag.Int("c", 8, "concurrent workers (schedule mode)")
		duration = flag.Duration("duration", 10*time.Second, "run length (schedule mode)")
		jobs     = flag.Int("jobs", 8, "study jobs to submit (jobs mode)")
		study    = flag.String("study", "table1", "study each job runs (jobs mode)")
		cells    = flag.Int("cells", 8, "grid cells of the sharded job (robust mode)")
		trials   = flag.Int("trials", 48, "Monte Carlo trials per cell (robust mode)")
		model    = flag.String("model", "analytic", "performance model (schedule mode)")
		poll     = flag.Duration("poll", 100*time.Millisecond, "job poll interval (jobs mode)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall deadline")
		asJSON   = flag.Bool("json", false, "emit the summary as JSON")
	)
	flag.Parse()

	var clients []*service.Client
	for _, a := range strings.Split(*addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			clients = append(clients, service.NewClient(a))
		}
	}
	if len(clients) == 0 {
		log.Fatal("no -addrs")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	for i, c := range clients {
		if err := c.Health(ctx); err != nil {
			log.Fatalf("addr %d: %v", i, err)
		}
	}

	var sum summary
	var err error
	switch *mode {
	case "schedule":
		sum, err = runSchedule(ctx, clients, *conc, *duration, *model)
	case "jobs":
		sum, err = runJobs(ctx, clients, *jobs, *study, *poll)
	case "robust":
		sum, err = runRobust(ctx, clients, addrList(*addrs), *cells, *trials, *poll)
	default:
		log.Fatalf("unknown -mode %q (want schedule, jobs or robust)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
	sum.Addrs = len(clients)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("mode=%s addrs=%d workers=%d requests=%d errors=%d elapsed=%.2fs rate=%.1f req/s\n",
		sum.Mode, sum.Addrs, sum.Concurrency, sum.Requests, sum.Errors, sum.Seconds, sum.RequestsPerS)
	if sum.Mode == "jobs" {
		fmt.Printf("jobs done=%d failed=%d rate=%.2f jobs/s\n", sum.JobsDone, sum.JobsFailed, sum.JobsPerS)
		replicas := make([]string, 0, len(sum.JobsByReplica))
		for r := range sum.JobsByReplica {
			replicas = append(replicas, r)
		}
		sort.Strings(replicas)
		for _, r := range replicas {
			fmt.Printf("  replica %s: %d jobs\n", r, sum.JobsByReplica[r])
		}
	}
	if sum.Mode == "robust" {
		fmt.Printf("sharded job: %d cells in %.2fs = %.2f cells/s across %d replicas\n",
			sum.Cells, sum.Seconds, sum.CellsPerS, sum.Addrs)
		addrs := make([]string, 0, len(sum.CellsByAddr))
		for a := range sum.CellsByAddr {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			fmt.Printf("  %s: %d cells\n", a, sum.CellsByAddr[a])
		}
	}
}

// addrList splits the -addrs flag into trimmed non-empty base URLs.
func addrList(addrs string) []string {
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runSchedule hammers POST /v1/schedule until the duration elapses: each
// worker owns one generated DAG (distinct seeds, so the scheduling work
// varies) and loops against the round-robin address list.
func runSchedule(ctx context.Context, clients []*service.Client, workers int, d time.Duration, model string) (summary, error) {
	if workers < 1 {
		workers = 1
	}
	graphs := make([]*dag.Graph, workers)
	for i := range graphs {
		g, err := dag.Generate(dag.GenParams{
			Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: int64(1000 + i),
		})
		if err != nil {
			return summary{}, err
		}
		graphs[i] = g
	}

	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var requests, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.ScheduleRequest{DAG: graphs[i], Model: model}
			for n := i; runCtx.Err() == nil; n++ {
				_, err := clients[n%len(clients)].Schedule(runCtx, req)
				if runCtx.Err() != nil {
					return // deadline, not a server error
				}
				requests.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return summary{
		Mode: "schedule", Concurrency: workers,
		Requests: requests.Load(), Errors: errs.Load(),
		Seconds: elapsed, RequestsPerS: float64(requests.Load()) / elapsed,
	}, nil
}

// robustSpec builds the deterministic scaling workload: cells grid cells
// (one per platform scale) of trials Monte Carlo trials each. Every seed is
// explicit, so the report is byte-identical no matter how many replicas
// cooperate — which is what makes the wall-clock comparison meaningful.
func robustSpec(cells, trials int) robust.Spec {
	nodes := make([]int, cells)
	for i := range nodes {
		nodes[i] = 4 + 2*i
	}
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "loadgen-scaling",
			Seed:       42,
			Platforms:  campaign.PlatformAxis{Nodes: nodes},
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}, SuiteSeeds: []int64{2011}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: trials, Levels: []float64{0.05, 0.2, 0.5}},
	}
}

// cellsDoneCounter scrapes repro_jobs_cells_done_total from one replica's
// /metrics exposition (0 when absent or unreachable — a replica that never
// ran a cell may not have registered the counter yet).
func cellsDoneCounter(ctx context.Context, addr string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "repro_jobs_cells_done_total ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, "repro_jobs_cells_done_total "), 64)
		if err != nil {
			return 0
		}
		return int(v)
	}
	return 0
}

// runRobust submits one sharded robustness job and reports its wall-clock,
// cells/s, and the per-replica cell split — the direct scaling measurement:
// rerun with more -addrs replicas on the same store directory and compare.
func runRobust(ctx context.Context, clients []*service.Client, addrs []string, cells, trials int, poll time.Duration) (summary, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	before := make(map[string]int, len(addrs))
	for _, a := range addrs {
		before[a] = cellsDoneCounter(ctx, a)
	}

	start := time.Now()
	status, err := clients[0].Submit(ctx, "robustness", robustSpec(cells, trials))
	if err != nil {
		return summary{}, err
	}
	status, err = clients[0].Wait(ctx, "robustness", status.ID, poll)
	if err != nil {
		return summary{}, err
	}
	elapsed := time.Since(start).Seconds()
	if status.State != service.JobDone {
		return summary{}, fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error)
	}

	byAddr := make(map[string]int, len(addrs))
	total := 0
	for _, a := range addrs {
		if n := cellsDoneCounter(ctx, a) - before[a]; n > 0 {
			byAddr[a] = n
			total += n
		}
	}
	if total == 0 {
		// An in-memory daemon (no store) runs the cells in process without
		// the sharded-cell counter; count the grid so rates stay comparable.
		total = cells
	}
	return summary{
		Mode: "robust", Concurrency: 1, Requests: 2,
		Seconds: elapsed, RequestsPerS: 2 / elapsed,
		Cells: int64(total), CellsPerS: float64(total) / elapsed,
		CellsByAddr: byAddr,
	}, nil
}

// runJobs submits study jobs round-robin and polls each to a terminal
// state. Every submit and every poll counts as a request; each job is
// polled through the client it was submitted on (any replica of a durable
// cluster can answer for any job, but a plain in-memory daemon only knows
// its own jobs, and sticking to the submitter works for both).
func runJobs(ctx context.Context, clients []*service.Client, jobs int, study string, poll time.Duration) (summary, error) {
	if jobs < 1 {
		jobs = 1
	}
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	var requests, errs, done, failed atomic.Int64
	byReplica := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i%len(clients)]
			requests.Add(1)
			status, err := c.SubmitStudy(ctx, service.StudyRequest{Study: study})
			if err != nil {
				errs.Add(1)
				failed.Add(1)
				return
			}
			for status.State == service.JobQueued || status.State == service.JobRunning {
				select {
				case <-ctx.Done():
					failed.Add(1)
					return
				case <-time.After(poll):
				}
				requests.Add(1)
				status, err = c.Job(ctx, status.ID)
				if err != nil {
					errs.Add(1)
					failed.Add(1)
					return
				}
			}
			if status.State == service.JobDone {
				done.Add(1)
				mu.Lock()
				byReplica[status.Replica]++
				mu.Unlock()
			} else {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return summary{
		Mode: "jobs", Concurrency: jobs,
		Requests: requests.Load(), Errors: errs.Load(),
		Seconds: elapsed, RequestsPerS: float64(requests.Load()) / elapsed,
		JobsDone: done.Load(), JobsFailed: failed.Load(),
		JobsPerS:      float64(done.Load()) / elapsed,
		JobsByReplica: byReplica,
	}, nil
}
