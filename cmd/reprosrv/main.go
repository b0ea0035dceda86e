// Command reprosrv serves the reproduction as a long-running HTTP daemon:
// scheduling and simulation requests are answered synchronously over
// registry-cached performance models (fitted once per environment and seed,
// reused across all requests — the paper's §VI/§VII measurement economics),
// whole studies (fig1…table2, ablation, …) run asynchronously on a bounded
// job queue, and declarative what-if campaigns (POST /v1/campaigns) sweep
// hypothetical platforms, workloads, algorithms and models over the same
// fit-once registry.
//
// Usage:
//
//	reprosrv -addr :8080 -log-format json -pprof
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/v1/schedule -d @request.json
//	curl -X POST localhost:8080/v1/campaigns -d @campaign.json
//
// With -store-dir the daemon becomes a replica of a durable cluster: jobs
// live in a WAL'd pool on disk (claimed by lease, reclaimed from crashed
// replicas), fitted models persist across restarts, and any number of
// replicas can share one store directory. Campaign, robustness and arrival
// jobs are sharded at cell granularity across every replica on the store;
// the merged report is byte-identical to a single process's. See
// docs/CLUSTER.md.
//
//	reprosrv -addr :8080 -store-dir /var/lib/repro -replica-id r1 -lease-ttl 10s
//
// Observability: GET /metrics serves the Prometheus exposition, every
// request is logged as a structured line (-log-format json|text), and
// -metrics-addr can serve /metrics and /debug/pprof/ on a separate private
// listener. See docs/SERVICE.md for the API reference and a walkthrough,
// docs/OBSERVABILITY.md for the metric catalogue, and docs/CAMPAIGNS.md for
// the campaign spec schema.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"log/slog"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// flagSet reports whether a flag was explicitly set on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprosrv: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", 42, "default measurement-campaign noise seed")
		suiteSeed   = flag.Int64("suite-seed", 2011, "default seed for the 54-DAG study suite")
		parallel    = flag.Int("parallel", 0, "per-study cell-engine worker pool size (0 = one per CPU)")
		jobWorkers  = flag.Int("job-workers", 2, "claim loops: one-cell jobs and cells of larger jobs run at once")
		queueCap    = flag.Int("queue", 16, "queued-job capacity (of the whole pool, with -store-dir)")
		retain      = flag.Int("retain", 64, "finished jobs whose results are retained")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget")
		logFormat   = flag.String("log-format", "text", "request log format: text or json")
		metricsAddr = flag.String("metrics-addr", "", "optional separate listener for /metrics and /debug/pprof/ (e.g. a private port)")
		enablePprof = flag.Bool("pprof", false, "mount /debug/pprof/ on the API handler")
		storeDir    = flag.String("store-dir", "", "durable store directory: jobs and fitted models persist here and are shared with every replica on the same directory")
		replicaID   = flag.String("replica-id", "", "this replica's lease-holder identity (default hostname-pid; requires -store-dir)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "job lease duration; a replica silent this long loses its jobs to the reclaimer (requires -store-dir)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}

	opts := service.DefaultOptions()
	opts.Seed = *seed
	opts.SuiteSeed = *suiteSeed
	opts.Parallelism = *parallel
	opts.JobWorkers = *jobWorkers
	opts.QueueCap = *queueCap
	opts.Retain = *retain
	opts.Logger = slog.New(handler)
	opts.EnablePprof = *enablePprof
	if *storeDir == "" && (*replicaID != "" || flagSet("lease-ttl")) {
		log.Fatal("-replica-id and -lease-ttl require -store-dir")
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		opts.Store = st
		opts.ReplicaID = *replicaID
		opts.LeaseTTL = *leaseTTL
	}
	svc := service.New(opts)
	if *storeDir != "" {
		log.Printf("replica %s on store %s (lease ttl %s)", svc.Jobs().Replica(), *storeDir, *leaseTTL)
	}

	srv := newServer(*addr, svc.Handler())

	if *metricsAddr != "" {
		// The private listener always exposes pprof: it is the operator's
		// port, not the API surface -pprof gates.
		mmux := http.NewServeMux()
		mmux.Handle("GET /metrics", obs.Default.Handler())
		mmux.HandleFunc("/debug/pprof/", pprof.Index)
		mmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv := newServer(*metricsAddr, mmux)
		go func() {
			log.Printf("metrics listening on %s", *metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics listener: %v", err)
			}
		}()
		defer msrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("job shutdown: %v", err)
	}
	log.Printf("bye")
}

// Connection timeouts of both listeners. A client gets readHeaderTimeout to
// send its request headers and an idle keep-alive connection is closed
// after idleTimeout, so neither a slow sender nor a silent client holds a
// connection forever. There is deliberately no WriteTimeout (nor a
// ReadTimeout, which would end the body read of a large upload): a ?watch
// long-poll holds its response for up to its 60 s cap, and a pprof profile
// for its whole duration, and a shorter write deadline would cut both off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
