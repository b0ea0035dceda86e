package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/obs"
)

// apiError is the JSON error payload every handler returns on failure.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeReply(w, status, apiError{Error: err.Error()})
}

// writeServiceError distinguishes request faults (400) from server-side
// failures (500).
func writeServiceError(w http.ResponseWriter, err error) {
	if IsBadRequest(err) {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// decode reads the first JSON value of the body into v, answering 400 for
// a value it cannot decode and 413 for a body over maxBodyBytes.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz            liveness
//	POST /v1/schedule        schedule a DAG, get schedule + predicted makespan
//	POST /v1/simulate        schedule a DAG, get the simulated timeline; a
//	                         body with "dags" (an array) instead of "dag" is
//	                         served as one batch under a single model
//	                         resolution
//	POST /v1/jobs            submit a study, one of the paper's artifacts
//	GET  /v1/jobs            list retained jobs, of every family
//	GET  /v1/jobs/{id}       poll one job, of any family
//	POST /v1/<family>        submit a spec of a job family: campaigns (what-if
//	                         sweeps), robustness (Monte Carlo winner-stability
//	                         studies), arrivals (online-arrival scenarios)
//	GET  /v1/<family>        list the family's retained jobs
//	GET  /v1/<family>/{id}   poll one job of the family
//	GET  /v1/models          fitted-model registry contents and build cost
//	GET  /metrics            Prometheus text exposition
//
// Every poll endpoint accepts ?watch=<duration> to long-poll: the response
// is deferred until the job's state or progress changes, or the duration
// elapses.
//
// Every route is wrapped in the observability middleware: per-route request
// metrics, structured request logs with request IDs, and the guarantee that
// any error response — including the mux's own 404/405 — carries the JSON
// {"error": ...} envelope.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]*routeInstruments{"": instrumentsFor("unmatched")}
	handle := func(pattern string, h http.Handler) {
		routes[pattern] = instrumentsFor(pattern)
		mux.Handle(pattern, named(pattern, h))
	}
	handleFunc := func(pattern string, h http.HandlerFunc) { handle(pattern, h) }
	handleFunc("GET /healthz", s.handleHealth)
	handleFunc("POST /v1/schedule", s.handleSchedule)
	handleFunc("POST /v1/simulate", s.handleSimulate)
	for _, f := range s.families {
		handleFunc("POST /v1/"+f.Route, func(w http.ResponseWriter, r *http.Request) { s.handleSubmit(w, r, f) })
		handleFunc("GET /v1/"+f.Route, func(w http.ResponseWriter, r *http.Request) { s.handleList(w, f) })
		handleFunc("GET /v1/"+f.Route+"/{id}", func(w http.ResponseWriter, r *http.Request) { s.handleGet(w, r, f) })
	}
	handleFunc("GET /v1/models", s.handleModels)
	handle("GET /metrics", obs.Default.Handler())
	return s.withObs(routes, mux)
}

// HealthResponse is the /healthz payload: liveness plus basic process
// vitals, cheap enough to scrape aggressively.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
}

// buildVersion resolves the module version stamped into the binary; "(devel)"
// for plain `go build`, "unknown" when no build info is embedded (e.g. some
// test binaries).
var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
})

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
	})
}

func (s *Service) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !decodeRequest(w, r, &req, nil) {
		return
	}
	resp, err := s.Schedule(r.Context(), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeReply(w, http.StatusOK, resp)
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	var dags *[]*dag.Graph
	if !decodeRequest(w, r, &req, &dags) {
		return
	}
	if dags != nil {
		if req.DAG != nil {
			writeError(w, http.StatusBadRequest,
				errors.New(`service: request has both "dag" and "dags"; send one`))
			return
		}
		resp, err := s.SimulateBatch(r.Context(), SimulateBatchRequest{
			DAGs: *dags, Algorithm: req.Algorithm, Model: req.Model,
			Environment: req.Environment, Seed: req.Seed,
		})
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeReply(w, http.StatusOK, resp)
		return
	}
	resp, err := s.Simulate(r.Context(), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeReply(w, http.StatusOK, resp)
}

// handleSubmit serves POST /v1/<route>: 202 with the queued job, 400 for a
// spec the family rejects, 429 and 503 when the queue cannot take it.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request, f *Family) {
	var body json.RawMessage
	if !decode(w, r, &body) {
		return
	}
	status, err := s.submit(f, body)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeServiceError(w, err)
	default:
		writeJSON(w, http.StatusAccepted, status)
	}
}

// handleList serves GET /v1/<route>: the retained jobs the route exposes.
func (s *Service) handleList(w http.ResponseWriter, f *Family) {
	all := s.jobs.List()
	out := make([]JobStatus, 0, len(all))
	for _, j := range all {
		if f.exposes(j.Kind) {
			out = append(out, j)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// watchParam parses the optional ?watch long-poll parameter: absent means a
// plain poll; a bare "watch" selects the default window; otherwise the value
// is a Go duration, capped so a stuck client cannot pin a connection.
func watchParam(r *http.Request) (time.Duration, bool, error) {
	const (
		defaultWatch = 30 * time.Second
		maxWatch     = 60 * time.Second
	)
	if !r.URL.Query().Has("watch") {
		return 0, false, nil
	}
	raw := r.URL.Query().Get("watch")
	if raw == "" {
		return defaultWatch, true, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, false, fmt.Errorf("service: bad watch duration %q: %w", raw, err)
	}
	if d <= 0 {
		return 0, false, fmt.Errorf("service: watch duration %q must be positive", raw)
	}
	if d > maxWatch {
		d = maxWatch
	}
	return d, true, nil
}

// handleGet serves GET /v1/<route>/{id}: a plain status read, or — with
// ?watch — a long-poll that responds as soon as the job's state or progress
// moves. A job of a kind the route does not expose is not found.
func (s *Service) handleGet(w http.ResponseWriter, r *http.Request, f *Family) {
	d, watch, err := watchParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	notFound := errors.New("service: no such " + f.Noun)
	id := r.PathValue("id")
	status, ok := s.jobs.Get(id)
	if !ok || !f.exposes(status.Kind) {
		writeError(w, http.StatusNotFound, notFound)
		return
	}
	if watch {
		if status, ok = s.jobs.Watch(r.Context(), id, d); !ok {
			writeError(w, http.StatusNotFound, notFound)
			return
		}
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.Models())
}
