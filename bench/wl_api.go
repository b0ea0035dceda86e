package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// apiWorkload is api-small and api-large: a warm reprosrv handler on a
// loopback listener, driven by closed-loop clients that each wait for their
// reply. api-small posts one 10-task Table I DAG per request, alternating
// /v1/schedule and /v1/simulate, so the HTTP/JSON path dominates; api-large
// posts batches of 100-task DAGs to /v1/simulate, so the engines dominate
// behind the same HTTP layer.
type apiWorkload struct {
	cfg   config
	large bool

	svc     *service.Service
	srv     *http.Server
	base    string
	clients []*http.Client
	oracle  *oracle
	reqs    []*apiRequest
}

// apiRequest is one pre-encoded request with the makespans the oracle says
// the reply must carry.
type apiRequest struct {
	path        string
	body        []byte
	key         []byte // the JSON key whose values are the makespans
	want        []float64
	algo, model string
	dags        []*dag.Graph
}

const (
	largeTasks   = 100
	largeBatch   = 4
	largeBatches = 32
	// requestTimeout only keeps a hung server from hanging the run. It is far
	// above any reply time on purpose: a shared host stalls for a second now
	// and then, and a slow reply belongs in the latency numbers, not among
	// the failed ops.
	requestTimeout = 30 * time.Second
)

func (w *apiWorkload) setup() error {
	var err error
	if w.oracle, err = newOracle(); err != nil {
		return err
	}
	if w.large {
		err = w.generateLarge()
	} else {
		err = w.generateSmall()
	}
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })

	w.svc = service.New(service.DefaultOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.svc.Handler()}
	go func() { _ = w.srv.Serve(ln) }() // returns when teardown shuts the server down
	w.base = "http://" + ln.Addr().String()
	w.clients = nil
	for c := 0; c < clients(); c++ {
		w.clients = append(w.clients, &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		})
	}
	// Warm-up: one pass over every request primes the registry (the fits),
	// the scratch and engine pools and the connections.
	warm := len(w.reqs)
	if w.large {
		warm = 2 * clients()
	}
	for i := 0; i < warm; i++ {
		if err := w.do(i%clients(), w.reqs[i%len(w.reqs)]); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func (w *apiWorkload) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx)
	_ = w.svc.Close(ctx)
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.srv = nil
}

// generateSmall crosses the seed's Table I suite with three algorithms and
// three models, alternating the two synchronous endpoints.
func (w *apiWorkload) generateSmall() error {
	suite, err := dag.GenerateSuite(w.cfg.Seed)
	if err != nil {
		return err
	}
	if w.cfg.Tiny {
		suite = suite[:3]
	}
	w.reqs = nil
	for _, inst := range suite {
		for _, algo := range apiAlgorithms {
			for _, model := range apiModels {
				want, err := w.oracle.makespan(inst.Graph, algo, model)
				if err != nil {
					return err
				}
				body, err := json.Marshal(service.ScheduleRequest{DAG: inst.Graph, Algorithm: algo, Model: model})
				if err != nil {
					return err
				}
				r := &apiRequest{path: "/v1/simulate", key: []byte(`"makespan": `), body: body,
					want: []float64{want}, algo: algo, model: model, dags: []*dag.Graph{inst.Graph}}
				if len(w.reqs)%2 == 0 {
					r.path, r.key = "/v1/schedule", []byte(`"sim_makespan": `)
				}
				w.reqs = append(w.reqs, r)
			}
		}
	}
	return nil
}

// generateLarge builds batches of generated 100-task DAGs; each batch shares
// one (algorithm, model) pair, as the batch endpoint requires.
func (w *apiWorkload) generateLarge() error {
	batches, tasks := largeBatches, largeTasks
	if w.cfg.Tiny {
		batches, tasks = 2, 20
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	w.reqs = nil
	for b := 0; b < batches; b++ {
		r := &apiRequest{path: "/v1/simulate", key: []byte(`"makespan": `),
			algo: apiAlgorithms[b%len(apiAlgorithms)], model: apiModels[(b/len(apiAlgorithms))%len(apiModels)]}
		for k := 0; k < largeBatch; k++ {
			g, err := dag.Generate(dag.GenParams{
				Tasks:         tasks,
				InputMatrices: dag.SuiteWidths[rng.Intn(len(dag.SuiteWidths))],
				AddRatio:      dag.SuiteRatios[rng.Intn(len(dag.SuiteRatios))],
				N:             dag.SuiteSizes[rng.Intn(len(dag.SuiteSizes))],
				Seed:          rng.Int63(),
			})
			if err != nil {
				return err
			}
			want, err := w.oracle.makespan(g, r.algo, r.model)
			if err != nil {
				return err
			}
			r.dags = append(r.dags, g)
			r.want = append(r.want, want)
		}
		var err error
		r.body, err = json.Marshal(service.SimulateBatchRequest{DAGs: r.dags, Algorithm: r.algo, Model: r.model})
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, r)
	}
	return nil
}

// do posts one request on a client's connection and verifies the reply: a
// 200 whose makespans equal the oracle's bit for bit. The error says which of
// the three went wrong.
func (w *apiWorkload) do(client int, r *apiRequest) error {
	resp, err := w.clients[client].Post(w.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end above; nothing left to lose
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d: %.200s", r.path, resp.StatusCode, body)
	}
	if !sameMakespans(body, r.key, r.want) {
		return fmt.Errorf("%s (%s, %s): makespans differ from the oracle's", r.path, r.algo, r.model)
	}
	return nil
}

// sameMakespans scans an indented JSON reply for every value of key and
// compares them with want, bitwise and in order.
func sameMakespans(body, key []byte, want []float64) bool {
	for _, v := range want {
		i := bytes.Index(body, key)
		if i < 0 {
			return false
		}
		body = body[i+len(key):]
		end := bytes.IndexAny(body, ",\n")
		if end < 0 {
			return false
		}
		got, err := strconv.ParseFloat(string(body[:end]), 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(v) {
			return false
		}
	}
	return !bytes.Contains(body, key)
}

func (w *apiWorkload) run(d time.Duration, tr *tracer) (*runStats, error) {
	p := loop{Clients: clients(), D: d, Stride: 1, Tracer: tr, Op: func(c, i int) (float64, bool) {
		r := w.reqs[i%len(w.reqs)]
		err := w.do(c, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: request %d: %v\n", i, err)
		}
		return float64(len(r.want)), err == nil
	}}.run()
	return &runStats{
		Ops:         p.ops(),
		Throughput:  p.ops() / p.Elapsed,
		LatenciesMS: p.latenciesMS(),
		TailQ:       w.tailQ(),
		Attempted:   p.Attempted,
		Failed:      p.Failed,
	}, nil
}

// tailQ is the percentile reported as latency_tail_ms: api-small completes
// tens of thousands of requests in a run, api-large a few hundred to a few
// thousand depending on how fast the host is at the time, which leaves ten
// samples beyond p95 but not always beyond p99.
func (w *apiWorkload) tailQ() float64 {
	if w.large {
		return 0.95
	}
	return 0.99
}

// walk replays sampled requests rung by rung, outermost first:
// HTTP round trip ⊃ Handler().ServeHTTP ⊃ {JSON decode, the direct Service
// call ⊃ {ModelRegistry.Get, the engines}, JSON encode}. The engine rungs are
// a pooled-scratch schedule build and tgrid.Run, as in the service.
func (w *apiWorkload) walk(tr *tracer) (map[string]float64, error) {
	n := 240
	if w.large {
		n = 48
	}
	if w.cfg.Tiny {
		n = 4
	}
	ctx := context.Background()
	handler := w.svc.Handler()
	seed := service.DefaultOptions().Seed
	// The service builds schedules in pooled scratch storage; so do the
	// engine rungs of the walk.
	scratches := sync.Pool{New: func() any { return sched.NewScratch() }}
	for j := 0; j < n; j++ {
		r := w.reqs[j%len(w.reqs)]
		var failed error
		root := tr.do(j, 0, "http.roundtrip", func() {
			if err := w.do(0, r); err != nil {
				failed = fmt.Errorf("walked request %d: %w", j, err)
			}
		})
		h := tr.do(j, root, "service.handler", func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
			if rec.Code != http.StatusOK {
				failed = fmt.Errorf("handler answered %d", rec.Code)
			}
		})
		registryGet := func(parent int) {
			tr.do(j, parent, "registry.get", func() {
				_, _, err := w.svc.Registry().Get(service.ModelKey{Environment: "bayreuth", Kind: r.model, Seed: seed})
				failed = firstErr(failed, err)
			})
		}
		var reply any
		if w.large {
			var req service.SimulateBatchRequest
			tr.do(j, h, "json.decode", func() { failed = firstErr(failed, json.Unmarshal(r.body, &req)) })
			s := tr.do(j, h, "service.simulate_batch", func() {
				resp, err := w.svc.SimulateBatch(ctx, req)
				reply, failed = resp, firstErr(failed, err)
			})
			registryGet(s)
			// The service spreads a batch over its worker pool; the rung
			// below it is the same pool running the bare engines.
			tr.do(j, s, "engines", func() {
				err := experiments.ForEachCell(0, len(r.dags), func(i int) error {
					sc := scratches.Get().(*sched.Scratch)
					defer scratches.Put(sc)
					schedule, err := w.oracle.buildPooled(sc, r.dags[i], r.algo, r.model)
					if err != nil {
						return err
					}
					_, err = w.oracle.simulate(schedule, r.model)
					return err
				})
				failed = firstErr(failed, err)
			})
		} else {
			var req service.ScheduleRequest
			tr.do(j, h, "json.decode", func() { failed = firstErr(failed, json.Unmarshal(r.body, &req)) })
			var s int
			if r.path == "/v1/schedule" {
				s = tr.do(j, h, "service.schedule", func() {
					resp, err := w.svc.Schedule(ctx, req)
					reply, failed = resp, firstErr(failed, err)
				})
			} else {
				s = tr.do(j, h, "service.simulate", func() {
					resp, err := w.svc.Simulate(ctx, req)
					reply, failed = resp, firstErr(failed, err)
				})
			}
			registryGet(s)
			var schedule *sched.Schedule
			tr.do(j, s, "sched.scratch_build", func() {
				sc := scratches.Get().(*sched.Scratch)
				defer scratches.Put(sc)
				var err error
				schedule, err = w.oracle.buildPooled(sc, r.dags[0], r.algo, r.model)
				failed = firstErr(failed, err)
			})
			if failed != nil {
				return nil, failed
			}
			tr.do(j, s, "tgrid.run", func() {
				_, err := w.oracle.simulate(schedule, r.model)
				failed = firstErr(failed, err)
			})
		}
		tr.do(j, h, "json.encode", func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			failed = firstErr(failed, enc.Encode(reply))
		})
		if failed != nil {
			return nil, failed
		}
	}
	if w.large {
		return w.probeLarge(tr)
	}
	return w.probeSmall(tr)
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

const us, ms = 1e3, 1e6 // nanoseconds per unit

// probeSmall reads api-small's per-layer metrics off the walk and probes the
// entry points the walk cannot isolate, all on the 10-task inputs.
func (w *apiWorkload) probeSmall(tr *tracer) (map[string]float64, error) {
	n, batch := 200, 1000
	if w.cfg.Tiny {
		n, batch = 3, 10
	}
	direct := median(append(tr.durations("service.simulate"), tr.durations("service.schedule")...))
	out := map[string]float64{
		"service.http_roundtrip_us":    tr.med("http.roundtrip") / us,
		"service.handler_us":           tr.med("service.handler") / us,
		"service.schedule_direct_us":   tr.med("service.schedule") / us,
		"service.simulate_direct_us":   tr.med("service.simulate") / us,
		"service.json_decode_us":       tr.med("json.decode") / us,
		"service.json_encode_us":       tr.med("json.encode") / us,
		"service.http_overhead_share":  1 - direct/tr.med("http.roundtrip"),
		"sched.scratch_build_small_us": tr.med("sched.scratch_build") / us,
		"tgrid.run_small_us":           tr.med("tgrid.run") / us,
	}

	// One representative input for the steady-state probes.
	r := w.reqs[0]
	g, model := r.dags[0], w.oracle.models[r.model]
	cost, comm := perfmodel.CostFunc(model), perfmodel.CommFunc(model, w.oracle.cluster)
	schedule, err := w.oracle.build(g, "HCPA", r.model)
	if err != nil {
		return nil, err
	}

	for _, algo := range []string{"HCPA", "MCPA"} {
		out["sched.build_"+strings.ToLower(algo)+"_small_us"] = probe(tr, "sched.build."+algo, n, 1, func() {
			_, err = w.oracle.build(g, algo, r.model)
		}) / us
	}
	sc := sched.NewScratch()
	out["sched.allocs_per_scratch_build"] = allocsPer(n, func() {
		sc.Bind(g, w.oracle.cluster.Nodes, cost)
		_, err = sc.Build(sched.HCPA{}, comm)
	})
	if err != nil {
		return nil, err
	}

	rep := tgrid.NewReplayer()
	base := tgrid.ModelTiming{Model: model}
	out["tgrid.bind_us"] = probe(tr, "tgrid.bind", n, 1, func() { err = firstErr(err, rep.Bind(w.oracle.net, schedule, base)) }) / us
	var unscaled tgrid.TimingScaler = tgrid.Unscaled{Timing: base}
	replay := func() { _, err = rep.Replay(w.oracle.net, unscaled) }
	out["tgrid.replay_small_us"] = probe(tr, "tgrid.replay", n, 1, replay) / us
	out["tgrid.allocs_per_replay"] = allocsPer(n, replay)
	if err != nil {
		return nil, err
	}

	solve := contendedSolve(w.oracle)
	out["simgrid.solve_contended_us"] = probe(tr, "simgrid.solve_contended", n, 1, solve) / us
	out["simgrid.allocs_per_run"] = allocsPer(n, solve)

	params := dag.SuiteParams(w.cfg.Seed)
	k := 0
	out["dag.generate_us"] = probe(tr, "dag.generate", n, 1, func() {
		_, err = dag.Generate(params[k%len(params)])
		k++
	}) / us
	var exported bytes.Buffer
	if err := g.WriteJSON(&exported); err != nil {
		return nil, err
	}
	out["dag.import_json_us"] = probe(tr, "dag.import_json", n, 1, func() { _, err = dag.Import(exported.Bytes()) }) / us
	if err != nil {
		return nil, err
	}

	key := service.ModelKey{Environment: "bayreuth", Kind: "empirical", Seed: service.DefaultOptions().Seed}
	out["service.registry_get_ns"] = probe(tr, "registry.get_warm", n, batch, func() { _, _, err = w.svc.Registry().Get(key) })
	fits := n / 10
	if fits < 2 {
		fits = 2
	}
	out["service.registry_cold_fit_ms"] = probe(tr, "registry.cold_fit", fits, 1, func() {
		opts := service.DefaultOptions()
		_, _, err = service.NewModelRegistry(opts.Profile, opts.Empirical).Get(key)
	}) / ms
	if err != nil {
		return nil, err
	}

	// A finished job to read back, and the metrics page, both in process.
	st, err := w.svc.SubmitStudy(service.StudyRequest{Study: "table1"})
	if err != nil {
		return nil, err
	}
	if _, err := waitJob(w.svc, st.ID, jobTimeout); err != nil {
		return nil, err
	}
	out["service.status_get_us"] = probe(tr, "service.status_get", n, 10, func() { w.svc.Jobs().Get(st.ID) }) / us
	handler := w.svc.Handler()
	out["service.metrics_scrape_us"] = probe(tr, "service.metrics_scrape", n, 1, func() {
		handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}) / us
	return out, nil
}

// contendedSolve is the max-min solver's contended scenario (the old
// BenchmarkMaxMinSolver): 64 transfers over the 32-node star, one engine and
// one action set replayed through the Reset lifecycle.
func contendedSolve(o *oracle) func() {
	net, nodes := o.net, o.cluster.Nodes
	actions := make([]*simgrid.Action, 0, 64)
	for f := 0; f < 64; f++ {
		src, dst := f%nodes, (f*7+5)%nodes
		if src == dst {
			dst = (dst + 1) % nodes
		}
		bytes := [][]float64{{0, 1e6 * float64(f+1)}, {0, 0}}
		actions = append(actions, net.Ptask(fmt.Sprintf("f%d", f), []int{src, dst}, nil, bytes))
	}
	e := net.NewEngine()
	return func() {
		e.Reset(nil)
		for _, a := range actions {
			a.Reset()
			e.Add(a)
		}
		_, _ = e.Run() // the scenario cannot deadlock; the old benchmark pins that
	}
}

// probeLarge reads api-large's per-layer metrics: the batch ladder, and the
// engines alone on one 100-task DAG.
func (w *apiWorkload) probeLarge(tr *tracer) (map[string]float64, error) {
	n := 40
	if w.cfg.Tiny {
		n = 3
	}
	out := map[string]float64{
		"service.batch_roundtrip_ms":       tr.med("http.roundtrip") / ms,
		"service.simulate_batch_direct_ms": tr.med("service.simulate_batch") / ms,
		"service.batch_engine_share":       tr.med("engines") / tr.med("http.roundtrip"),
		"service.batch_json_ms":            (tr.med("json.decode") + tr.med("json.encode")) / ms,
	}
	r := w.reqs[0]
	g, model := r.dags[0], w.oracle.models[r.model]
	var schedule *sched.Schedule
	var err error
	out["sched.build_hcpa_large_us"] = probe(tr, "sched.build_large", n, 1, func() {
		schedule, err = w.oracle.build(g, "HCPA", r.model)
	}) / us
	if err != nil {
		return nil, err
	}
	out["tgrid.run_large_us"] = probe(tr, "tgrid.run_large", n, 1, func() { _, err = w.oracle.simulate(schedule, r.model) }) / us
	rep := tgrid.NewReplayer()
	base := tgrid.ModelTiming{Model: model}
	if err := firstErr(err, rep.Bind(w.oracle.net, schedule, base)); err != nil {
		return nil, err
	}
	out["tgrid.replay_large_us"] = probe(tr, "tgrid.replay_large", n, 1, func() {
		_, err = rep.Replay(w.oracle.net, tgrid.Unscaled{Timing: base})
	}) / us
	return out, err
}
