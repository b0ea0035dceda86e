package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/testutil"
)

// decodeOracle is the request decoder the scanner replaced: one
// json.Decoder.Decode of the body into the route's request type.
func decodeOracle(body []byte, batch bool) (ScheduleRequest, *[]*dag.Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if !batch {
		var req ScheduleRequest
		err := dec.Decode(&req)
		return req, nil, err
	}
	var wire struct {
		ScheduleRequest
		DAGs *[]*dag.Graph `json:"dags"`
	}
	err := dec.Decode(&wire)
	return wire.ScheduleRequest, wire.DAGs, err
}

// sameGraphs reports the first difference between two graphs, either of
// which may be nil.
func sameGraphs(want, got *dag.Graph) string {
	if (want == nil) != (got == nil) {
		return fmt.Sprintf("graph %v, want %v", got != nil, want != nil)
	}
	if want == nil {
		return ""
	}
	return testutil.GraphDiff(want, got)
}

// requestSeeds are bodies on both sides of the canonical line.
func requestSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	corpus, err := testutil.FuzzCorpus("../dag/testdata/fuzz/FuzzDAGImport")
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, c := range corpus {
		if bytes.HasPrefix(bytes.TrimSpace(c), []byte("{")) {
			seeds = append(seeds,
				[]byte(`{"dag":`+string(c)+`,"model":"empirical"}`),
				[]byte(`{"algorithm":"MCPA","dags":[`+string(c)+`,`+string(c)+`]}`))
		}
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 12, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 5})
	for _, v := range []any{
		ScheduleRequest{DAG: g, Algorithm: "CPA", Model: "profile", Environment: "bayreuth", Seed: 42},
		SimulateBatchRequest{DAGs: []*dag.Graph{g, g}, Algorithm: "HCPA", Model: "empirical"},
	} {
		compact, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, compact, indented)
	}
	for _, s := range []string{
		`{}`, `{"dags":[]}`, `{"dag":{},"dags":[{}]}`, `{"dag":null}`, `{"dags":null}`, `{"dags":[null]}`,
		`{"Algorithm":"MCPA","dag":{}}`, `{"seed":1,"seed":2}`, `{"seed":"7"}`, `{"seed":1.5}`,
		`{"seed":-3,"model":"analytic","environment":"bayreuth","algorithm":"SEQ"}`,
		`{"model":"a\u0062c"}`, `{"unknown":[1,2,{"x":null}],"dag":{}}`,
		`{"dag":{"tasks":[{"id":0,"kernel":"mul","n":5}]}} trailing garbage`,
		`{"dag":{"tasks":[{"id":0,"kernel":"mul","n":5}],"edges":[[0,0]]}}`,
		`{"dag":{"tasks":[{"id":1,"kernel":"mul","n":5}]},"seed":"x"}`,
		`{"seed":"x","dag":{"tasks":[{"id":1,"kernel":"mul","n":5}]}}`,
		`{"dag":5}`, `{"dag":[]}`, `{"dags":{}}`, `[]`, `null`, ``, ` `, `{`, `{"dag":{"tasks":[`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzSimulateRequest holds the request decoder of /v1/schedule and
// /v1/simulate to one json.Decoder.Decode of the body: the same bodies
// accepted, the same fields and graphs, or the same 400 message, with
// whatever follows the first value ignored. CI runs it as a fuzz smoke.
func FuzzSimulateRequest(f *testing.F) {
	for _, s := range requestSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, batch := range []bool{false, true} {
			want, wantDAGs, werr := decodeOracle(body, batch)

			rec := httptest.NewRecorder()
			httpReq := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
			var got ScheduleRequest
			var gotDAGs *[]*dag.Graph
			dags := &gotDAGs
			if !batch {
				dags = nil
			}
			ok := decodeRequest(rec, httpReq, &got, dags)
			if werr != nil {
				wantBody, _ := json.MarshalIndent(apiError{Error: werr.Error()}, "", "  ")
				if ok || rec.Code != http.StatusBadRequest || rec.Body.String() != string(wantBody)+"\n" {
					t.Fatalf("batch=%v: decoded=%v, HTTP %d %q; want 400 %q\nbody: %q",
						batch, ok, rec.Code, rec.Body.String(), wantBody, body)
				}
				continue
			}
			if !ok {
				t.Fatalf("batch=%v: rejected (HTTP %d %s) a body the oracle takes\nbody: %q", batch, rec.Code, rec.Body.String(), body)
			}
			if got.Algorithm != want.Algorithm || got.Model != want.Model ||
				got.Environment != want.Environment || got.Seed != want.Seed {
				t.Fatalf("batch=%v: fields %q/%q/%q/%d, want %q/%q/%q/%d\nbody: %q", batch,
					got.Algorithm, got.Model, got.Environment, got.Seed,
					want.Algorithm, want.Model, want.Environment, want.Seed, body)
			}
			if d := sameGraphs(want.DAG, got.DAG); d != "" {
				t.Fatalf("batch=%v: dag: %s\nbody: %q", batch, d, body)
			}
			if (wantDAGs == nil) != (gotDAGs == nil) {
				t.Fatalf("batch=%v: dags present %v, want %v\nbody: %q", batch, gotDAGs != nil, wantDAGs != nil, body)
			}
			if wantDAGs == nil {
				continue
			}
			if len(*wantDAGs) != len(*gotDAGs) {
				t.Fatalf("%d dags, want %d\nbody: %q", len(*gotDAGs), len(*wantDAGs), body)
			}
			for i := range *wantDAGs {
				if d := sameGraphs((*wantDAGs)[i], (*gotDAGs)[i]); d != "" {
					t.Fatalf("dag %d: %s\nbody: %q", i, d, body)
				}
			}
		}
	})
}

// encodeOracle is the reply encoder the writer replaced.
func encodeOracle(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// writerBytes is what writeReply sends for v.
func writerBytes(v reply) (int, string) {
	rec := httptest.NewRecorder()
	writeReply(rec, http.StatusOK, v)
	return rec.Code, rec.Body.String()
}

// TestReplyBytesMatchEncodingJSON holds every /v1/schedule and /v1/simulate
// reply to the bytes json.Encoder with SetIndent("", "  ") writes: the Table
// I suite × CPA/HCPA/MCPA × the three models, single and batched, both
// through the handler and through writeReply, and hand-made values at the
// edges of float formatting and string escaping.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		suite = suite[:6]
	}
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	h := svc.Handler()
	ctx := context.Background()
	post := func(path string, v any) string {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	check := func(what string, v reply, handler string) {
		t.Helper()
		want := encodeOracle(t, v)
		if code, got := writerBytes(v); code != http.StatusOK || got != want {
			t.Fatalf("%s: writer bytes differ from json.Encoder's\n got: %.300q\nwant: %.300q", what, got, want)
		}
		if handler != want {
			t.Fatalf("%s: handler bytes differ from json.Encoder's\n got: %.300q\nwant: %.300q", what, handler, want)
		}
	}
	for _, model := range perfmodel.Kinds() {
		// Fit first, so every compared reply is a cache hit on both sides.
		if _, err := svc.Schedule(ctx, ScheduleRequest{DAG: suite[0].Graph, Model: model}); err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"CPA", "HCPA", "MCPA", "MHEFT"} {
			var dags []*dag.Graph
			for i, inst := range suite {
				req := ScheduleRequest{DAG: inst.Graph, Algorithm: algo, Model: model}
				sr, err := svc.Schedule(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("schedule %s/%s dag %d", algo, model, i), sr, post("/v1/schedule", req))
				sim, err := svc.Simulate(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("simulate %s/%s dag %d", algo, model, i), sim, post("/v1/simulate", req))
				dags = append(dags, inst.Graph)
			}
			req := SimulateBatchRequest{DAGs: dags, Algorithm: algo, Model: model}
			batch, err := svc.SimulateBatch(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("batch %s/%s", algo, model), batch, post("/v1/simulate", req))
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 123456789.125}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	names := []string{"", "t0/mul", `<script>&amp;</script>`, `quote " backslash \ slash /`,
		"ctl \x00\x01\x07\b\f\n\r\t\x1f\x7f", "sep \u2028 \u2029 end", "bad \xff\xfe utf8 \xe2\x82", "ünïcödé 日本 😀"}
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		names = append(names, string(b))
	}
	for i, name := range names {
		f := floats[i%len(floats)]
		tasks := []SimulatedTask{
			{ID: i, Name: name, P: 2, Hosts: []int{0, 31}, Start: f, Finish: -f, Startup: floats[(i+1)%len(floats)]},
			{ID: -1, Name: name, Hosts: []int{}},
			{Name: name},
		}
		for _, v := range []reply{
			apiError{Error: name},
			&SimulateResponse{Algorithm: name, Model: name, Environment: name, Seed: -int64(i), CacheHit: i%2 == 0, Makespan: f, Tasks: tasks},
			&SimulateResponse{Tasks: []SimulatedTask{}},
			&SimulateResponse{},
			&ScheduleResponse{Algorithm: name, Seed: math.MaxInt64, EstMakespan: f, SimMakespan: -f,
				Tasks: []ScheduledTask{{ID: 1, Name: name, Hosts: []int{}, EstStart: f, EstFinish: f}, {Name: name}}},
			&ScheduleResponse{},
			&SimulateBatchResponse{Results: []SimulateBatchItem{{Makespan: f, Tasks: tasks}, {}, {Tasks: []SimulatedTask{}}}},
			&SimulateBatchResponse{Results: []SimulateBatchItem{}},
			&SimulateBatchResponse{},
		} {
			want := encodeOracle(t, v)
			if _, got := writerBytes(v); got != want {
				t.Fatalf("%T with %q and %v:\n got: %q\nwant: %q", v, name, f, got, want)
			}
		}
	}

	// A non-finite float: json.Encoder fails before it writes, so the reply
	// is the 200 header and an empty body. The writer does the same.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := &SimulateBatchResponse{Results: []SimulateBatchItem{{Makespan: 1}, {Makespan: f}}}
		oracle := httptest.NewRecorder()
		writeJSON(oracle, http.StatusOK, v)
		code, got := writerBytes(v)
		if code != oracle.Code || got != oracle.Body.String() || got != "" {
			t.Fatalf("makespan %v: HTTP %d %q, want HTTP %d %q", f, code, got, oracle.Code, oracle.Body.String())
		}
	}
}

// TestBodyLimit answers a body over maxBodyBytes with 413 in the error
// envelope, on the synchronous routes and on job submission alike.
func TestBodyLimit(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	h := svc.Handler()
	huge := `{"dag":` + strings.Repeat(" ", maxBodyBytes) + `{}}`
	for _, path := range []string{"/v1/schedule", "/v1/simulate", "/v1/campaigns"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		var env apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge ||
			env.Error != errBodyTooLarge.Error() {
			t.Errorf("%s: HTTP %d %q, want 413 with %q", path, rec.Code, rec.Body.String(), errBodyTooLarge)
		}
	}
}

// largeBatchBody is an api-large request: four generated 100-task DAGs,
// HCPA, the empirical model.
func largeBatchBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(2011))
	var dags []*dag.Graph
	for k := 0; k < 4; k++ {
		g, err := dag.Generate(dag.GenParams{
			Tasks:         100,
			InputMatrices: dag.SuiteWidths[rng.Intn(len(dag.SuiteWidths))],
			AddRatio:      dag.SuiteRatios[rng.Intn(len(dag.SuiteRatios))],
			N:             dag.SuiteSizes[rng.Intn(len(dag.SuiteSizes))],
			Seed:          rng.Int63(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		dags = append(dags, g)
	}
	body, err := json.Marshal(SimulateBatchRequest{DAGs: dags, Algorithm: "HCPA", Model: "empirical"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// maxHandlerAllocs is the allocation ceiling of one warm api-large request
// through Handler(), at parallelism 1. It measured 141 with the direct
// codec, 3 546 with encoding/json.
const maxHandlerAllocs = 200

// TestHandlerAllocs runs warm api-large batches through Service.Handler():
// first concurrently, which under -race exercises the pooled body buffers,
// writers and graph builders, then — without the race detector, whose
// instrumentation allocates — under an AllocsPerRun ceiling.
func TestHandlerAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Parallelism = 1
	svc := New(opts)
	defer svc.Close(context.Background())
	h := svc.Handler()
	body := largeBatchBody(t)
	var want string
	do := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("HTTP %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	do() // fit the model
	want = do()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := do(); got != want {
					t.Errorf("concurrent reply differs from the serial one")
				}
			}
		}()
	}
	wg.Wait()
	if testutil.RaceEnabled {
		t.Skip("allocation ceiling not checked under the race detector")
	}
	if n := testing.AllocsPerRun(20, func() { do() }); n > maxHandlerAllocs {
		t.Errorf("%.0f allocations per warm api-large request, ceiling %d", n, maxHandlerAllocs)
	} else {
		t.Logf("%.0f allocations per warm api-large request (ceiling %d)", n, maxHandlerAllocs)
	}
}

// BenchmarkSimulateBatchHandler is the handler rung of api-large: one warm
// batch through Service.Handler(), no network.
func BenchmarkSimulateBatchHandler(b *testing.B) {
	opts := DefaultOptions()
	opts.Parallelism = 1
	svc := New(opts)
	defer svc.Close(context.Background())
	h := svc.Handler()
	body := largeBatchBody(b)
	do := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code, rec.Body.String())
		}
	}
	do()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}
