package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/dag"
	"repro/internal/jsonfast"
)

// The codec of the synchronous routes. /v1/schedule and /v1/simulate read
// their body once and scan it without reflection (scanRequest, with
// dag.ScanJSON for each graph); a body outside the canonical subset the
// scanner takes is decoded again by encoding/json, which yields exactly the
// request or the 400 it always did. Their replies, and every route's error
// envelope, are appended by jsonfast.Writer with the bytes
// json.Encoder.SetIndent("", "  ") writes: clients such as bench/ scan
// replies for `"makespan": ` followed by ',' or a newline, so the indented
// bytes are part of the API.

// maxBodyBytes bounds every request body: far above the largest body the
// examples, the CI smokes or bench/ send (an api-large batch of four
// 100-task DAGs is about 30 KB), far below what would hurt the process.
// A longer body is answered with 413.
const maxBodyBytes = 16 << 20

// maxPooledBody caps the body buffer the pool keeps, so one huge request
// cannot pin its memory.
const maxPooledBody = 1 << 20

var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errBodyTooLarge is the 413 answer's message.
var errBodyTooLarge = fmt.Errorf("service: request body exceeds %d bytes", maxBodyBytes)

// readBody reads the whole request body into a pooled buffer, which the
// caller hands back with releaseBody. On failure it has already answered.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		releaseBody(buf)
		writeBodyError(w, err)
		return nil, false
	}
	return buf, true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}

// writeBodyError answers a failed body read or decode: 413 past the body
// limit, 400 for everything else.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// decodeRequest reads a /v1/schedule body (dags nil) or a /v1/simulate body
// into req and *dags. On failure it has already answered.
//
// /v1/simulate has two shapes: "dag" simulates a single application, "dags"
// serves the whole array as a batch. *dags is a pointer so a
// present-but-empty "dags" key still selects the batch shape (and is
// rejected as an empty batch) instead of silently degrading to the single
// path.
func decodeRequest(w http.ResponseWriter, r *http.Request, req *ScheduleRequest, dags **[]*dag.Graph) bool {
	buf, ok := readBody(w, r)
	if !ok {
		return false
	}
	defer releaseBody(buf)
	var rd jsonfast.Reader
	rd.Reset(buf.Bytes())
	if scanRequest(&rd, req, dags) {
		return true
	}
	*req = ScheduleRequest{}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	var err error
	if dags == nil {
		err = dec.Decode(req)
	} else {
		// Anonymous, as it always was: encoding/json names the type in its
		// error messages, which are part of the 400 reply.
		var wire struct {
			ScheduleRequest
			DAGs *[]*dag.Graph `json:"dags"`
		}
		err = dec.Decode(&wire)
		*req, *dags = wire.ScheduleRequest, wire.DAGs
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// scanRequest reads a canonical request object at r's cursor: the keys
// algorithm, model, environment, seed and dag — and dags where dags is not
// nil — each at most once. What follows the object is ignored, as
// json.Decoder.Decode ignores it. false means the body is not canonical,
// and req and *dags may hold part of it.
func scanRequest(r *jsonfast.Reader, req *ScheduleRequest, dags **[]*dag.Graph) bool {
	seen := 0
	more, ok := r.Open('{', '}')
	for ok && more {
		var key []byte
		if key, ok = r.Key(); !ok {
			return false
		}
		bit := 0
		switch string(key) {
		case "algorithm":
			bit = 1
			req.Algorithm, ok = scanString(r)
		case "model":
			bit = 2
			req.Model, ok = scanString(r)
		case "environment":
			bit = 4
			req.Environment, ok = scanString(r)
		case "seed":
			bit = 8
			req.Seed, ok = r.Int()
		case "dag":
			bit = 16
			req.DAG, ok = dag.ScanJSON(r)
		case "dags":
			if dags == nil {
				return false
			}
			bit = 32
			var list []*dag.Graph
			list, ok = scanDAGs(r)
			*dags = &list
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		more, ok = r.Next('}')
	}
	return ok
}

func scanString(r *jsonfast.Reader) (string, bool) {
	start, end, ok := r.String()
	return string(r.Data()[start:end]), ok
}

// scanDAGs reads an array of graphs; an empty array is an empty, non-nil
// list.
func scanDAGs(r *jsonfast.Reader) ([]*dag.Graph, bool) {
	list := []*dag.Graph{}
	more, ok := r.Open('[', ']')
	for ok && more {
		var g *dag.Graph
		if g, ok = dag.ScanJSON(r); ok {
			list = append(list, g)
			more, ok = r.Next(']')
		}
	}
	return list, ok
}

// reply is a response body the service appends itself.
type reply interface {
	appendJSON(w *jsonfast.Writer)
}

// writeReply sends v with the status. A non-finite float leaves the body
// empty after the header, as json.Encoder, which fails before it writes,
// always has.
func writeReply(w http.ResponseWriter, status int, v reply) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jw := jsonfast.AcquireWriter()
	v.appendJSON(jw)
	if b, err := jw.Finish(); err == nil {
		_, _ = w.Write(b)
	}
	jsonfast.ReleaseWriter(jw)
}

func (e apiError) appendJSON(w *jsonfast.Writer) {
	w.Open('{')
	w.Key("error")
	w.String(e.Error)
	w.Close('}')
}

// appendHead writes the (algorithm, model, environment, seed, cache_hit)
// members every reply starts with.
func appendHead(w *jsonfast.Writer, algorithm, model, environment string, seed int64, hit bool) {
	w.Key("algorithm")
	w.String(algorithm)
	w.Key("model")
	w.String(model)
	w.Key("environment")
	w.String(environment)
	w.Key("seed")
	w.Int(seed)
	w.Key("cache_hit")
	w.Bool(hit)
}

func (r *ScheduleResponse) appendJSON(w *jsonfast.Writer) {
	w.Open('{')
	appendHead(w, r.Algorithm, r.Model, r.Environment, r.Seed, r.CacheHit)
	w.Key("est_makespan")
	w.Float(r.EstMakespan)
	w.Key("sim_makespan")
	w.Float(r.SimMakespan)
	w.Key("tasks")
	if r.Tasks == nil {
		w.Null()
	} else {
		w.Open('[')
		for i := range r.Tasks {
			t := &r.Tasks[i]
			w.Open('{')
			appendTaskHead(w, t.ID, t.Name, t.P, t.Hosts)
			w.Key("est_start")
			w.Float(t.EstStart)
			w.Key("est_finish")
			w.Float(t.EstFinish)
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

func (r *SimulateResponse) appendJSON(w *jsonfast.Writer) {
	w.Open('{')
	appendHead(w, r.Algorithm, r.Model, r.Environment, r.Seed, r.CacheHit)
	w.Key("makespan")
	w.Float(r.Makespan)
	w.Key("tasks")
	appendTimeline(w, r.Tasks)
	w.Close('}')
}

func (r *SimulateBatchResponse) appendJSON(w *jsonfast.Writer) {
	w.Open('{')
	appendHead(w, r.Algorithm, r.Model, r.Environment, r.Seed, r.CacheHit)
	w.Key("results")
	if r.Results == nil {
		w.Null()
	} else {
		w.Open('[')
		for i := range r.Results {
			w.Open('{')
			w.Key("makespan")
			w.Float(r.Results[i].Makespan)
			w.Key("tasks")
			appendTimeline(w, r.Results[i].Tasks)
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

func appendTaskHead(w *jsonfast.Writer, id int, name string, p int, hosts []int) {
	w.Key("id")
	w.Int(int64(id))
	w.Key("name")
	w.String(name)
	w.Key("p")
	w.Int(int64(p))
	w.Key("hosts")
	w.Ints(hosts)
}

func appendTimeline(w *jsonfast.Writer, tasks []SimulatedTask) {
	if tasks == nil {
		w.Null()
		return
	}
	w.Open('[')
	for i := range tasks {
		t := &tasks[i]
		w.Open('{')
		appendTaskHead(w, t.ID, t.Name, t.P, t.Hosts)
		w.Key("start")
		w.Float(t.Start)
		w.Key("finish")
		w.Float(t.Finish)
		w.Key("startup")
		w.Float(t.Startup)
		w.Close('}')
	}
	w.Close(']')
}
