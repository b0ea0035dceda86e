package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client is a typed HTTP client for a reprosrv daemon.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var apiErr apiError
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("service: %s %s: %s (HTTP %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	var h HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("service: health status %q", h.Status)
	}
	return nil
}

// Schedule submits a DAG for scheduling.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	var resp ScheduleResponse
	if err := c.do(ctx, http.MethodPost, "/v1/schedule", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Simulate submits a DAG for scheduling plus simulated replay.
func (c *Client) Simulate(ctx context.Context, req ScheduleRequest) (*SimulateResponse, error) {
	var resp SimulateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SimulateBatch submits many DAGs for scheduling plus simulated replay under
// one shared (algorithm, model, environment, seed) resolution.
func (c *Client) SimulateBatch(ctx context.Context, req SimulateBatchRequest) (*SimulateBatchResponse, error) {
	if len(req.DAGs) == 0 {
		// A nil slice would serialize as "dags": null, which the server
		// routes down the single-DAG path; fail with the batch contract's
		// own error instead.
		return nil, fmt.Errorf("service: batch has no dags")
	}
	var resp SimulateBatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Models lists the fitted-model registry contents.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out []ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// The job endpoints come as one triple per route noun under /v1/: "jobs"
// (study runs; its read side serves jobs of every kind) and one per job
// family — "campaigns", "robustness", "arrivals". Submit, Get, List and Wait
// take the noun; the study wrappers below are their "jobs" instance.

// Submit posts a spec to /v1/<route> and returns the queued job.
func (c *Client) Submit(ctx context.Context, route string, spec any) (*JobStatus, error) {
	var status JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/"+route, spec, &status); err != nil {
		return nil, err
	}
	return &status, nil
}

// Get polls one job by ID on /v1/<route>/{id}; a job the route does not
// expose is a 404.
func (c *Client) Get(ctx context.Context, route, id string) (*JobStatus, error) {
	var status JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/"+route+"/"+id, nil, &status); err != nil {
		return nil, err
	}
	return &status, nil
}

// List returns the retained jobs /v1/<route> exposes.
func (c *Client) List(ctx context.Context, route string) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/"+route, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Wait polls a job on /v1/<route>/{id} until it leaves the queued/running
// states, ctx expires, or the server becomes unreachable. The job must stay
// within the server's retention window (-retain) while being waited on: if
// enough other jobs finish to evict it between polls, Wait reports a 404 even
// though the job completed.
func (c *Client) Wait(ctx context.Context, route, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		status, err := c.Get(ctx, route, id)
		if err != nil {
			return nil, err
		}
		if status.State != JobQueued && status.State != JobRunning {
			return status, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// SubmitStudy queues an async study run.
func (c *Client) SubmitStudy(ctx context.Context, req StudyRequest) (*JobStatus, error) {
	return c.Submit(ctx, "jobs", req)
}

// Job polls one job of any kind by ID.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	return c.Get(ctx, "jobs", id)
}

// Jobs lists retained jobs of every kind.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) { return c.List(ctx, "jobs") }

// WaitJob is Wait on /v1/jobs/{id}.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	return c.Wait(ctx, "jobs", id, poll)
}
