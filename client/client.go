package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"lbic"
)

// Client talks to an lbicd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8329".
	BaseURL string
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// APIError is a non-2xx server response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error text.
	Message string
	// RetryAfter carries the Retry-After header's seconds on 429/503, 0
	// otherwise.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("lbicd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// do issues one request and returns the response on 2xx, an *APIError
// otherwise.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = ra
	}
	var er ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		apiErr.Message = er.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	if apiErr.Message == "" {
		apiErr.Message = resp.Status
	}
	return nil, apiErr
}

// Simulate runs one simulation and returns the raw lbic-run-report/v1
// document exactly as served — byte-identical to Report.WriteJSON of a
// direct in-process run with the same configuration.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) ([]byte, error) {
	if req.Schema == "" {
		req.Schema = RequestSchema
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/simulate", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Sweep submits a sweep and returns the accepted job's initial status.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (JobStatus, error) {
	if req.Schema == "" {
		req.Schema = RequestSchema
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/sweep", req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("lbicd: decoding job status: %w", err)
	}
	return st, nil
}

// Job fetches a job's current status, including all finished cells.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("lbicd: decoding job status: %w", err)
	}
	return st, nil
}

// Stream follows a job's JSONL progress stream, invoking fn for every
// event (already-finished cells replay first, so a late subscriber misses
// nothing). It returns when the job completes, fn returns an error, or ctx
// is canceled; a connection that drops before the done event is an error,
// and a second Stream of the same job replays it from the start.
func (c *Client) Stream(ctx context.Context, id string, fn func(StreamEvent) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("lbicd: decoding stream event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == "done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("lbicd: job stream ended without a done event")
}

// Wait streams the job to completion and returns its final status with all
// cell results.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	if err := c.Stream(ctx, id, func(StreamEvent) error { return nil }); err != nil {
		return JobStatus{}, err
	}
	return c.Job(ctx, id)
}

// Healthz checks the server's health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Health fetches the health endpoint's full body: status, uptime, and the
// serving binary's build identity.
func (c *Client) Health(ctx context.Context) (Health, error) {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("lbicd: decoding health: %w", err)
	}
	return h, nil
}

// JobTrace fetches a job's span tree (GET /v1/jobs/{id}/trace) as parsed
// lbic-trace/v1 spans. Fetching while the job runs returns a consistent
// snapshot with in-flight spans marked open.
func (c *Client) JobTrace(ctx context.Context, id string) (lbic.TraceJSONLHeader, []lbic.TraceSpan, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return lbic.TraceJSONLHeader{}, nil, err
	}
	defer resp.Body.Close()
	return lbic.ReadTraceJSONL(resp.Body)
}

// Metrics fetches the server's metrics as a structured snapshot
// (GET /metrics?format=json).
func (c *Client) Metrics(ctx context.Context) (lbic.MetricsSnapshot, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics?format=json", nil)
	if err != nil {
		return lbic.MetricsSnapshot{}, err
	}
	defer resp.Body.Close()
	var snap lbic.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return lbic.MetricsSnapshot{}, fmt.Errorf("lbicd: decoding metrics: %w", err)
	}
	return snap, nil
}

// CounterValue returns the named counter from a metrics snapshot (0 if
// absent, with ok=false).
func CounterValue(snap lbic.MetricsSnapshot, name string) (uint64, bool) {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}
