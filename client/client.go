package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lbic"
)

// Client talks to an lbicd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8329".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
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
	resp, err := c.httpClient().Do(req)
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

// SimulateReport is Simulate parsed into a Report.
func (c *Client) SimulateReport(ctx context.Context, req SimulateRequest) (lbic.Report, error) {
	raw, err := c.Simulate(ctx, req)
	if err != nil {
		return lbic.Report{}, err
	}
	return lbic.ReadReport(bytes.NewReader(raw))
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
// is canceled.
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

// StreamSSE follows a job's progress stream in Server-Sent Events framing,
// invoking fn for every event, like Stream does for JSONL. Use it when an
// intermediary (or the caller) wants SSE semantics; the two streams carry
// identical events.
//
// The stream is resumable: the server stamps each event with an id: field,
// and on a dropped connection StreamSSE reconnects with backoff, sending
// Last-Event-ID so the server replays only the unseen suffix. Already-
// consumed ids are additionally filtered client-side, so fn never sees an
// event twice even against a server that ignores the header. Reconnection
// covers transport failures only; an HTTP error status or an error from fn
// is returned immediately.
func (c *Client) StreamSSE(ctx context.Context, id string, fn func(StreamEvent) error) error {
	const maxAttempts = 5
	lastID := -1 // highest event id delivered to fn; -1 = none yet
	backoff := 250 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			if backoff < 4*time.Second {
				backoff *= 2
			}
		}
		before := lastID
		done, err := c.streamSSEOnce(ctx, id, &lastID, fn)
		if done {
			return nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) || isCallbackErr(err) {
			return unwrapCallbackErr(err)
		}
		lastErr = err
		if lastID > before {
			// The connection made progress before dropping; treat the next
			// reconnect as fresh rather than burning the attempt budget.
			attempt = 0
			backoff = 250 * time.Millisecond
		}
	}
	return fmt.Errorf("lbicd: SSE stream failed after reconnects: %w", lastErr)
}

// callbackErr marks an error produced by the caller's fn, which must abort
// the stream rather than trigger a reconnect.
type callbackErr struct{ err error }

func (e callbackErr) Error() string { return e.err.Error() }

func isCallbackErr(err error) bool {
	var ce callbackErr
	return errors.As(err, &ce)
}

func unwrapCallbackErr(err error) error {
	var ce callbackErr
	if errors.As(err, &ce) {
		return ce.err
	}
	return err
}

// streamSSEOnce runs one SSE connection, delivering events with id > *lastID
// to fn and advancing *lastID past each delivery. It returns done=true once
// the done event is consumed; otherwise the error says why the connection
// ended.
func (c *Client) streamSSEOnce(ctx context.Context, id string, lastID *int, fn func(StreamEvent) error) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var er ErrorResponse
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return false, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	// evID is the id: field of the event currently being framed; -1 means the
	// server sent none, in which case events are delivered unconditionally
	// (legacy framing, no resume).
	evID := -1
	for sc.Scan() {
		line := sc.Bytes()
		// SSE framing: "event: t" names the next event, "id: n" numbers it,
		// "data: {...}" carries it. The server sends one data line per event,
		// so dispatch on it directly.
		if idf, ok := bytes.CutPrefix(line, []byte("id: ")); ok {
			if n, err := strconv.Atoi(string(idf)); err == nil {
				evID = n
			}
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		if evID >= 0 && evID <= *lastID {
			// Replayed prefix from a server that ignored Last-Event-ID —
			// already delivered, do not double-count.
			evID = -1
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return false, fmt.Errorf("lbicd: decoding SSE event: %w", err)
		}
		if err := fn(ev); err != nil {
			return false, callbackErr{err}
		}
		if evID >= 0 {
			*lastID = evID
		}
		evID = -1
		if ev.Type == "done" {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return false, fmt.Errorf("lbicd: SSE stream ended without a done event")
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
