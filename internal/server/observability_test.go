package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"lbic"
	"lbic/client"
	"lbic/internal/server"
)

// TestJobTraceTree drives a small sweep and checks the acceptance shape of
// its exported trace: one job root, every cell span reaching it, simulate
// spans carrying cycle counts and trace-cache attribution, and a Chrome
// export that parses.
func TestJobTraceTree(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	ctx := context.Background()
	st, err := c.Sweep(ctx, client.SweepRequest{
		Benchmarks: []string{"compress", "li"},
		Ports:      []client.PortSpec{client.Port("bank-4"), client.Port("true-2")},
		Insts:      testInsts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	h, spans, err := c.JobTrace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != lbic.TraceSchema || h.Name != st.ID || h.Spans != len(spans) {
		t.Errorf("trace header = %+v (%d spans)", h, len(spans))
	}
	roots, err := lbic.ValidateTraceTree(spans, true)
	if err != nil {
		t.Fatalf("trace tree invalid: %v", err)
	}
	byID := make(map[uint64]lbic.TraceSpan, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Open {
			t.Errorf("span %q still open in a finished job's trace", sp.Name)
		}
	}
	root := byID[roots[0]]
	if !strings.HasPrefix(root.Name, "job ") {
		t.Errorf("root span = %q, want job root", root.Name)
	}

	// Every cell span must reach the job root (transitively), and the four
	// simulate spans must carry outcome and trace-cache attribution.
	reachesRoot := func(sp lbic.TraceSpan) bool {
		for sp.Parent != 0 {
			sp = byID[sp.Parent]
		}
		return sp.ID == root.ID
	}
	var cellSpans, simSpans int
	for _, sp := range spans {
		if !reachesRoot(sp) {
			t.Errorf("span %q does not reach the job root", sp.Name)
		}
		switch {
		case strings.HasPrefix(sp.Name, "cell "):
			cellSpans++
			if sp.Attrs["error"] != nil {
				t.Errorf("cell span %q of a successful job carries an error: %v", sp.Name, sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			simSpans++
			if sp.Attrs["cycles"] == nil || sp.Attrs["insts"] == nil {
				t.Errorf("simulate span %q missing cycle attrs: %v", sp.Name, sp.Attrs)
			}
			tc, _ := sp.Attrs["trace_cache"].(string)
			if tc != "hit" && tc != "miss" {
				t.Errorf("simulate span %q trace_cache = %q, want hit or miss", sp.Name, tc)
			}
		case strings.HasPrefix(sp.Name, "exec "):
			if sp.Attrs["result_cache"] == nil || sp.Attrs["singleflight"] == nil {
				t.Errorf("exec span %q missing reuse attrs: %v", sp.Name, sp.Attrs)
			}
		}
	}
	// 2 benchmarks × 2 ports, an outer and an inner runner cell span each.
	if cellSpans != 2*st.Total {
		t.Errorf("cell spans = %d, want %d", cellSpans, 2*st.Total)
	}
	if simSpans != st.Total {
		t.Errorf("simulate spans = %d, want %d", simSpans, st.Total)
	}

	// The Chrome export of the same job must be a loadable document.
	var chrome bytes.Buffer
	if err := lbic.WriteChromeTrace(&chrome, st.ID, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export unparseable: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Errorf("chrome export has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}

	// And the server serves that same document directly.
	resp, err := http.Get(c.BaseURL + "/v1/jobs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatalf("served chrome trace unparseable: %v", err)
	}
	if len(served.TraceEvents) != len(doc.TraceEvents) {
		t.Errorf("served %d chrome events, exported %d", len(served.TraceEvents), len(doc.TraceEvents))
	}
}

func TestRequestIDPropagated(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	req, _ := http.NewRequest(http.MethodGet, c.BaseURL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chosen-7" {
		t.Errorf("propagated id = %q", got)
	}

	resp2, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "req-") {
		t.Errorf("generated id = %q, want req-N", got)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.GoVersion == "" || h.Module == "" {
		t.Errorf("build info incomplete: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
}

// TestRequestLog pins the structured request log: one line per request with
// the request ID, route, status, and duration attributes.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	_, c := newTestServer(t, server.Options{Log: log})
	req, _ := http.NewRequest(http.MethodGet, c.BaseURL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	for _, want := range []string{"msg=request", "id=log-probe-1", `route="GET /healthz"`, "status=200", "dur="} {
		if !strings.Contains(line, want) {
			t.Errorf("request log missing %q:\n%s", want, line)
		}
	}
}
