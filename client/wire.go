// Package client is the Go client for lbicd, the batched simulation
// service (cmd/lbicd). It also defines the service's wire contract — the
// versioned lbic-sim-request/v1 request schema and the job/cell response
// types — which internal/server imports, so the two sides cannot drift.
package client

import (
	"encoding/json"
	"fmt"

	"lbic"
)

// RequestSchema identifies the request JSON layout accepted by
// /v1/simulate and /v1/sweep.
const RequestSchema = "lbic-sim-request/v1"

// PortSpec names one port organization in a request. On the wire it is
// either a compact name string ("lbic-4x2", "bank-8-xor-fold", optionally
// with a "-sqD" store-queue suffix — the PortConfig.Key grammar) or a
// structured object in PortConfig's JSON form ({"kind": "lbic", "banks": 4,
// "line_ports": 2}). Custom ports are not expressible: their arbiter
// factory is a function and cannot cross the wire.
type PortSpec struct {
	// Name is the compact form; used when Config is nil.
	Name string
	// Config is the structured form; takes precedence when non-nil.
	Config *lbic.PortConfig
}

// Port returns a PortSpec for the compact name form.
func Port(name string) PortSpec { return PortSpec{Name: name} }

// PortOf returns a PortSpec for a structured configuration.
func PortOf(cfg lbic.PortConfig) PortSpec { return PortSpec{Config: &cfg} }

// Resolve parses the spec into a validated PortConfig.
func (p PortSpec) Resolve() (lbic.PortConfig, error) {
	if p.Config != nil {
		if err := p.Config.Validate(); err != nil {
			return lbic.PortConfig{}, err
		}
		return *p.Config, nil
	}
	return lbic.ParsePortName(p.Name)
}

// MarshalJSON encodes the structured form when set, the name otherwise.
func (p PortSpec) MarshalJSON() ([]byte, error) {
	if p.Config != nil {
		return json.Marshal(p.Config)
	}
	return json.Marshal(p.Name)
}

// UnmarshalJSON accepts either a name string or a PortConfig object.
func (p *PortSpec) UnmarshalJSON(data []byte) error {
	*p = PortSpec{}
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		p.Name = name
		return nil
	}
	var cfg lbic.PortConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("port: want a name string or a config object: %w", err)
	}
	p.Config = &cfg
	return nil
}

// String returns the spec's stable identity — the name, or the structured
// config's Key.
func (p PortSpec) String() string {
	if p.Config != nil {
		return p.Config.Key()
	}
	return p.Name
}

// SimulateRequest asks /v1/simulate for one run. Exactly one of Benchmark
// (a paper kernel name), Pattern (an access-pattern microbenchmark), or
// Trace (an uploaded serialized trace) names the workload.
type SimulateRequest struct {
	// Schema must be RequestSchema.
	Schema string `json:"schema"`
	// Benchmark names one of the ten Table 2 kernels.
	Benchmark string `json:"benchmark,omitempty"`
	// Pattern names an access-pattern microbenchmark instead.
	Pattern string `json:"pattern,omitempty"`
	// Trace is a serialized lbic-trace-stream/v1 stream to replay instead of
	// a named program (base64-encoded on the wire, as encoding/json does for
	// byte slices). Produce one with lbic.WriteTraceStream or
	// `lbicsim -trace-dump`. The server fully validates the stream before
	// running it.
	Trace []byte `json:"trace,omitempty"`
	// Port selects the L1 port organization.
	Port PortSpec `json:"port"`
	// Insts is the instruction budget; it must be positive for Benchmark and
	// Pattern runs (the kernels are non-halting steady-state loops, and
	// recording needs a bound). For Trace runs 0 replays the whole trace.
	Insts uint64 `json:"insts"`
	// CPU overrides the Table 1 processor baseline when non-nil.
	CPU *lbic.CPUConfig `json:"cpu,omitempty"`
	// Mem overrides the Table 1 memory hierarchy baseline when non-nil.
	Mem *lbic.MemParams `json:"mem,omitempty"`
}

// SweepRequest asks /v1/sweep for the cross product of benchmarks and
// ports — a whole paper table in one request. The response is an accepted
// job; poll /v1/jobs/{id} or stream it for per-cell results.
type SweepRequest struct {
	// Schema must be RequestSchema.
	Schema string `json:"schema"`
	// Benchmarks lists kernel names; empty means all ten in Table 2 order.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Ports lists the port organizations to sweep.
	Ports []PortSpec `json:"ports"`
	// Insts is the per-cell instruction budget; it must be positive.
	Insts uint64 `json:"insts"`
	// CPU/Mem override the Table 1 baselines for every cell when non-nil.
	CPU *lbic.CPUConfig `json:"cpu,omitempty"`
	Mem *lbic.MemParams `json:"mem,omitempty"`
}

// CellResult is one finished sweep cell.
type CellResult struct {
	// Key is the cell's stable identity, e.g. "sim/compress/lbic-4x2/i100000".
	Key string `json:"key"`
	// Benchmark and Port echo the cell's coordinates.
	Benchmark string `json:"benchmark"`
	Port      string `json:"port"`
	// Cached reports that the cell was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// ElapsedNS is the wall-clock time the server spent producing this cell,
	// including cache lookups and singleflight waits.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Error is set when the cell failed; Report is empty then.
	Error string `json:"error,omitempty"`
	// Report is the cell's lbic-run-report/v1 document.
	Report json.RawMessage `json:"report,omitempty"`
}

// Job states.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled"
)

// JobStatus is the state of a sweep job (/v1/jobs/{id}).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Total, Done, and Failed count the job's cells.
	Total  int `json:"total"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Results holds the finished cells so far, in completion order.
	Results []CellResult `json:"results,omitempty"`
}

// StreamEvent is one line of a job's JSONL progress stream (or one SSE
// data payload).
type StreamEvent struct {
	// Type is "cell" for a finished cell, "done" when the job completes.
	Type string `json:"type"`
	// Cell is set for "cell" events.
	Cell *CellResult `json:"cell,omitempty"`
	// Status is set for "done" events (without the Results bulk).
	Status *JobStatus `json:"status,omitempty"`
}

// Health is the body of GET /healthz: liveness plus enough build identity
// to tell which binary answered.
type Health struct {
	Status string `json:"status"`
	// UptimeSeconds is the time since the server process constructed its
	// Server, in seconds.
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// GoVersion, Module, Version, and Revision come from the binary's
	// embedded build info (debug.ReadBuildInfo); Revision is the VCS commit
	// when the binary was built from a checkout.
	GoVersion string `json:"go_version,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON error.
type ErrorResponse struct {
	Error string `json:"error"`
}
