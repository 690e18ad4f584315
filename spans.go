package lbic

import (
	"context"
	"io"

	"lbic/internal/tracing"
)

// Request-to-cycle span tracing. A RequestTrace collects spans — timed,
// named, parented operations with attributes — from every layer a request
// crosses: the lbicd HTTP front end, the sweep runner's cells, and
// Simulate itself. Attach one to a context with WithTrace, run as
// usual, and export the snapshot as JSON Lines (lbic-trace/v1) or as a
// Chrome trace-event document for chrome://tracing / Perfetto. Contexts
// without a trace pay nothing: StartSpan returns a nil no-op span. (For the
// per-cycle pipeline-occupancy timeline, see TraceSimulation instead.)
type (
	// RequestTrace is a per-request (or per-job) span buffer.
	RequestTrace = tracing.Trace
	// TraceSpan is one exported span (one JSONL line).
	TraceSpan = tracing.SpanData
	// TraceSpanEvent is a point-in-time annotation within a span.
	TraceSpanEvent = tracing.EventData
	// TraceJSONLHeader is the first line of a JSONL trace export.
	TraceJSONLHeader = tracing.Header
	// TracingSpan is a live span handle; nil is a valid no-op span.
	TracingSpan = tracing.Span
)

// TraceSchema identifies the JSONL trace export layout.
const TraceSchema = tracing.Schema

// NewRequestTrace returns an empty trace whose clock starts now.
func NewRequestTrace() *RequestTrace { return tracing.New() }

// WithTrace returns ctx carrying tr; subsequent StartSpan and
// Simulate calls under it record spans.
func WithTrace(ctx context.Context, tr *RequestTrace) context.Context {
	return tracing.NewContext(ctx, tr)
}

// StartSpan opens a span on ctx's trace (a no-op nil span when ctx carries
// none). End it with its End method; annotate with SetAttr/Event.
func StartSpan(ctx context.Context, name string) (context.Context, *TracingSpan) {
	return tracing.Start(ctx, name)
}

// WriteTraceJSONL exports spans as the lbic-trace/v1 JSONL stream.
func WriteTraceJSONL(w io.Writer, name string, epochUnixNS int64, spans []TraceSpan) error {
	return tracing.WriteJSONL(w, name, epochUnixNS, spans)
}

// ReadTraceJSONL parses a stream written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) (TraceJSONLHeader, []TraceSpan, error) {
	return tracing.ReadJSONL(r)
}

// WriteChromeTrace exports spans as a chrome://tracing-loadable trace-event
// document.
func WriteChromeTrace(w io.Writer, name string, spans []TraceSpan) error {
	return tracing.WriteChrome(w, name, spans)
}

// ValidateTraceTree checks a span set's structural invariants (unique IDs,
// resolvable parents, no cycles, optionally a single root) and returns the
// root span IDs.
func ValidateTraceTree(spans []TraceSpan, requireSingleRoot bool) ([]uint64, error) {
	return tracing.ValidateTree(spans, requireSingleRoot)
}
