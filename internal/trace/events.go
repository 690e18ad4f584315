package trace

import (
	"encoding/json"
	"io"
)

// Event is one structured simulator event: a cache access with its outcome,
// a bank conflict with its cause, a combined access, a miss, a writeback.
// Events stream as JSON Lines (one object per line) so a run's trace can be
// filtered and aggregated with standard tools; the §3/§4 same-bank and
// same-line conflict characterization of the paper can be recomputed from
// the "conflict" events alone.
//
// All fields are always present, so consumers need no schema negotiation:
// Seq and Bank are -1 where the event has no instruction or bank, Line is
// the L1 line *number* (address >> log2(lineSize)), and Cause refines Kind
// ("hit", "miss", "same-line", "store-queue-full", ...).
type Event struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Seq   int64  `json:"seq"`
	Bank  int    `json:"bank"`
	Line  uint64 `json:"line"`
	Cause string `json:"cause"`
}

// Event kinds emitted by the instrumented layers.
const (
	// EvAccess is a granted L1 access; Cause carries the outcome
	// ("hit", "miss", "blocked") and Kind distinguishes loads
	// ("access") from committed-store writes ("write").
	EvAccess = "access"
	EvWrite  = "write"
	// EvConflict is a request stalled by its port organization; Cause names
	// why ("bank-busy", "same-line", "line-conflict", "port-saturation",
	// "store-queue-full", "greedy-bypass", and the coded organization's
	// "code-update", "parity-busy", "stale-code", "group-busy").
	EvConflict = "conflict"
	// EvCombine is a request granted by combining with a leading same-line
	// request in a line buffer (the LBIC's, or a coded organization's).
	EvCombine = "combine"
	// EvMiss is an L1 demand miss allocating an MSHR.
	EvMiss = "miss"
	// EvWriteback is a dirty L1 victim written to L2.
	EvWriteback = "writeback"
)

// EventSink receives structured events. Implementations must tolerate the
// simulator's full event rate; emission sites are skipped entirely when the
// configured sink is nil.
type EventSink interface {
	Emit(Event)
}

// JSONLSink writes each event as one JSON line. Errors are sticky and
// latched rather than returned per event (the simulator hot path cannot
// unwind on a trace write failure); check Err after the run.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements EventSink.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// CollectSink accumulates events in memory, for tests and programmatic
// consumers.
type CollectSink struct {
	Events []Event
}

// Emit implements EventSink.
func (s *CollectSink) Emit(e Event) { s.Events = append(s.Events, e) }
