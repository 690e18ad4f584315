package lbic

// This file is the public face of the lbic-trace-stream/v1 external trace
// format (see WORKLOADS.md and internal/tracecache/stream.go for the byte
// layout) and of the internal/workload generator family. Together they open
// the workload aperture beyond the ten built-in SPEC95-like kernels: any
// address trace — captured from a real program or emitted by a
// parameterized generator — becomes a first-class simulation input that
// produces the same Result (and the same lbic-run-report/v1 JSON) as a
// built-in benchmark run.

import (
	"fmt"
	"io"

	"lbic/internal/emu"
	"lbic/internal/tracecache"
	"lbic/internal/workload"
)

// TraceStreamSchema identifies the external serialized trace format written
// by WriteTraceStream and accepted by ReadTraceStream and lbicd.
const TraceStreamSchema = tracecache.StreamSchema

// Generator / stream re-exports, so applications need only this package.
type (
	// GenParams parameterizes one synthetic workload generator (see
	// Generators for the catalog). The zero value of every field selects the
	// catalog default for its kind.
	GenParams = workload.GenParams
	// GenInfo describes one generator kind in the catalog.
	GenInfo = workload.GenInfo
	// GenField describes one tunable generator parameter with its legal
	// range.
	GenField = workload.GenField
)

// Generators lists the synthetic stream generator catalog: zipfian KV GETs,
// hash-join probes, pointer chasing, GC sweeps, and context-interleaved
// multiprogrammed mixes. Every generator is seeded and deterministic: the
// same GenParams produce the same instruction stream on every platform.
func Generators() []GenInfo { return workload.Generators() }

// GeneratorKinds lists the generator kind names in catalog order.
func GeneratorKinds() []string { return workload.GenKinds() }

// GeneratorFields lists the tunable parameters of a generator kind with
// their legal ranges (empty for unknown kinds).
func GeneratorFields(kind string) []GenField { return workload.GenFieldsOf(kind) }

// RecordedTrace is a finite, replayable dynamic instruction trace with a
// name, held in the same delta-coded encoding the in-process trace cache
// uses. Obtain one from RecordBenchmarkTrace, RecordGeneratorTrace, or
// ReadTraceStream; replay it with Simulate over TraceSource; persist it with
// WriteTraceStream. A RecordedTrace is immutable and safe for concurrent
// replay.
type RecordedTrace struct {
	name string
	tr   *tracecache.Trace
}

// Name returns the trace's self-describing stream name (the benchmark name
// or generator parameter key it was recorded from, or whatever the producer
// of an imported stream chose).
func (t *RecordedTrace) Name() string { return t.name }

// Len returns the number of dynamic instructions in the trace.
func (t *RecordedTrace) Len() uint64 { return t.tr.Len() }

// SizeBytes returns the encoded size of the trace body.
func (t *RecordedTrace) SizeBytes() int64 { return t.tr.SizeBytes() }

// ValuesElided reports whether load/store data values were dropped at
// record time (generator traces always elide values; timing results are
// unaffected).
func (t *RecordedTrace) ValuesElided() bool { return t.tr.ValuesElided() }

// RecordBenchmarkTrace executes prog on the live emulator and records its
// first insts dynamic instructions as a replayable trace named after the
// program. insts must be positive: the built-in kernels are non-halting
// steady-state loops, so an unbounded recording would never finish.
func RecordBenchmarkTrace(prog *Program, insts uint64) (t *RecordedTrace, err error) {
	if insts == 0 {
		return nil, fmt.Errorf("lbic: recording %q: instruction budget must be positive", prog.Name)
	}
	defer func() { recoverRunPanic(prog.Name, &err, recover()) }()
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	return &RecordedTrace{name: prog.Name, tr: tracecache.RecordWith(m, tracecache.RecordOptions{MaxInsts: insts})}, nil
}

// RecordGeneratorTrace materializes the first insts instructions of a
// generator stream as a replayable trace named by the resolved parameter
// key (GenParams.Key), with data values elided — generators synthesize
// addresses, not data, and timing is value-independent. insts must be
// positive; generator streams never end on their own.
func RecordGeneratorTrace(p GenParams, insts uint64) (*RecordedTrace, error) {
	rp, err := p.Resolve()
	if err != nil {
		return nil, err
	}
	if insts == 0 {
		return nil, fmt.Errorf("lbic: recording %q: instruction budget must be positive", rp.Key())
	}
	s, err := rp.Stream()
	if err != nil {
		return nil, err
	}
	return &RecordedTrace{
		name: rp.Key(),
		tr:   tracecache.RecordWith(s, tracecache.RecordOptions{MaxInsts: insts, OmitValues: true}),
	}, nil
}

// WriteTraceStream serializes t to w in the lbic-trace-stream/v1 format: a
// self-describing header (magic, flags, stream name, static instruction
// table), the delta-coded dynamic section, and a CRC-32 footer. The encoding
// is canonical — re-encoding a decoded trace is byte-identical.
func WriteTraceStream(w io.Writer, t *RecordedTrace) error {
	return tracecache.WriteStream(w, t.name, t.tr)
}

// ReadTraceStream parses one lbic-trace-stream/v1 stream from r. It fully
// validates the input — header bounds, static-table invariants, dynamic
// section framing, CRC footer, and absence of trailing bytes — so untrusted
// streams (uploads to lbicd, fuzzer output) are safe to load; malformed
// input yields an error wrapping tracecache.ErrBadStream, never a panic.
func ReadTraceStream(r io.Reader) (*RecordedTrace, error) {
	name, tr, err := tracecache.ReadStream(r)
	if err != nil {
		return nil, err
	}
	return &RecordedTrace{name: name, tr: tr}, nil
}

// PortConflicts returns the run's total same-bank conflict count — requests
// stalled because their bank (or line buffer) was busy — uniformly across
// the banked organizations (Banked, BankedStoreQueue, MultiPortedBanks,
// LBIC). Organizations without banks (Ideal, Replicated, Virtual) report 0.
func (r *Result) PortConflicts() uint64 {
	if r.Metrics != nil {
		if h := r.Metrics.FindHistogram("port.bank_conflicts"); h != nil {
			return h.Count()
		}
	}
	return r.BankConflicts
}

// PortAccesses returns the run's total granted bank accesses, the
// denominator of PortConflictRate. 0 for organizations without banks.
func (r *Result) PortAccesses() uint64 {
	if r.Metrics != nil {
		if h := r.Metrics.FindHistogram("port.bank_accesses"); h != nil {
			return h.Count()
		}
	}
	return 0
}

// PortConflictRate returns conflicts per granted access (the §3 conflict
// characterization as a rate), or 0 when the organization has no banks.
func (r *Result) PortConflictRate() float64 {
	acc := r.PortAccesses()
	if acc == 0 {
		return 0
	}
	return float64(r.PortConflicts()) / float64(acc)
}
