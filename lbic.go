// Package lbic is a from-scratch reproduction of "On High-Bandwidth Data
// Cache Design for Multi-Issue Processors" (Rivers, Tyson, Davidson, Austin —
// MICRO-30, 1997): an execution-driven simulator of a wide out-of-order
// processor whose L1 data-cache port organization is pluggable — ideal
// multi-ported, replicated, multi-banked, or the paper's Locality-Based
// Interleaved Cache (LBIC) — together with ten synthetic SPEC95-like
// workloads and drivers that regenerate every table and figure of the
// paper's evaluation.
//
// The typical flow:
//
//	prog, _ := lbic.BuildBenchmark("compress")
//	cfg := lbic.DefaultConfig()
//	cfg.Port = lbic.LBICPort(4, 2) // a 4x2 LBIC
//	cfg.MaxInsts = 1_000_000
//	res, _ := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
//	fmt.Println(res.IPC)
//
// A Source may also be a recorded trace (TraceSource) or a synthetic
// generator (GeneratorSource), and SimulateBatch runs K configurations over
// one source, decoding each dynamic instruction once for all of them.
package lbic

import (
	"context"
	"fmt"

	"lbic/internal/cache"
	"lbic/internal/core"
	"lbic/internal/cpu"
	"lbic/internal/emu"
	"lbic/internal/isa"
	"lbic/internal/oracle"
	"lbic/internal/ports"
	"lbic/internal/refstream"
	"lbic/internal/trace"
	"lbic/internal/tracecache"
	"lbic/internal/workload"
)

// Re-exported building blocks, so applications need only this package.
type (
	// Program is an executable for the simulator's MIPS-like ISA.
	Program = isa.Program
	// Builder assembles custom Programs.
	Builder = isa.Builder
	// Reg names a register operand.
	Reg = isa.Reg
	// CPUConfig sets the processor window/width parameters (Table 1).
	CPUConfig = cpu.Config
	// CPUStats reports per-run processor activity.
	CPUStats = cpu.Stats
	// MemParams sets the cache hierarchy geometry and latencies (Table 1).
	MemParams = cache.Params
	// MemStats reports cache hierarchy activity.
	MemStats = cache.Stats
	// Geometry describes one cache level.
	Geometry = cache.Geometry
	// BenchmarkInfo describes one of the ten SPEC95-like kernels.
	BenchmarkInfo = workload.Info
	// BenchmarkStats is a kernel's measured Table 2 characteristics.
	BenchmarkStats = workload.Stats
	// Distribution is a Figure 3 consecutive-reference histogram.
	Distribution = refstream.Distribution
	// LBICStats reports combining activity of an LBIC run.
	LBICStats = core.Stats
	// CodedStats reports reconstruction and code-update activity of a
	// coded-banks run.
	CodedStats = ports.CodedStats
	// VerifySummary reports what a verified run's invariant checker
	// actually covered (see Config.Verify).
	VerifySummary = oracle.Summary
	// TraceCache is a record-once/replay-many store of dynamic traces (see
	// NewTraceCache and Config.Trace).
	TraceCache = tracecache.Cache
	// TraceCacheStats snapshots a TraceCache's hit/record/byte counters.
	TraceCacheStats = tracecache.Stats
)

// NewTraceCache returns an empty trace cache bounded to budgetBytes of
// recorded trace data (<= 0 for unlimited). A sweep that simulates the same
// program under many port organizations records its dynamic trace once and
// replays the compact encoding for every subsequent run, skipping the
// emulator entirely; replayed runs are bit-identical to live runs. Share one
// cache across a whole sweep via Config.Trace (it is concurrency-safe, and
// concurrent runs of the same program share a single recording).
func NewTraceCache(budgetBytes int64) *TraceCache { return tracecache.New(budgetBytes) }

// NewBuilder starts assembling a custom program.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// R names integer register i (R(0) is hardwired zero).
func R(i int) Reg { return isa.R(i) }

// F names floating-point register i.
func F(i int) Reg { return isa.F(i) }

// PortKind selects the L1 port organization under test.
type PortKind int

const (
	// Ideal is true multi-porting: Width accesses per cycle, any addresses.
	Ideal PortKind = iota
	// Replicated keeps Width full cache copies; stores broadcast and cannot
	// pair with other accesses (DEC 21164 style).
	Replicated
	// Banked is a traditional line-interleaved multi-bank cache with Banks
	// single-ported banks (MIPS R10000 style).
	Banked
	// LBIC is the paper's contribution: Banks banks, each with an
	// N-ported single-line buffer combining up to LinePorts same-line
	// accesses per cycle.
	LBIC
	// VirtualMultiport is time-division multiplexing (IBM Power2 / DEC
	// 21264 style): the SRAM runs Width times the core clock. Its grant
	// behaviour is identical to Ideal — the cost is the clock multiple —
	// which is why the paper drops it beyond two ports (§1). Included to
	// complete the taxonomy.
	VirtualMultiport
	// BankedStoreQueue is a multi-bank cache whose banks carry PA8000-style
	// store queues (the implementations §5.2 cites via [18]) but no line
	// buffers: stores stop competing with loads, yet nothing combines. It
	// separates how much of the LBIC's win comes from store queues versus
	// from combining.
	BankedStoreQueue
	// MultiPortedBanks is the Sohi & Franklin hybrid (§7's related work):
	// Banks line-interleaved banks with Width true ports each — any Width
	// requests per bank per cycle, at true multi-porting's cost per bank.
	MultiPortedBanks
	// Coded emulates a second read port with XOR parity banks (arXiv
	// 2001.09599): Banks single-ported data banks in ParityBanks groups, each
	// group backed by one parity bank storing the XOR of its members, so a
	// second read of a busy bank is reconstructed from the other members plus
	// parity instead of stalling. Stores pay a code-update cost queued on
	// idle parity cycles; the Speculative variant issues a single parity read
	// and replays on stale code (arXiv 2502.00147).
	Coded
)

// String returns the organization name used in the paper's tables,
// registry-derived.
func (k PortKind) String() string {
	if o, ok := portOrgFor(k); ok {
		return o.display
	}
	return "port(?)"
}

// BankSelectorKind selects the bank selection function for Banked ports
// (the §3.2 selection-function ablation).
type BankSelectorKind = ports.SelectorKind

// Bank selection functions.
const (
	// BitSelect is the paper's line-interleaved bit selection (Fig 2c).
	BitSelect = ports.BitSelect
	// XorFold is a cheap pseudo-random interleaving (Rau-style).
	XorFold = ports.XorFold
	// WordInterleave banks at word granularity (vector-machine style; its
	// real cost is tag replication, which the paper rules out for caches).
	WordInterleave = ports.WordInterleave
)

// PortConfig describes one cache port organization instance. It marshals to
// JSON with the kind and selector as their canonical name tokens, so the CLI,
// the lbicd service schema, and sweep journals share one serialization; the
// compact one-line form is Key (parsed back by ParsePortName). Custom ports
// do not round-trip — the factory is a function — and fail to unmarshal.
type PortConfig struct {
	Kind PortKind `json:"kind"`
	// Width is the port count for Ideal and Replicated.
	Width int `json:"width,omitempty"`
	// Banks is the bank count for Banked and LBIC.
	Banks int `json:"banks,omitempty"`
	// LinePorts is N, the per-bank line-buffer port count, for LBIC.
	LinePorts int `json:"line_ports,omitempty"`
	// Selector overrides the bank selection function for Banked (the LBIC
	// requires line interleaving, §5.1). Zero value is BitSelect.
	Selector BankSelectorKind `json:"selector,omitempty"`
	// Greedy selects the §5.2 largest-group line policy for LBIC.
	Greedy bool `json:"greedy,omitempty"`
	// StoreQueueDepth overrides the LBIC per-bank store queue depth, or the
	// Coded per-group code-update queue depth (0 = default).
	StoreQueueDepth int `json:"store_queue_depth,omitempty"`
	// ParityBanks is the XOR parity bank count for Coded; the data banks
	// split into this many contiguous groups.
	ParityBanks int `json:"parity_banks,omitempty"`
	// Speculative selects Coded's single-read reconstruction variant
	// (speculative parity read, replay on stale code).
	Speculative bool `json:"speculative,omitempty"`
	// Label distinguishes custom arbiters from each other in names, journal
	// cell keys, and the lbicd result cache (see CustomPort).
	Label string `json:"label,omitempty"`

	// custom holds a user-supplied arbiter factory (see CustomPort).
	custom func(lineSize int) (ports.Arbiter, error)
}

// IdealPort returns an ideal multi-port configuration.
func IdealPort(width int) PortConfig { return PortConfig{Kind: Ideal, Width: width} }

// ReplicatedPort returns a replicated multi-port configuration.
func ReplicatedPort(width int) PortConfig { return PortConfig{Kind: Replicated, Width: width} }

// BankedPort returns a multi-bank configuration.
func BankedPort(banks int) PortConfig { return PortConfig{Kind: Banked, Banks: banks} }

// LBICPort returns an MxN LBIC configuration.
func LBICPort(banks, linePorts int) PortConfig {
	return PortConfig{Kind: LBIC, Banks: banks, LinePorts: linePorts}
}

// VirtualPort returns a time-division multiplexed configuration (the SRAM
// runs width times the core clock; grants match IdealPort exactly).
func VirtualPort(width int) PortConfig { return PortConfig{Kind: VirtualMultiport, Width: width} }

// BankedSQPort returns a multi-bank configuration with PA8000-style per-bank
// store queues but no combining.
func BankedSQPort(banks int) PortConfig { return PortConfig{Kind: BankedStoreQueue, Banks: banks} }

// MultiPortedBanksPort returns banks line-interleaved banks with
// portsPerBank true ports each (the Sohi & Franklin hybrid).
func MultiPortedBanksPort(banks, portsPerBank int) PortConfig {
	return PortConfig{Kind: MultiPortedBanks, Banks: banks, Width: portsPerBank}
}

// CodedPort returns a coded-banks configuration: banks single-ported data
// banks in parityBanks XOR-coded groups (arXiv 2001.09599). Set LinePorts to
// compose LBIC-style line buffers over the coded banks, and Speculative for
// the single-read replay variant.
func CodedPort(banks, parityBanks int) PortConfig {
	return PortConfig{Kind: Coded, Banks: banks, ParityBanks: parityBanks}
}

// Name returns a short identifier, e.g. "true-4", "lbic-4x2", "coded-4x1".
// The grammar is registry-derived.
func (p PortConfig) Name() string {
	if o, ok := portOrgFor(p.Kind); ok {
		return o.name(p)
	}
	return "port(?)"
}

// Key returns the port's full configuration identity: Name plus the
// store-queue depth override, which the display name deliberately omits.
// It is the serialization used by sweep journal cell keys and the lbicd
// result cache, and (custom ports aside) ParsePortName inverts it.
func (p PortConfig) Key() string {
	name := p.Name()
	if p.StoreQueueDepth != 0 {
		name += fmt.Sprintf("-sq%d", p.StoreQueueDepth)
	}
	return name
}

// Config is a complete simulation configuration. It marshals to JSON —
// the serialization shared by `lbicsim -config`, the lbicd service schema,
// and run reports — with the process-local fields (Events, Trace) excluded.
type Config struct {
	// Port selects the L1 port organization.
	Port PortConfig `json:"port"`
	// MaxInsts stops the run after this many instructions (0 = stream end).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// CPU overrides the Table 1 processor baseline when non-nil.
	CPU *CPUConfig `json:"cpu,omitempty"`
	// Mem overrides the Table 1 memory hierarchy baseline when non-nil.
	Mem *MemParams `json:"mem,omitempty"`
	// Events, when non-nil, receives one structured event per cache access,
	// bank conflict, line combine, miss, and writeback (see
	// NewJSONLEventSink). Deterministic for a given program and config.
	Events EventSink `json:"-"`
	// Trace, when non-nil, sources the run's dynamic instruction stream from
	// the cache: the first run of a program records its trace once, and every
	// later run at the same instruction budget replays the compact recording
	// instead of re-executing the emulator. Results are bit-identical either
	// way. Ignored when MaxInsts is 0 (an unbounded recording of a
	// non-halting program would never finish) or Verify is set (the oracle
	// needs the live machine's memory image).
	Trace *TraceCache `json:"-"`
	// Verify attaches the internal/oracle invariant checker to the run:
	// every cycle's grant set is validated against the organization's
	// structural rules, no request may be granted twice, loads may not
	// bypass older overlapping stores, store queues must drain FIFO, every
	// load must observe exactly the sequential machine's value, and the
	// final memory image must match. Violations fail the run with a
	// descriptive error. Complete runs only get the end-of-run checks;
	// truncated traces (TraceOptions.MaxCycles) are verified per cycle.
	Verify bool `json:"verify,omitempty"`
}

// DefaultConfig returns the paper's baseline with a single ideal port and a
// one-million-instruction budget.
func DefaultConfig() Config {
	return Config{Port: IdealPort(1), MaxInsts: 1_000_000}
}

// Result is the outcome of one simulation.
type Result struct {
	Benchmark string
	Port      PortConfig
	Cycles    uint64
	Insts     uint64
	IPC       float64
	CPU       CPUStats
	Mem       MemStats
	// LBIC carries combining statistics for LBIC runs, nil otherwise.
	LBIC *LBICStats
	// BankConflicts carries conflict counts for Banked runs.
	BankConflicts uint64
	// Coded carries reconstruction and code-update statistics for Coded
	// runs, nil otherwise.
	Coded *CodedStats
	// Metrics holds the run's histograms and gauges (CPI stall stack,
	// per-bank access/conflict counts, grants per cycle, occupancies).
	Metrics *MetricsRegistry
	// Verify summarizes what the invariant checker covered; nil unless
	// Config.Verify was set.
	Verify *VerifySummary
	// TraceCache snapshots the shared trace cache's counters as of this
	// run's end; nil for runs that executed the live emulator.
	TraceCache *TraceCacheStats
}

// Benchmarks lists the ten SPEC95-like kernels in the paper's Table 2 order.
func Benchmarks() []BenchmarkInfo { return workload.All() }

// PatternInfo describes a synthetic access-pattern microbenchmark.
type PatternInfo = workload.PatternInfo

// Patterns lists the access-pattern microbenchmarks: single-property streams
// (unit stride, same-line bursts, pathological bank strides, random,
// pointer chase, store bursts) that isolate each port organization's
// behaviour.
func Patterns() []PatternInfo { return workload.Patterns() }

// BuildPattern constructs a named access-pattern microbenchmark.
func BuildPattern(name string) (*Program, error) {
	p, ok := workload.PatternByName(name)
	if !ok {
		names := make([]string, 0, len(workload.Patterns()))
		for _, in := range workload.Patterns() {
			names = append(names, in.Name)
		}
		return nil, fmt.Errorf("lbic: unknown pattern %q (have %v)", name, names)
	}
	return p.Build(), nil
}

// BenchmarkNames lists the kernel names in canonical order.
func BenchmarkNames() []string { return workload.Names() }

// BuildBenchmark constructs a named kernel program.
func BuildBenchmark(name string) (*Program, error) {
	in, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("lbic: unknown benchmark %q (have %v)", name, workload.Names())
	}
	return in.Build(), nil
}

// buildArbiter constructs the port model for a configuration,
// registry-derived.
func buildArbiter(p PortConfig, lineSize int) (ports.Arbiter, error) {
	o, ok := portOrgFor(p.Kind)
	if !ok {
		return nil, fmt.Errorf("lbic: unknown port kind %d", p.Kind)
	}
	return o.build(p, lineSize)
}

// CharacterizeOptions configures Characterize. The zero value measures the
// paper's Table 2 statistics against the default 32KB direct-mapped L1 over
// a live emulator; set Insts to bound the measured stream.
type CharacterizeOptions struct {
	// Insts bounds the measured dynamic stream; it must be positive (the
	// characterized kernels are non-halting steady-state loops).
	Insts uint64
	// Geom is the L1 geometry miss rates are measured against, for capacity
	// and associativity sensitivity studies. The zero value selects the
	// paper's 32KB direct-mapped, 32-byte-line cache.
	Geom Geometry
	// Trace, when non-nil, sources the dynamic stream from the trace cache
	// (recording on first use, replaying thereafter): a sweep that
	// characterizes a benchmark before simulating it warms the cache with
	// the same recording the simulations replay.
	Trace *TraceCache
}

// defaultCharacterizeGeom is the paper's Table 2 measurement cache.
func defaultCharacterizeGeom() Geometry {
	return Geometry{Size: 32 << 10, LineSize: 32, Assoc: 1}
}

// Characterize measures a program's Table 2 statistics (memory instruction
// fraction, store-to-load ratio, miss rate against opts.Geom) functionally.
// Canceling ctx stops a recording in progress (see CharacterizeOptions.Trace).
func Characterize(ctx context.Context, prog *Program, opts CharacterizeOptions) (BenchmarkStats, error) {
	geom := opts.Geom
	if geom == (Geometry{}) {
		geom = defaultCharacterizeGeom()
	}
	s, err := streamFor(ctx, opts.Trace, prog, opts.Insts)
	if err != nil {
		return BenchmarkStats{}, err
	}
	return workload.CharacterizeStream(prog.Name, s, opts.Insts, geom)
}

// streamFor sources prog's dynamic stream from tc when a cache and a finite
// budget are available, from a fresh emulator otherwise.
func streamFor(ctx context.Context, tc *TraceCache, prog *Program, insts uint64) (trace.Stream, error) {
	if tc != nil && insts > 0 {
		return tc.Stream(ctx, prog, insts)
	}
	return emu.New(prog)
}

// DefaultCPUConfig returns the paper's Table 1 processor baseline, for
// callers that override individual parameters via Config.CPU.
func DefaultCPUConfig() CPUConfig { return cpu.DefaultConfig() }

// DefaultMemParams returns the paper's Table 1 memory hierarchy baseline,
// for callers that override individual parameters via Config.Mem.
func DefaultMemParams() MemParams { return cache.DefaultParams() }

// FUClass indexes CPUConfig.FUCount, for overriding Table 1's functional
// unit pool.
type FUClass = isa.Class

// Functional-unit classes (Table 1).
const (
	ClassIntALU = isa.ClassIntALU
	ClassIntMul = isa.ClassIntMul
	ClassIntDiv = isa.ClassIntDiv
	ClassFPAdd  = isa.ClassFPAdd
	ClassFPMul  = isa.ClassFPMul
	ClassFPDiv  = isa.ClassFPDiv
	ClassLoad   = isa.ClassLoad
	ClassStore  = isa.ClassStore
)

// RefStreamOptions configures AnalyzeRefStream. Zero fields take the
// paper's Figure 3 defaults: 4 banks, 32-byte lines, unbounded stream.
type RefStreamOptions struct {
	// Banks is the bank count of the modeled infinite line-interleaved
	// cache; 0 selects the paper's 4.
	Banks int
	// LineSize is the interleaving granularity in bytes; 0 selects 32.
	LineSize int
	// Insts bounds the analyzed dynamic stream; 0 means run to completion
	// (only meaningful for halting programs).
	Insts uint64
	// Trace, when non-nil and Insts > 0, sources the dynamic stream from
	// the trace cache instead of a live emulator.
	Trace *TraceCache
}

// AnalyzeRefStream computes the Figure 3 consecutive-reference distribution
// of a program over an infinite banks-way line-interleaved cache.
func AnalyzeRefStream(ctx context.Context, prog *Program, opts RefStreamOptions) (Distribution, error) {
	banks, lineSize := opts.Banks, opts.LineSize
	if banks == 0 {
		banks = 4
	}
	if lineSize == 0 {
		lineSize = 32
	}
	s, err := streamFor(ctx, opts.Trace, prog, opts.Insts)
	if err != nil {
		return Distribution{}, err
	}
	return refstream.Analyze(s, banks, lineSize, opts.Insts)
}

// compile-time check: the emulator satisfies the stream contract.
var _ trace.Stream = (*emu.Machine)(nil)
