package workload

import (
	"fmt"
	"math/bits"
	"strings"

	"lbic/internal/isa"
	"lbic/internal/trace"
)

// The generator family synthesizes modern reference-stream shapes the 1997
// paper never saw: zipfian key-value GETs, hash-join probes, pointer
// chasing, GC-style sweeps, and context-interleaved multiprogrammed
// mixes. Unlike the SPEC95 kernels (real programs run through the
// emulator), a generator emits trace.Dyn records directly — there is no
// functional machine behind it, so memory values are always zero and
// streams are infinite (the simulation budget bounds them). Every
// generator is a pure function of its GenParams: same params, same stream,
// on every platform — the property the golden tests and the adversarial
// regression artifacts depend on. All arithmetic is integer-only for exactly
// that reason.

// GenParams selects and parameterizes one synthetic stream generator.
// Zero-valued fields take the kind's defaults (see Generators). Every field
// is an integer with a documented range, enforced by Validate.
type GenParams struct {
	// Kind is the generator family: "zipf", "hashjoin", "chase", "gcsweep"
	// or "multiprog".
	Kind string `json:"kind"`
	// Seed drives all pseudo-randomness (0 means a fixed default seed).
	Seed uint64 `json:"seed,omitempty"`
	// MemPct is the percentage of instructions that access memory (1..95).
	MemPct int `json:"mem_pct,omitempty"`
	// Footprint is the working-set size in bytes, rounded up to a power of
	// two. Meaning varies by kind: probe-relation bytes (hashjoin), total
	// pointer pool (chase), heap bytes (gcsweep), per-context window
	// (multiprog). zipf derives its footprint from Keys×RecordBytes.
	Footprint int64 `json:"footprint,omitempty"`

	// zipf: Keys records of RecordBytes each; popularity skew SkewPct
	// (0 uniform .. 99 extreme); UpdatePct% of operations also write.
	Keys        int `json:"keys,omitempty"`
	RecordBytes int `json:"record_bytes,omitempty"`
	SkewPct     int `json:"skew_pct,omitempty"`
	UpdatePct   int `json:"update_pct,omitempty"`

	// hashjoin: Buckets hash buckets, Chain dependent hops per probe.
	Buckets int `json:"buckets,omitempty"`
	Chain   int `json:"chain,omitempty"`

	// chase: Lanes independent pointer chains advancing in lockstep.
	Lanes int `json:"lanes,omitempty"`

	// gcsweep: Stride bytes between object headers; MarkPct% of objects
	// take a mark write.
	Stride  int64 `json:"stride,omitempty"`
	MarkPct int   `json:"mark_pct,omitempty"`

	// multiprog: Contexts interleaved programs, switching every Quantum
	// instructions.
	Contexts int `json:"contexts,omitempty"`
	Quantum  int `json:"quantum,omitempty"`
}

// GenInfo describes one generator kind.
type GenInfo struct {
	Kind        string
	Description string
	// Defaults is the catalog configuration: every field a zero-valued
	// GenParams of this kind resolves to.
	Defaults GenParams
}

// genKind is one generator kind's registry entry: its catalog entry, the
// fields it uses in key order (mem_pct first), and the fill that emits its
// next loop iteration. Validate, Key, Stream and GenFieldsOf all read it.
type genKind struct {
	GenInfo
	fields []GenField
	fill   func(p *GenParams, g *genStream)
}

var genRegistry = []genKind{
	{
		GenInfo: GenInfo{
			Kind: "zipf",
			Description: "key-value GETs over a record heap with zipfian-style popularity; " +
				"UpdatePct of operations rewrite the record",
			Defaults: GenParams{
				Kind: "zipf", Seed: 1, MemPct: 40,
				Keys: 1 << 16, RecordBytes: 64, SkewPct: 90, UpdatePct: 10,
			},
		},
		fields: []GenField{fieldMemPct, fieldKeys, fieldRecord, fieldSkew, fieldUpdate},
		fill:   (*GenParams).fillZipf,
	},
	{
		GenInfo: GenInfo{
			Kind: "hashjoin",
			Description: "sequential probe-relation scan, hashed bucket lookup, then Chain " +
				"dependent hops down the bucket chain",
			Defaults: GenParams{
				Kind: "hashjoin", Seed: 1, MemPct: 45,
				Footprint: 1 << 20, Buckets: 1 << 15, Chain: 2,
			},
		},
		fields: []GenField{fieldMemPct, fieldFootprint, fieldBuckets, fieldChain},
		fill:   (*GenParams).fillHashJoin,
	},
	{
		GenInfo: GenInfo{
			Kind: "chase",
			Description: "pointer chasing: Lanes serial dependence chains walking a shuffled " +
				"pointer pool in lockstep",
			Defaults: GenParams{
				Kind: "chase", Seed: 1, MemPct: 25,
				Footprint: 1 << 20, Lanes: 1,
			},
		},
		fields: []GenField{fieldMemPct, fieldFootprint, fieldLanes},
		fill:   (*GenParams).fillChase,
	},
	{
		GenInfo: GenInfo{
			Kind: "gcsweep",
			Description: "garbage-collector sweep: strided object-header scan over the heap " +
				"with MarkPct mark writes",
			Defaults: GenParams{
				Kind: "gcsweep", Seed: 1, MemPct: 35,
				Footprint: 4 << 20, Stride: 48, MarkPct: 20,
			},
		},
		fields: []GenField{fieldMemPct, fieldFootprint, fieldStride, fieldMark},
		fill:   (*GenParams).fillGCSweep,
	},
	{
		GenInfo: GenInfo{
			Kind: "multiprog",
			Description: "Contexts independent programs (streaming, strided, hot-set) " +
				"interleaved on one cache every Quantum instructions",
			Defaults: GenParams{
				Kind: "multiprog", Seed: 1, MemPct: 40,
				Footprint: 1 << 19, Contexts: 4, Quantum: 64,
			},
		},
		fields: []GenField{fieldMemPct, fieldFootprint, fieldContexts, fieldQuantum},
		fill:   (*GenParams).fillMultiprog,
	},
}

// Generators returns the generator catalog in canonical order.
func Generators() []GenInfo {
	out := make([]GenInfo, len(genRegistry))
	for i, g := range genRegistry {
		out[i] = g.GenInfo
	}
	return out
}

// GenKinds returns the generator kind names in canonical order.
func GenKinds() []string {
	out := make([]string, len(genRegistry))
	for i, g := range genRegistry {
		out[i] = g.Kind
	}
	return out
}

// genKindOf finds a generator kind's registry entry.
func genKindOf(kind string) (*genKind, bool) {
	for i := range genRegistry {
		if genRegistry[i].Kind == kind {
			return &genRegistry[i], true
		}
	}
	return nil, false
}

// GenByKind finds a generator kind.
func GenByKind(kind string) (GenInfo, bool) {
	if k, ok := genKindOf(kind); ok {
		return k.GenInfo, true
	}
	return GenInfo{}, false
}

// DefaultGenParams returns the catalog defaults for kind.
func DefaultGenParams(kind string) (GenParams, error) {
	g, ok := GenByKind(kind)
	if !ok {
		return GenParams{}, fmt.Errorf("workload: unknown generator kind %q (have %s)",
			kind, strings.Join(GenKinds(), ", "))
	}
	return g.Defaults, nil
}

// withDefaults fills zero-valued fields from the kind's catalog entry.
func (p GenParams) withDefaults() (GenParams, error) {
	def, err := DefaultGenParams(p.Kind)
	if err != nil {
		return p, err
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	for _, f := range allGenFields {
		if f.Get(&p) == 0 {
			f.Set(&p, f.Get(&def))
		}
	}
	return p, nil
}

// Field ranges, enforced by Validate through the GenField table.
const (
	GenMaxKeys      = 1 << 22
	GenMaxRecord    = 1 << 12
	GenMaxBuckets   = 1 << 20
	GenMaxChain     = 64
	GenMaxLanes     = 8
	GenMaxStride    = 1 << 20
	GenMaxContexts  = 8
	GenMaxQuantum   = 4096
	GenMaxFootprint = 64 << 20
	GenMinFootprint = 1 << 12
)

// GenField describes one parameter of a generator kind: its JSON name,
// bounds, and accessor. Validate, Key and the defaults fill walk this table
// rather than hand-rolling per-kind field code.
type GenField struct {
	Name   string
	Min    int64
	Max    int64
	Step   int64 // smallest meaningful change (and required multiple)
	Acc    func(*GenParams) *int64
	intAcc func(*GenParams) *int
	key    byte // the field's letter in Key
}

// Get reads the field's current value.
func (f GenField) Get(p *GenParams) int64 {
	if f.Acc != nil {
		return *f.Acc(p)
	}
	return int64(*f.intAcc(p))
}

// Set writes the field (callers clamp to [Min, Max] first).
func (f GenField) Set(p *GenParams, v int64) {
	if f.Acc != nil {
		*f.Acc(p) = v
		return
	}
	*f.intAcc(p) = int(v)
}

func fInt(name string, key byte, lo, hi, step int64, acc func(*GenParams) *int) GenField {
	return GenField{Name: name, Min: lo, Max: hi, Step: step, intAcc: acc, key: key}
}

func f64(name string, key byte, lo, hi, step int64, acc func(*GenParams) *int64) GenField {
	return GenField{Name: name, Min: lo, Max: hi, Step: step, Acc: acc, key: key}
}

var (
	fieldMemPct    = fInt("mem_pct", 'm', 1, 95, 1, func(p *GenParams) *int { return &p.MemPct })
	fieldFootprint = f64("footprint", 'f', GenMinFootprint, GenMaxFootprint, 8, func(p *GenParams) *int64 { return &p.Footprint })
	fieldKeys      = fInt("keys", 'k', 1, GenMaxKeys, 1, func(p *GenParams) *int { return &p.Keys })
	fieldRecord    = fInt("record_bytes", 'r', 8, GenMaxRecord, 8, func(p *GenParams) *int { return &p.RecordBytes })
	fieldSkew      = fInt("skew_pct", 'z', 0, 99, 1, func(p *GenParams) *int { return &p.SkewPct })
	fieldUpdate    = fInt("update_pct", 'u', 0, 100, 1, func(p *GenParams) *int { return &p.UpdatePct })
	fieldBuckets   = fInt("buckets", 'b', 1, GenMaxBuckets, 1, func(p *GenParams) *int { return &p.Buckets })
	fieldChain     = fInt("chain", 'c', 1, GenMaxChain, 1, func(p *GenParams) *int { return &p.Chain })
	fieldLanes     = fInt("lanes", 'l', 1, GenMaxLanes, 1, func(p *GenParams) *int { return &p.Lanes })
	fieldStride    = f64("stride", 't', 8, GenMaxStride, 8, func(p *GenParams) *int64 { return &p.Stride })
	fieldMark      = fInt("mark_pct", 'k', 0, 100, 1, func(p *GenParams) *int { return &p.MarkPct })
	fieldContexts  = fInt("contexts", 'c', 1, GenMaxContexts, 1, func(p *GenParams) *int { return &p.Contexts })
	fieldQuantum   = fInt("quantum", 'q', 1, GenMaxQuantum, 1, func(p *GenParams) *int { return &p.Quantum })
)

// GenFieldsOf returns the mutable field descriptors for kind, in canonical
// order (nil for unknown kinds). Fields outside the list must be zero for
// the kind.
func GenFieldsOf(kind string) []GenField {
	if k, ok := genKindOf(kind); ok {
		return k.fields
	}
	return nil
}

// allGenFields lists every field once, in GenParams order.
var allGenFields = []GenField{
	fieldMemPct, fieldFootprint, fieldKeys, fieldRecord, fieldSkew, fieldUpdate,
	fieldBuckets, fieldChain, fieldLanes, fieldStride, fieldMark, fieldContexts, fieldQuantum,
}

// Validate checks the fields p.Kind uses against their documented ranges
// and requires every other field to be zero, keeping one canonical struct
// per stream. It does not fill defaults; call Resolve for that.
func (p GenParams) Validate() error {
	k, ok := genKindOf(p.Kind)
	if !ok {
		return fmt.Errorf("workload: unknown generator kind %q", p.Kind)
	}
	inUse := func(f GenField) bool {
		for _, u := range k.fields {
			if u.Name == f.Name {
				return true
			}
		}
		return false
	}
	for _, f := range allGenFields {
		v := f.Get(&p)
		if !inUse(f) {
			if v != 0 {
				return fmt.Errorf("workload: %s generator does not use %s (got %d)", p.Kind, f.Name, v)
			}
			continue
		}
		if v < f.Min || v > f.Max {
			return fmt.Errorf("workload: %s generator %s = %d outside [%d, %d]", p.Kind, f.Name, v, f.Min, f.Max)
		}
		if f.Step > 1 && v%f.Step != 0 {
			return fmt.Errorf("workload: %s generator %s = %d not a multiple of %d", p.Kind, f.Name, v, f.Step)
		}
	}
	return nil
}

// Resolve fills defaults and validates, returning the canonical params that
// Stream and Key operate on.
func (p GenParams) Resolve() (GenParams, error) {
	q, err := p.withDefaults()
	if err != nil {
		return p, err
	}
	return q, q.Validate()
}

// Key returns a canonical compact encoding of the resolved params: stable
// across processes, unique per distinct stream, legal as a cache-cell token
// and a trace-stream name. Kind-irrelevant fields are omitted.
func (p GenParams) Key() string {
	q, err := p.Resolve()
	if err != nil {
		// Key has no error return, so an invalid param set still gets a
		// distinguishable key, made from the raw struct.
		return fmt.Sprintf("gen:%s:invalid:%+v", p.Kind, p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gen:%s:s%d", q.Kind, q.Seed)
	k, _ := genKindOf(q.Kind)
	for _, f := range k.fields {
		fmt.Fprintf(&b, ":%c%d", f.key, f.Get(&q))
	}
	return b.String()
}

// Stream returns the infinite deterministic instruction stream for p.
// Callers bound it with their simulation budget (Config.MaxInsts or
// tracecache.RecordOptions.MaxInsts).
func (p GenParams) Stream() (trace.Stream, error) {
	q, err := p.Resolve()
	if err != nil {
		return nil, err
	}
	k, _ := genKindOf(q.Kind)
	return &genStream{p: q, fill: k.fill, memPct: q.MemPct, rng: *newPRNG(q.Seed)}, nil
}

// Generator address-space layout. Generators run trace-only (no functional
// machine), so addresses are arbitrary physical bits; distinct regions keep
// the shapes from aliasing each other.
const (
	genHeapBase   = 0x4000_0000 // primary region (records, probes, heap)
	genTableBase  = 0x8000_0000 // secondary region (hash buckets)
	genCtxSpacing = 0x0800_0000 // multiprog per-context window spacing
)

// Register convention for synthesized streams. Base registers are never
// written, so address operands are always ready and accesses are limited
// only by the cache ports — except where a generator deliberately threads a
// loaded value into the next address (pointer chases, bucket chains).
var (
	genBase  = isa.R(1) // primary base pointer, never written
	genBase2 = isa.R(2) // secondary base pointer, never written
	genCtr   = isa.R(5) // loop counter stand-in, never written
	genCtr2  = isa.R(6)
)

func genLoadDst(i int) isa.Reg { return isa.R(8 + i%16) } // rotating load targets
func genAluAcc(i int) isa.Reg  { return isa.R(24 + i%8) } // rotating ALU accumulators
func genLaneReg(l int) isa.Reg { return isa.R(8 + l%16) } // pointer-chase lane registers

// genStream synthesizes instructions in batches: Next drains a small
// buffer; fill appends the next loop iteration. All state is by-value
// inside the struct, so a params→stream construction is repeatable.
type genStream struct {
	seq     uint64
	rng     prng
	buf     []trace.Dyn
	head    int
	p       GenParams
	fill    func(p *GenParams, g *genStream)
	memPct  int
	nMem    int // memory ops emitted (rotation index)
	nNonMem int // every other op, fixed or filler
	nAlu    int // filler ops emitted (rotation index)
}

// Next implements trace.Stream; the stream never ends.
func (g *genStream) Next(d *trace.Dyn) bool {
	for g.head >= len(g.buf) {
		g.buf = g.buf[:0]
		g.head = 0
		g.fill(&g.p, g)
	}
	*d = g.buf[g.head]
	g.head++
	return true
}

func (g *genStream) push(d trace.Dyn) {
	d.Seq = g.seq
	g.seq++
	if d.Class == isa.ClassLoad || d.Class == isa.ClassStore {
		g.nMem++
	} else {
		g.nNonMem++
	}
	g.buf = append(g.buf, d)
}

// load emits an 8-byte load at addr (8-aligned) and returns its target
// register. base is the address operand; pass a chain register to make the
// access depend on a previous load.
func (g *genStream) load(pc int, dst, base isa.Reg, addr uint64) {
	g.push(trace.Dyn{PC: pc, Op: isa.Ld, Class: isa.ClassLoad, Src1: base, Dst: dst, Addr: addr &^ 7, Size: 8})
}

func (g *genStream) store(pc int, base, val isa.Reg, addr uint64) {
	g.push(trace.Dyn{PC: pc, Op: isa.Sd, Class: isa.ClassStore, Src1: base, Src2: val, Addr: addr &^ 7, Size: 8})
}

// filler emits non-memory instructions until the stream's running memory
// fraction settles at memPct: each call tops the non-memory count up to
// floor(nMem·(100-memPct)/memPct), so fixed compute a generator emits
// itself (hash ops, say) counts toward the quota and the ratio holds
// exactly with no drift. dep threads a recently loaded register into the
// compute so the filler isn't infinitely parallel; every fourth filler op
// is a branch, approximating real basic-block sizes.
func (g *genStream) filler(pcBase int, dep isa.Reg) {
	for (g.nNonMem+1)*g.memPct <= g.nMem*(100-g.memPct) {
		if g.nAlu%4 == 3 {
			g.push(trace.Dyn{PC: pcBase + 1, Op: isa.Bne, Class: isa.ClassIntALU, Src1: genCtr, Src2: genCtr2})
		} else {
			acc := genAluAcc(g.nAlu)
			g.push(trace.Dyn{PC: pcBase, Op: isa.Add, Class: isa.ClassIntALU, Src1: acc, Src2: dep, Dst: acc})
		}
		g.nAlu++
	}
}

// pow2 rounds v up to a power of two (at least 1).
func pow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

// scatter is an affine bijection on [0, n) for power-of-two n: it turns
// popularity rank into a storage slot, so the hot keys of a skewed
// distribution are spread across the address space the way a real hash
// table spreads them.
func scatter(rank, n, seed uint64) uint64 {
	return (rank*0x9e3779b97f4a7c15 + seed) & (n - 1)
}

// zipfRank samples an approximately zipfian popularity rank in [0, n):
// repeatedly keep the hotter half of the candidate range with probability
// skewPct/100, then pick uniformly in what remains. Integer-only, so
// bit-reproducible everywhere; skew 0 is uniform, 99 is near-degenerate.
func zipfRank(rng *prng, n uint64, skewPct int) uint64 {
	size := n
	for size > 1 && rng.intn(100) < uint64(skewPct) {
		size = (size + 1) / 2
	}
	return rng.intn(size)
}

// fillZipf emits one key-value operation: pick a record by skewed
// popularity, load it (one load per 64B of record up to 2), and with
// UpdatePct probability write it back.
func (p *GenParams) fillZipf(g *genStream) {
	keys := pow2(uint64(p.Keys))
	rank := zipfRank(&g.rng, keys, p.SkewPct)
	slot := scatter(rank, keys, p.Seed)
	rec := genHeapBase + slot*uint64(p.RecordBytes)
	off := g.rng.intn(uint64(p.RecordBytes)/8) * 8
	dst := genLoadDst(g.nMem)
	g.load(0, dst, genBase, rec+off)
	g.filler(8, dst)
	if g.rng.intn(100) < uint64(p.UpdatePct) {
		g.store(1, genBase, dst, rec+off)
		g.filler(8, dst)
	}
}

// fillHashJoin emits one probe: a sequential scan load of the probe tuple,
// a couple of hash ops, then Chain dependent hops through the bucket table.
func (p *GenParams) fillHashJoin(g *genStream) {
	probeRegion := pow2(uint64(p.Footprint))
	probe := genHeapBase + (uint64(g.nMem)*16)&(probeRegion-1)
	dst := genLoadDst(g.nMem)
	g.load(0, dst, genBase, probe)
	// The hash: multiply + shift on the loaded key. The bucket access
	// below reads the hash result, so it cannot issue before the probe
	// load returns — the join's serial core.
	h := genAluAcc(0)
	g.push(trace.Dyn{PC: 1, Op: isa.Mul, Class: isa.ClassIntMul, Src1: dst, Src2: genBase2, Dst: h})
	g.push(trace.Dyn{PC: 2, Op: isa.Srli, Class: isa.ClassIntALU, Src1: h, Dst: h})
	buckets := pow2(uint64(p.Buckets))
	prev := h
	for hop := 0; hop < p.Chain; hop++ {
		b := genTableBase + g.rng.intn(buckets)*64
		dst := genLoadDst(g.nMem)
		g.load(3+hop, dst, prev, b)
		prev = dst
	}
	g.filler(100, prev)
}

// fillChase advances every lane one hop into a random cell of the lane's
// pool slice; the load's address operand is the lane's own previous
// result, so each lane is a pure serial dependence chain and the lanes
// advance in lockstep.
func (p *GenParams) fillChase(g *genStream) {
	cells := pow2(uint64(p.Footprint) / 16)
	per := cells / pow2(uint64(p.Lanes))
	if per == 0 {
		per = 1
	}
	for l := 0; l < p.Lanes; l++ {
		idx := g.rng.intn(per)
		reg := genLaneReg(l)
		g.load(l, reg, reg, genHeapBase+(uint64(l)*per+idx)*16)
		g.filler(40, reg)
	}
}

// fillGCSweep emits one object visit: load the header Stride bytes past
// the previous one (wrapping over the heap), and mark MarkPct of objects
// with a store to the header's second word.
func (p *GenParams) fillGCSweep(g *genStream) {
	heap := pow2(uint64(p.Footprint))
	pos := (uint64(g.nMem) * uint64(p.Stride)) & (heap - 1)
	dst := genLoadDst(g.nMem)
	g.load(0, dst, genBase, genHeapBase+pos)
	g.filler(8, dst)
	if g.rng.intn(100) < uint64(p.MarkPct) {
		g.store(1, genBase, dst, genHeapBase+pos+8)
		g.filler(8, dst)
	}
}

// fillMultiprog emits one quantum of the current context, then rotates.
// Context behaviors cycle streaming / strided / hot-set — three programs
// that individually have unremarkable streams but fight over banks when
// interleaved.
func (p *GenParams) fillMultiprog(g *genStream) {
	window := pow2(uint64(p.Footprint))
	// Which context's turn: quanta rotate round-robin.
	turn := g.seq / uint64(p.Quantum) % uint64(p.Contexts)
	ctx := int(turn)
	base := uint64(genHeapBase) + uint64(ctx)*genCtxSpacing
	dst := isa.R(8 + ctx%8)
	start := g.seq
	for g.seq-start < uint64(p.Quantum) {
		var addr uint64
		switch ctx % 3 {
		case 0: // streaming: unit-stride scan
			addr = base + (uint64(g.nMem)*8)&(window-1)
		case 1: // strided: row walk whose stride grows with the context
			stride := uint64(64 << (ctx / 3 % 3))
			addr = base + (uint64(g.nMem)*stride)&(window-1)
		default: // hot-set: skewed reuse of a few cache lines
			addr = base + scatter(zipfRank(&g.rng, window/64, 85), window/64, uint64(ctx))*64
		}
		g.load(ctx*8, dst, genBase, addr)
		g.filler(ctx*8+4, dst)
	}
}
