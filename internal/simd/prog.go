package simd

// This file defines the semantic operation stream the Engine can record
// for the trace-replay compiler (internal/simd/program). The trace
// (internal/trace) carries what the *timing* layer needs — classes,
// ports, dependencies — but deliberately erases operand identity: a
// vpermw µop does not say which index table it used, a vmovdqa.const
// does not say which lane pattern it loaded. Replaying a kernel
// functionally needs exactly that erased information, so the Engine
// exposes a second, optional recording channel: every operation with a
// functional effect emits one ProgOp carrying its full semantics
// (register identities, addresses, immediates, index tables). A
// compiler can turn one recorded run of a deterministic kernel into a
// width-specialized straight-line program and replay it without method
// dispatch, per-lane closures or dependency bookkeeping.
//
// Recording is off unless a sink is attached with SetProgSink; the
// per-op cost is then one nil check, so the serving hot path pays
// nothing when not recording.

// ProgKind identifies the semantic operation a ProgOp records. The set
// mirrors the Engine's public API one-to-one (plus PClear for register
// recycling and the scalar element copy).
type ProgKind uint8

// Recorded operation kinds.
const (
	// PClear zeroes Dst (AcquireVec/NewVec recycling a register).
	PClear ProgKind = iota
	// PAddS/PSubS/PMaxS/PMinS are the saturating 16-bit lanewise ops.
	PAddS
	PSubS
	PMaxS
	PMinS
	// PAnd/POr/PXor/PAndN are the bitwise register ops.
	PAnd
	POr
	PXor
	PAndN
	// PSra is the 16-bit arithmetic right shift by immediate (Imm).
	PSra
	// PBcastImm fills every active lane of Dst with Imm.
	PBcastImm
	// PBcastMem fills every active lane of Dst with the int16 at Addr.
	PBcastMem
	// PSetImm loads the Lanes pattern into Dst (full-register clear
	// first, exactly like Engine.SetImm).
	PSetImm
	// PPermute permutes 16-bit lanes of A into Dst by the Idx table.
	PPermute
	// PExt128 copies 128-bit half Imm of A into the low lanes of Dst,
	// zeroing the rest; PExt256 is the 256-bit analogue.
	PExt128
	PExt256
	// PLoad/PStore move Imm bytes between Dst/A and memory at Addr.
	PLoad
	PStore
	// PExtrW stores lane Imm of A to Addr; PInsrW loads Addr into lane
	// Imm of Dst.
	PExtrW
	PInsrW
	// PCopy16 copies one int16 from Addr2 to Addr (the scalar
	// element-copy helper used by arrangement tails).
	PCopy16
)

// ProgOp is one semantically complete engine operation. Dst/A/B
// identify registers by pointer; a sink maps pointer identity to
// virtual register numbers (the same *Vec recycled through
// AcquireVec/ReleaseVec is the same storage, which is exactly the
// dataflow a replay needs). Lanes and Idx may alias caller-owned
// storage: sinks that retain ops beyond the recording call must copy
// them.
type ProgOp struct {
	Kind      ProgKind
	Dst, A, B *Vec
	Addr      int64
	Addr2     int64
	Imm       int64
	Lanes     []int16
	Idx       []int
}

// ProgSink receives the recorded operation stream. Mark lets the
// kernel being recorded annotate structural boundaries (e.g. "one
// decoder iteration starts here") that a compiler can split on.
type ProgSink interface {
	Record(op ProgOp)
	Mark(name string)
}

// SetProgSink attaches (or, with nil, detaches) the semantic operation
// recorder. While attached, every functional engine operation is
// forwarded to the sink in execution order.
func (e *Engine) SetProgSink(s ProgSink) { e.prog = s }

// ProgSink returns the currently attached sink (nil when not recording).
func (e *Engine) ProgSink() ProgSink { return e.prog }

// ProgMark forwards a structural boundary marker to the attached sink;
// a no-op when not recording.
func (e *Engine) ProgMark(name string) {
	if e.prog != nil {
		e.prog.Mark(name)
	}
}

// rec3 forwards op to the attached sink. The name parallels the trace
// recorder's emit: emit feeds the timing layer, rec3 feeds the replay
// compiler.
func (e *Engine) rec3(op ProgOp) {
	if e.prog != nil {
		e.prog.Record(op)
	}
}
