// Package program makes replay programs of a decode. The interpreter
// (internal/simd.Engine) pays per-µop overhead on every call — method
// dispatch, a closure call per 16-bit lane, dependency bookkeeping — even
// though the µop stream per (K, width, strategy) is deterministic: the same
// instructions touch the same arena addresses with the same index tables
// every decode, only the data differs. This package exploits that. A
// program has two segments, a "first" one (the prefix: setup and
// constants, run once a decode) and a "steady" one (one iteration,
// identical for every iteration, the first included), each a descriptor
// stream (kern.go) that runs directly over a state region.
//
// There is one compiler, and it writes the streams directly. An Emitter
// (emit.go) is handed the decode by a caller that describes it from its
// plan, with no engine and no recording: internal/turbo's planEmitter
// writes the packed plans of the paper's two arrangements so. Each
// Emitter method writes the record of the engine sequence its comment
// spells out, checking every operand as it writes it; the hot patterns of
// the packed decode stream — whole alpha and beta sweeps, quad
// branch-metric scatters, interleave gathers, the extrinsic group — are
// single records, and a run the caller states as a Loop is a loop record
// when its trips repeat trip 0 with their addresses moving by fixed
// strides (loop.go). There is no intermediate form and no pass over the
// records once they are written.
//
// What Emit returns is split in two. The Program is immutable, holds one
// executable form on every host — the descriptor streams and the tables
// they address, each distinct table once however many records refer to
// it, run by the AVX-512BW assembly or by its Go twin — and holds
// addresses only as offsets from the start of a state region, so a process
// compiles a (K, width, strategy) once and every worker shares the result.
// What a replay mutates is an Exec: a register file, one such region of
// the worker's own, and the executor it was made with (run.go).
//
// Replay is bit-identical to interpretation where the observable state is
// the region (the register file is private to the Exec): each record
// preserves its engine sequence's memory effects and the register effects
// a later record reads. A fused record writes only its carried register,
// so the Emitter marks the others its sequence writes clobbered and
// refuses a program that reads one before writing it again; a fused
// method refuses register aliasing that would make one pass differ from
// the sequence. The caller's description is held to the interpreter by
// decode differentials (internal/turbo), not by construction.
package program

import (
	"crypto/sha256"
	"encoding/binary"

	"vransim/internal/simd"
)

// regStride is the register-file stride in lanes. Every register gets
// the full 32 lanes (W512) regardless of the compiled width, so partial
// loads and 128/256-bit extracts behave exactly like the engine's
// 64-byte Vec storage (inactive lanes read as zero).
const regStride = 32

// SegFirst and SegSteady select the two replay segments: the first
// segment is the prefix (setup and constants), run once a decode, and the
// steady segment one iteration, run for every iteration, the first
// included.
const (
	SegFirst  = 0
	SegSteady = 1
)

// Program is a compiled replay program: the register dataflow of the
// decode it was written from, over addresses that are byte offsets from
// the start of a state region. It is immutable once Emit returns and holds
// no mutable state: any number of
// goroutines may Run it at once, each over its own Exec (the register file
// and one such region, wherever in that worker's arena it lies). A process
// therefore holds one Program per (K, width, strategy); evicting a
// worker's region drops its Exec and never the Program.
type Program struct {
	w     simd.Width
	lanes int

	// nregs is the size of the register file an Exec carries, in lanes.
	nregs int32

	// extent is the end of the highest byte range of the region any record
	// touches, at any step or trip; NewExec refuses a smaller region.
	extent int64

	// code holds each segment's descriptor stream, and gat, gatAnd and
	// pats the pools the streams address: the distinct index vectors the
	// Emitter was named, one word per lane (the index operand VPERMI2W
	// takes), invalid and inactive entries pointing at the zero sentinel
	// lane; per vector the mask that zeroes a VPERMW result's sentinel
	// lanes; and each SetImm's lane pattern zero-extended to a whole
	// register.
	code   [2][]uint32
	gat    [][regStride]uint16
	gatAnd [][regStride]uint16
	pats   [][regStride]int16
}

// Width reports the register width the program was compiled for.
func (p *Program) Width() simd.Width { return p.w }

// GatherPool reports how many distinct index vectors the program's
// gather pool holds.
func (p *Program) GatherPool() int { return len(p.gat) }

// Extent reports how many bytes of its state region the program touches:
// the least a region handed to NewExec may hold.
func (p *Program) Extent() int64 { return p.extent }

// Checksum digests everything Run reads of the program: the width, the
// lane and register counts, the extent, the descriptor streams and the
// pools they address. Two programs with one checksum replay identically; a
// program whose checksum moves was written to after Emit.
func (p *Program) Checksum() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	put := func(xs ...int64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	// Every variable-length part is preceded by its length, so no two
	// different programs flatten to the same words.
	put(int64(p.w), int64(p.lanes), int64(p.nregs), p.extent)
	for _, tabs := range [][][regStride]uint16{p.gat, p.gatAnd} {
		put(int64(len(tabs)))
		for i := range tabs {
			for _, x := range tabs[i] {
				put(int64(x))
			}
		}
	}
	put(int64(len(p.pats)))
	for i := range p.pats {
		for _, x := range p.pats[i] {
			put(int64(x))
		}
	}
	for _, code := range p.code {
		put(int64(len(code)))
		for _, x := range code {
			put(int64(x))
		}
	}
	h.Write(buf)
	return [sha256.Size]byte(h.Sum(nil))
}
