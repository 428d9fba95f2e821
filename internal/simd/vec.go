// Package simd emulates the subset of the x86 SIMD instruction set that
// the vRAN pipeline uses (SSE128 / AVX256 / AVX512 generations), in pure
// Go. Every operation has two effects:
//
//  1. a bit-exact functional effect on emulated vector registers and a
//     flat emulated memory, so algorithms built on the package (turbo
//     decoding, data arrangement, …) can be tested for correctness; and
//  2. the emission of a µop into a trace (internal/trace) carrying the
//     operation's execution class and true register dataflow
//     dependencies, so the timing simulator (internal/uarch) can replay
//     the exact instruction stream against a port model.
//
// The register width in use is a property of the Engine, mirroring how
// the same source compiles against xmm, ymm or zmm registers.
package simd

import (
	"fmt"

	"vransim/internal/trace"
)

// Width is the active SIMD register width in bytes.
type Width int

// Supported register widths. The names follow the paper's usage: SSE128
// (xmm), AVX256 (ymm) and AVX512 (zmm).
const (
	W128 Width = 16
	W256 Width = 32
	W512 Width = 64
)

// Widths lists all supported widths in increasing order, convenient for
// experiment sweeps.
var Widths = []Width{W128, W256, W512}

// Bits returns the register width in bits.
func (w Width) Bits() int { return int(w) * 8 }

// Lanes16 returns the number of 16-bit lanes in a register of width w.
func (w Width) Lanes16() int { return int(w) / 2 }

// String names the width the way the paper does.
func (w Width) String() string {
	switch w {
	case W128:
		return "SSE128"
	case W256:
		return "AVX256"
	case W512:
		return "AVX512"
	}
	return fmt.Sprintf("W%d", w.Bits())
}

// Vec is one emulated vector register. It always reserves the maximum
// 512 bits of storage; the Engine's Width decides how many bytes are
// active. A Vec must be obtained from Engine.NewVec (or be zero-valued)
// and is not safe for concurrent use.
type Vec struct {
	b [64]byte
	// writer is the trace index of the instruction that last wrote this
	// register, or trace.NoDep. It implements dataflow dependency
	// tracking without a rename table.
	writer int32
}

// Lane16 returns the signed 16-bit value in lane i.
func (v *Vec) Lane16(i int) int16 {
	return int16(uint16(v.b[2*i]) | uint16(v.b[2*i+1])<<8)
}

// SetLane16 stores a signed 16-bit value into lane i. It is a test/setup
// helper and does not emit a µop.
func (v *Vec) SetLane16(i int, x int16) {
	v.b[2*i] = byte(uint16(x))
	v.b[2*i+1] = byte(uint16(x) >> 8)
}

// SetLanes16 fills lanes from xs. It is a test/setup helper and does not
// emit a µop.
func (v *Vec) SetLanes16(xs []int16) {
	for i, x := range xs {
		v.SetLane16(i, x)
	}
}

// Clear zeroes the register without emitting a µop.
func (v *Vec) Clear() {
	v.b = [64]byte{}
	v.writer = trace.NoDep
}

// satAddI16 returns a+b with signed 16-bit saturation, the semantics of
// the x86 PADDSW instruction.
func satAddI16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}

// satSubI16 returns a-b with signed 16-bit saturation (PSUBSW).
func satSubI16(a, b int16) int16 {
	s := int32(a) - int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}

func maxI16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

func minI16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}
