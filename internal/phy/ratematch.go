package phy

import (
	"fmt"

	"vransim/internal/simd"
)

// subBlockColumns is the fixed column count of the 36.212 sub-block
// interleaver.
const subBlockColumns = 32

// subBlockPerm is the inter-column permutation pattern of TS 36.212
// Table 5.1.4-1.
var subBlockPerm = [subBlockColumns]int{
	0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
	1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
}

// dummy marks padding positions in the interleaver matrix. Using an
// out-of-band sentinel (LLR streams are int16; indices are ints) keeps
// the puncturing logic explicit.
const dummy = -1

// subBlockInterleave writes the D input indices into an R×32 matrix row
// by row (front-padded with dummies), permutes the columns, and reads
// column by column: the output is a length R*32 slice of input indices
// or dummy.
func subBlockInterleave(d int) []int {
	r := (d + subBlockColumns - 1) / subBlockColumns
	total := r * subBlockColumns
	pad := total - d
	out := make([]int, 0, total)
	for _, col := range subBlockPerm {
		for row := 0; row < r; row++ {
			pos := row*subBlockColumns + col
			if pos < pad {
				out = append(out, dummy)
			} else {
				out = append(out, pos-pad)
			}
		}
	}
	return out
}

// subBlockInterleave2 is the modified pattern the third stream uses:
// π(k) = (P[⌊k/R⌋] + 32·(k mod R) + 1) mod (R·32), applied to the padded
// matrix positions.
func subBlockInterleave2(d int) []int {
	r := (d + subBlockColumns - 1) / subBlockColumns
	total := r * subBlockColumns
	pad := total - d
	out := make([]int, 0, total)
	for k := 0; k < total; k++ {
		pos := (subBlockPerm[k/r] + subBlockColumns*(k%r) + 1) % total
		if pos < pad {
			out = append(out, dummy)
		} else {
			out = append(out, pos-pad)
		}
	}
	return out
}

// RateMatcher implements turbo-code rate matching: the three encoder
// output streams pass through sub-block interleavers into a circular
// buffer (systematic part first, then parity bits interlaced), from
// which E bits are read starting at a redundancy-version offset,
// skipping dummies and wrapping around.
type RateMatcher struct {
	D int // per-stream block length (K + tail share)
	// circular[i] holds (stream, index) of buffer position i, or
	// stream = -1 for dummy padding.
	circular []bufPos
	// Eng, when set, receives a representative µop stream — rate
	// matching is a near-ideal-IPC table-walk module in Figures 3-6.
	Eng *simd.Engine
}

type bufPos struct {
	stream int8
	index  int32
}

// NewRateMatcher builds the circular buffer geometry for per-stream
// length d.
func NewRateMatcher(d int) *RateMatcher {
	v0 := subBlockInterleave(d)
	v1 := subBlockInterleave(d)
	v2 := subBlockInterleave2(d)
	buf := make([]bufPos, 0, 3*len(v0))
	for _, idx := range v0 {
		buf = append(buf, pos(0, idx))
	}
	for k := range v1 {
		buf = append(buf, pos(1, v1[k]))
		buf = append(buf, pos(2, v2[k]))
	}
	return &RateMatcher{D: d, circular: buf}
}

func pos(stream int, idx int) bufPos {
	if idx == dummy {
		return bufPos{stream: -1}
	}
	return bufPos{stream: int8(stream), index: int32(idx)}
}

// rvOffset returns the circular-buffer start for redundancy version rv.
func (rm *RateMatcher) rvOffset(rv int) int {
	r := (rm.D + subBlockColumns - 1) / subBlockColumns
	ncb := len(rm.circular)
	return (r * (2*((ncb/(8*r))*rv) + 2)) % ncb
}

// Match selects e bits from the three streams (each length D) for
// redundancy version rv.
func (rm *RateMatcher) Match(s0, s1, s2 []byte, e, rv int) ([]byte, error) {
	if len(s0) != rm.D || len(s1) != rm.D || len(s2) != rm.D {
		return nil, fmt.Errorf("phy: rate matcher built for D=%d, got %d/%d/%d", rm.D, len(s0), len(s1), len(s2))
	}
	streams := [3][]byte{s0, s1, s2}
	out := make([]byte, 0, e)
	ncb := len(rm.circular)
	for i := rm.rvOffset(rv); len(out) < e; i = (i + 1) % ncb {
		p := rm.circular[i]
		if p.stream < 0 {
			continue
		}
		out = append(out, streams[p.stream][p.index])
	}
	rm.emitOps(e)
	return out, nil
}

// Dematch soft-combines e received LLRs back into three per-stream LLR
// buffers (each length D), accumulating repeats and leaving punctured
// positions at zero.
func (rm *RateMatcher) Dematch(llr []int16, rv int) (d0, d1, d2 []int16) {
	d0 = make([]int16, rm.D)
	d1 = make([]int16, rm.D)
	d2 = make([]int16, rm.D)
	dst := [3][]int16{d0, d1, d2}
	ncb := len(rm.circular)
	i := rm.rvOffset(rv)
	for _, v := range llr {
		for rm.circular[i].stream < 0 {
			i = (i + 1) % ncb
		}
		p := rm.circular[i]
		s := dst[p.stream]
		acc := int32(s[p.index]) + int32(v)
		if acc > 32767 {
			acc = 32767
		}
		if acc < -32768 {
			acc = -32768
		}
		s[p.index] = int16(acc)
		i = (i + 1) % ncb
	}
	rm.emitOps(len(llr))
	return d0, d1, d2
}

func (rm *RateMatcher) emitOps(n int) {
	if rm.Eng == nil {
		return
	}
	// Table-driven copy: one load + one store per handful of bits with
	// occasional branches; high-retiring scalar code.
	steps := n / 4
	for i := 0; i < steps; i++ {
		rm.Eng.EmitScalarLoad("mov", int64(i*8), 8)
		rm.Eng.EmitScalar("add", 1)
		rm.Eng.EmitScalarStore("mov", int64(i*8), 8)
		if i%8 == 7 {
			rm.Eng.EmitBranch("jnz")
		}
	}
}
