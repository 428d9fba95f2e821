package program

import (
	"unsafe"

	"vransim/internal/simd"
)

// sat16 saturates to int16 without branches (min/max lower to CMOV).
func sat16(x int32) int16 { return int16(min(max(x, -32768), 32767)) }

func satAdd(a, b int16) int16 { return sat16(int32(a) + int32(b)) }

func satSub(a, b int16) int16 { return sat16(int32(a) - int32(b)) }

func clampi(x, c int32) int16 { return int16(max(min(x, c), -c)) }

// sentinel indexes the always-zero upper half of a gather source. The
// fused ops gather from 2*regStride-lane local copies whose lanes
// [regStride, 2*regStride) stay zero; finalize resolves every invalid or
// inactive index-table entry to regStride, so "out-of-range selects
// zero" costs no branch, and masking a table entry with gmask bounds it
// for the compiler. Entries are words because the native kernel hands the
// same tables to VPERMW as its index operand; it reads the sentinel as
// lane 0 and zeroes those lanes through the table's mask (p.gatAnd).
const (
	sentinel = regStride
	gmask    = 2*regStride - 1
)

type gatherSrc = [2 * regStride]int16

// lanes views the register at lane offset off as a fixed-size array, so
// the per-lane loops below index it without bounds checks.
func lanes[I int32 | int64](r []int16, off I) *[regStride]int16 {
	return (*[regStride]int16)(r[off:])
}

// operands returns the active lanes of a three-register op's d, a and b.
func operands(r []int16, op *mop, L int) (d, a, b []int16) {
	return lanes(r, op.d)[:L], lanes(r, op.a)[:L], lanes(r, op.b)[:L]
}

// line returns the n arena lanes at byte address a.
func line[I int32 | int64](m []int16, a I, n int) []int16 { return m[a>>1:][:n] }

// region16 views a state region as int16 lanes. finalize has established
// that the host is little-endian and that every offset the program touches
// is even, so lane a>>1 is the 16-bit word the engine reads at byte a of
// the region.
func region16(b []byte) []int16 {
	ptr := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(ptr)&1 != 0 {
		panic("program: state region is not 2-byte aligned")
	}
	return unsafe.Slice((*int16)(ptr), len(b)/2)
}

// regionAlign is the alignment a state region's start must keep. The
// program's line addresses were recorded as multiples of the register
// width from a 64-byte-aligned start, and the native kernel's 64-byte
// loads and stores of them stay inside one cache line only while the
// region a worker runs them over starts on one too.
const regionAlign = 64

// Exec is one worker's execution state for a Program: its register file
// and the state region the program's offsets are applied to. It is what
// is mutable about a replay, and it is not safe for concurrent use; a
// worker holds one per plan and drops it when the region is evicted.
type Exec struct {
	p    *Program
	regs []int16
	m    []int16
}

// NewExec returns a fresh execution state (registers zero, as the
// recording engine's were) over the region of mem that starts at base. It
// panics when base is not 64-byte aligned or fewer than Extent bytes
// follow it, as the first out-of-range slice expression of a Run would.
func (p *Program) NewExec(mem *simd.Memory, base int64) *Exec {
	if base < 0 || base%regionAlign != 0 {
		panic("program: state region is not 64-byte aligned")
	}
	n := (p.extent + 1) &^ 1
	if base+n > int64(mem.Size()) {
		panic("program: state region smaller than the program's extent")
	}
	return &Exec{p: p, regs: make([]int16, p.nregs), m: region16(mem.Bytes(base, int(n)))}
}

// Run replays one segment over x's region. The register file persists
// across calls; a decode runs SegFirst once and then SegSteady for every
// iteration, the first included. Region bytes are the only observable state:
// the register file is private to x, and a fused op writes an
// intermediate register only when finalize's liveness pass found a later
// reader (op.live). The program itself is only read, so Runs over
// different Execs may overlap in time. The loop performs no allocation.
func (p *Program) Run(x *Exec, seg int) {
	if x.p != p {
		panic("program: Exec belongs to another program")
	}
	p.run(x, seg)
}

// run executes a segment over an execution state NewExec has checked: as
// its descriptor stream when the program was compiled for the native
// kernel (kern.go), else op by op.
func (p *Program) run(x *Exec, seg int) {
	if code := p.native[seg]; code != nil {
		p.runStream(x, code, p.segs[seg])
		return
	}
	p.exec(x, p.segs[seg])
}

// exec runs ops in order through their Go bodies: the specification of
// every op kind, which the native kernel is differentially tested against.
func (p *Program) exec(x *Exec, ops []mop) {
	r, m := x.regs, x.m
	L := p.lanes
	for oi := range ops {
		op := &ops[oi]
		switch op.kind {
		case mClear:
			*lanes(r, op.d) = [regStride]int16{}
		case mAddS:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = satAdd(a[i], b[i])
			}
		case mSubS:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = satSub(a[i], b[i])
			}
		case mMaxS:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = max(a[i], b[i])
			}
		case mMinS:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = min(a[i], b[i])
			}
		case mAnd:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = a[i] & b[i]
			}
		case mOr:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = a[i] | b[i]
			}
		case mXor:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = a[i] ^ b[i]
			}
		case mAndN:
			d, a, b := operands(r, op, L)
			for i := range d {
				d[i] = ^a[i] & b[i]
			}
		case mSra:
			d, a := lanes(r, op.d)[:L], lanes(r, op.a)[:L]
			sh := uint(op.imm)
			for i := range d {
				d[i] = a[i] >> sh
			}
		case mBcastImm:
			d := lanes(r, op.d)[:L]
			x := int16(op.imm)
			for i := range d {
				d[i] = x
			}
		case mBcastMem:
			d := lanes(r, op.d)[:L]
			x := m[op.addr>>1]
			for i := range d {
				d[i] = x
			}
		case mSetImm:
			d := lanes(r, op.d)
			*d = [regStride]int16{}
			copy(d[:], p.lanePats[op.tab])
		case mPermute:
			p.permute(r, int64(op.d), int64(op.a), int64(op.tab))
		case mExt128:
			extract(r, op.d, op.a, 8*int(op.imm), 8)
		case mExt256:
			extract(r, op.d, op.a, 16*int(op.imm), 16)
		case mLoad:
			d := lanes(r, op.d)
			*d = [regStride]int16{}
			n := int(op.imm) / 2
			copy(d[:n], line(m, op.addr, n))
		case mStore:
			n := int(op.imm) / 2
			copy(line(m, op.addr, n), lanes(r, op.a)[:n])
		case mExtrW:
			m[op.addr>>1] = r[op.a+int32(op.imm)]
		case mInsrW:
			r[op.d+int32(op.imm)] = m[op.addr>>1]
		case mCopy16:
			m[op.addr>>1] = m[op.addr2>>1]
		case mGammaPoint:
			t := p.aux32[op.tab : op.tab+3]
			sa := int32(m[t[0]>>1]) + int32(m[t[2]>>1])
			pv := int32(m[t[1]>>1])
			m[op.addr>>1] = sat16(sa + pv)
			m[op.addr2>>1] = sat16(sa - pv)
		case mExtPoint:
			t := p.aux32[op.tab : op.tab+3]
			x := int32(m[t[2]>>1]>>1) - int32(m[t[0]>>1]) - int32(m[t[1]>>1])
			m[op.addr>>1] = clampi(x, int32(op.imm))

		case mCopyRun:
			t := p.aux[op.tab : op.tab+2*op.n]
			for i := 0; i+1 < len(t); i += 2 {
				m[t[i]>>1] = m[t[i+1]>>1]
			}
		case mExtVec:
			t := p.aux[op.tab : op.tab+11]
			dv, sv, lv, out := line(m, t[7], L), line(m, t[8], L), line(m, t[9], L), line(m, t[10], L)
			lim, nlim := lanes(r, t[5])[:L], lanes(r, t[6])[:L]
			full := op.live != 0
			dvec, s, la := lanes(r, t[0])[:L], lanes(r, t[1])[:L], lanes(r, t[2])[:L]
			tt, half := lanes(r, t[3])[:L], lanes(r, t[4])[:L]
			sh := uint(op.imm)
			for i := range out {
				tv := satAdd(sv[i], lv[i])
				h := max(min(satSub(dv[i]>>sh, tv), lim[i]), nlim[i])
				if full {
					dvec[i], s[i], la[i], tt[i], half[i] = dv[i], sv[i], lv[i], tv, h
				}
				out[i] = h
			}
		case mQuadScatter:
			// live bits: 0 acc, 1 tmp.
			ns := int(op.n)
			t := p.aux[op.tab : op.tab+int32(3+2*ns)]
			var v [regStride]int16
			var src gatherSrc
			for s := 0; s < ns; s++ {
				copy(src[:regStride], lanes(r, t[3+2*s])[:])
				for i, j := range p.gat[t[4+2*s]][:L] {
					v[i] |= src[j&gmask]
				}
			}
			copy(line(m, t[2], L), v[:L])
			if op.live&1 != 0 {
				copy(lanes(r, t[0])[:L], v[:L])
			}
			if op.live&2 != 0 {
				// tmp's final value is the last permute's output.
				gather(lanes(r, t[1])[:L], &src, &p.gat[t[2+2*ns]])
			}
		case mQuadGather:
			// live bits: 0 source register, 1 acc, 2 tmp (ns > 1 only).
			ns := int(op.n)
			t := p.aux[op.tab : op.tab+int32(4+2*ns)]
			var v [regStride]int16
			var src gatherSrc
			for s := 0; s < ns; s++ {
				copy(src[:L], line(m, t[4+2*s], L))
				for i, j := range p.gat[t[5+2*s]][:L] {
					v[i] |= src[j&gmask]
				}
			}
			// The store range is disjoint from every load range (checked
			// at fuse time), so src still holds the last load.
			copy(line(m, t[3], L), v[:L])
			if op.live&1 != 0 {
				copy(lanes(r, t[0])[:], src[:regStride])
			}
			if op.live&2 != 0 {
				copy(lanes(r, t[1])[:L], v[:L])
			}
			if op.live&4 != 0 {
				gather(lanes(r, t[2])[:L], &src, &p.gat[t[3+2*ns]])
			}
		case mAlphaStepP:
			// live bits: 0-7 qd bm0 bm1 a0 a1 c0 c1 norm, 8 alpha (the
			// carried state, always written).
			t := p.aux[op.tab : op.tab+16]
			al := lanes(r, t[8])
			full := op.live&0xff != 0
			var q, a, na gatherSrc
			copy(q[:L], line(m, t[9], L))
			copy(a[:regStride], al[:])
			g0, g1, g2, g3 := p.gat[t[11]][:L], p.gat[t[12]][:L], p.gat[t[13]][:L], p.gat[t[14]][:L]
			bm0, bm1, a0, a1 := lanes(r, t[1])[:L], lanes(r, t[2])[:L], lanes(r, t[3])[:L], lanes(r, t[4])[:L]
			c0, c1, norm := lanes(r, t[5])[:L], lanes(r, t[6])[:L], lanes(r, t[7])[:L]
			for i := range g0 {
				x0, x1 := q[g0[i]&gmask], q[g1[i]&gmask]
				y0, y1 := a[g2[i]&gmask], a[g3[i]&gmask]
				s0, s1 := satAdd(y0, x0), satAdd(y1, x1)
				if full {
					bm0[i], bm1[i], a0[i], a1[i], c0[i], c1[i] = x0, x1, y0, y1, s0, s1
				}
				na[i] = max(s0, s1)
			}
			out := line(m, t[10], L)
			for i, j := range p.gat[t[15]][:L] {
				nv := na[j&gmask]
				if full {
					norm[i] = nv
				}
				v := satSub(na[i], nv)
				al[i], out[i] = v, v
			}
			if full {
				copy(lanes(r, t[0])[:], q[:regStride])
			}
		case mBetaStepP:
			// live bits: 0-6 qd bm0 bm1 b0 b1 v0 v1, 7 beta (the carried
			// state, always written), 8 norm, 9-15 al e0 e1 m0 m1 tmp dv.
			t := p.aux[op.tab:]
			beta := lanes(r, t[7])
			full := op.live&^(1<<7) != 0
			var q, b, nb gatherSrc
			var v0, v1 [regStride]int16
			copy(q[:L], line(m, t[9], L))
			copy(b[:regStride], beta[:])
			g0, g1, g2, g3 := p.gat[t[10]][:L], p.gat[t[11]][:L], p.gat[t[12]][:L], p.gat[t[13]][:L]
			bm0, bm1, b0, b1 := lanes(r, t[1])[:L], lanes(r, t[2])[:L], lanes(r, t[3])[:L], lanes(r, t[4])[:L]
			rv0, rv1, norm := lanes(r, t[5])[:L], lanes(r, t[6])[:L], lanes(r, t[8])[:L]
			for i := range g0 {
				x0, x1 := q[g0[i]&gmask], q[g1[i]&gmask]
				y0, y1 := b[g2[i]&gmask], b[g3[i]&gmask]
				w0, w1 := satAdd(y0, x0), satAdd(y1, x1)
				if full {
					bm0[i], bm1[i], b0[i], b1[i], rv0[i], rv1[i] = x0, x1, y0, y1, w0, w1
				}
				v0[i], v1[i], nb[i] = w0, w1, max(w0, w1)
			}
			if op.imm != 0 {
				// Fused posterior extraction for in-block steps.
				var e0, e1, m0, m1 gatherSrc
				av := line(m, t[22], L)
				for i, x := range av {
					e0[i], e1[i] = satAdd(x, v0[i]), satAdd(x, v1[i])
				}
				if full {
					al := lanes(r, t[15])
					*al = [regStride]int16{}
					copy(al[:L], av)
					copy(lanes(r, t[16])[:L], e0[:L])
					copy(lanes(r, t[17])[:L], e1[:L])
				}
				// Both butterflies share the index tables. Stages 1 and 2
				// leave the stage-2 reductions in e0/e1; of stage 3 only
				// the extracted lanes are observable unless m0, m1, tmp or
				// dv is read later.
				h2 := &p.gat[t[25]]
				hmaxStage(&m0, &e0, &m1, &e1, p.gat[t[23]][:L])
				hmaxStage(&e0, &m0, &e1, &m1, p.gat[t[24]][:L])
				et := t[26 : 26+2*op.n]
				for ; len(et) >= 2; et = et[2:] {
					i := et[1] & (regStride - 1)
					j := h2[i] & gmask
					m[et[0]>>1] = satSub(max(e0[i], e0[j]), max(e1[i], e1[j]))
				}
				if full {
					// tmp's final value is the second butterfly's last
					// permute.
					gather(lanes(r, t[20])[:L], &e1, h2)
					hmaxStage(&m0, &e0, &m1, &e1, h2[:L])
					copy(lanes(r, t[18])[:L], m0[:L])
					copy(lanes(r, t[19])[:L], m1[:L])
					dv := lanes(r, t[21])[:L]
					for i := range dv {
						dv[i] = satSub(m0[i], m1[i])
					}
				}
			}
			for i, j := range p.gat[t[14]][:L] {
				nv := nb[j&gmask]
				if full {
					norm[i] = nv
				}
				beta[i] = satSub(nb[i], nv)
			}
			if full {
				copy(lanes(r, t[0])[:], q[:regStride])
			}
		}
	}
}

// hmaxStage is one vpermw+pmax stage of two horizontal-max butterflies
// sharing an index table: dst[i] = max(src[i], src[g[i]]). The engine's
// permute reads the complete pre-stage register, so dst and src must be
// distinct, and an invalid index contributes the permute's zero (lanes
// >= regStride of every operand stay zero).
func hmaxStage(da, sa, db, sb *gatherSrc, g []uint16) {
	for i, j := range g {
		i, j := i&gmask, j&gmask
		da[i], db[i] = max(sa[i], sa[j]), max(sb[i], sb[j])
	}
}

// gather is vpermw over a zero-extended source: dst[i] = src[g[i]], with
// sentinel entries selecting zero.
func gather(dst []int16, src *gatherSrc, g *[regStride]uint16) {
	for i, j := range g[:len(dst)] {
		dst[i] = src[j&gmask]
	}
}

// permute implements the engine's PermuteW semantics: active lanes only,
// out-of-range or missing indices select zero, staging through a local
// copy so dst == src aliasing behaves identically.
func (p *Program) permute(r []int16, d, a, tab int64) {
	var src gatherSrc
	copy(src[:regStride], lanes(r, a)[:])
	gather(lanes(r, d)[:p.lanes], &src, &p.gat[tab])
}

// extract implements VExtractI128/VExtractI32x8: lanes [from, from+n) of
// a into lanes [0, n) of d, the rest of d zeroed.
func extract(r []int16, d, a int32, from, n int) {
	var x [regStride]int16
	copy(x[:n], lanes(r, a)[from:from+n])
	*lanes(r, d) = x
}
