package program

import (
	"math/bits"
	"unsafe"

	"vransim/internal/simd"
)

// sat16 saturates to int16 without branches (min/max lower to CMOV).
func sat16(x int32) int16 { return int16(min(max(x, -32768), 32767)) }

func satAdd(a, b int16) int16 { return sat16(int32(a) + int32(b)) }

func satSub(a, b int16) int16 { return sat16(int32(a) - int32(b)) }

// sentinel indexes the always-zero upper half of a gather source. The Go
// executor gathers from 2*regStride-lane local copies whose lanes
// [regStride, 2*regStride) stay zero; the Emitter interns every index
// table with each invalid or inactive entry set to regStride
// (Emitter.intern), so "out-of-range selects zero" costs no branch, and masking a table entry with gmask bounds it
// for the compiler. Entries are words because the native kernel hands the
// same tables to VPERMW as its index operand; it reads the sentinel as
// lane 0 and zeroes those lanes through the table's mask (p.gatAnd).
const (
	sentinel = regStride
	gmask    = 2*regStride - 1
)

type gatherSrc = [2 * regStride]int16

// reg views the register at byte offset off of the register file.
func reg(r []int16, off uint32) *[regStride]int16 {
	return (*[regStride]int16)(r[off>>1:])
}

// line returns the n arena lanes at byte offset a.
func line(m []int16, a uint32, n int) []int16 { return m[a>>1:][:n] }

// tab returns the index table at byte offset off of the table pool.
func (p *Program) tab(off uint32) *[regStride]uint16 { return &p.gat[off/(2*regStride)] }

// region16 views a state region as int16 lanes. Emit refuses a big-endian
// host (errBigEndian) and an odd address (Emitter.check), so the host is
// little-endian and every offset a program touches is even, and lane a>>1 is the 16-bit word the engine reads at byte a of
// the region.
func region16(b []byte) []int16 {
	ptr := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(ptr)&1 != 0 {
		panic("program: state region is not 2-byte aligned")
	}
	return unsafe.Slice((*int16)(ptr), len(b)/2)
}

// regionAlign is the alignment a state region's start must keep. The
// program's line addresses are multiples of the register width from a
// 64-byte-aligned start, and the native kernel's 64-byte
// loads and stores of them stay inside one cache line only while the
// region a worker runs them over starts on one too.
const regionAlign = 64

// Exec is one worker's execution state for a Program: its register file,
// the state region the program's offsets are applied to, and the executor
// that runs the program's streams over them. It is what is mutable about a
// replay, and it is not safe for concurrent use; a worker holds one per
// plan and drops it when the region is evicted.
type Exec struct {
	p      *Program
	regs   []int16
	m      []int16
	native bool
}

// NewExec returns a fresh execution state (registers zero, as a fresh
// engine's are) over the region of mem that starts at base, on
// the executor UseNativeKernel selects now. It panics when base is not
// 64-byte aligned or fewer than Extent bytes follow it, as the first
// out-of-range slice expression of a Run would.
func (p *Program) NewExec(mem *simd.Memory, base int64) *Exec {
	if base < 0 || base%regionAlign != 0 {
		panic("program: state region is not 64-byte aligned")
	}
	n := (p.extent + 1) &^ 1
	if base+n > int64(mem.Size()) {
		panic("program: state region smaller than the program's extent")
	}
	return &Exec{p: p, regs: make([]int16, p.nregs), m: region16(mem.Bytes(base, int(n))), native: useNative.Load()}
}

// Run replays one segment over x's region. The register file persists
// across calls; a decode runs SegFirst once and then SegSteady for every
// iteration, the first included. Region bytes are the only observable state:
// the register file is private to x, and a fused record leaves its
// intermediate register unwritten, which the Emitter allows only where no
// record reads that register before writing it again (Emitter.use, and
// across segments Emitter.finish). The program itself is only read, so Runs
// over different Execs may overlap in time. The loop performs no
// allocation.
func (p *Program) Run(x *Exec, seg int) {
	if x.p != p {
		panic("program: Exec belongs to another program")
	}
	p.run(x, p.code[seg])
}

// run executes a stream on x's executor.
func (p *Program) run(x *Exec, code []uint32) {
	if x.native {
		p.runStream(x, code)
	} else {
		p.runStreamGo(x, code, &[1 + maxClasses]uint32{})
	}
}

// runStreamGo executes a segment's stream in Go: record kind by record
// kind what runStreamAVX512 does with the instructions, over Go slices
// whose bounds checks stay. A register a record writes under the lane mask
// keeps its lanes >= L; a load zeroes them. A stop record is only a record
// here, since Go code can be preempted anywhere. base holds each class's
// base, an offset from the region's start that wraps as the assembly's
// 32-bit adds do: a record's addresses are its words plus o, the base of
// class 1 until a base record names another (0 outside a loop).
func (p *Program) runStreamGo(x *Exec, code []uint32, base *[1 + maxClasses]uint32) {
	r, m, L := x.regs, x.m, p.lanes
	o := base[1]
	for pc := 0; pc < len(code); {
		kind, n, w := code[pc]&0xff, int(code[pc]>>8), code[pc+1:]
		switch kind {
		case nBase:
			o = base[n]
			pc++
		case nStop:
			pc++
		case nClear:
			*reg(r, w[0]) = [regStride]int16{}
			pc += 2
		case nAnd, nOr, nXor:
			binop(kind, reg(r, w[0])[:L], reg(r, w[1])[:L], reg(r, w[2])[:L])
			pc += 4
		case nSra:
			d, a := reg(r, w[0])[:L], reg(r, w[1])[:L]
			for i := range d {
				d[i] = a[i] >> uint(n)
			}
			pc += 3
		case nBcastImm:
			d := reg(r, w[0])[:L]
			for i := range d {
				d[i] = int16(uint16(n))
			}
			pc += 2
		case nSetImm:
			*reg(r, w[0]) = p.pats[w[1]/(2*regStride)]
			pc += 3
		case nLoad, nLoadReg:
			// The Emitter writes only masks of the low lanes (laneMask).
			var v [regStride]int16
			k, src, at := bits.Len32(w[2]), m, w[1]+o
			if kind == nLoadReg {
				src, at = r, w[1]
			}
			copy(v[:k], src[at>>1:][:k])
			*reg(r, w[0]) = v
			pc += 4
		case nStore:
			k := bits.Len32(w[2])
			copy(line(m, w[1]+o, k), reg(r, w[0])[:k])
			pc += 4
		case nExtrW:
			m[(w[1]+o)>>1] = r[w[0]>>1]
			pc += 3
		case nExtVec:
			p.extVec(r, m, w[:6], uint(n), o)
			pc += 7
		case nMergeMem:
			p.merge(m, w[0], w[1:][:2*n], o)
			pc += 2 + 2*n
		case nGammaSweep:
			p.gammaSweep(m, w[:gammaWords-1], n, o)
			pc += gammaWords
		case nAlphaSweep:
			p.sweep(r, m, w[:10], n, o)
			pc += 11
		case nBetaSweep:
			p.sweep(r, m, w[:8], n, o)
			pc += 9
		case nBetaExtSweep:
			rows := int(w[31]) * int(w[9])
			p.betaExtSweep(r, m, w[:32+rows], n, o)
			pc += 33 + rows
		case nLoop:
			pc += p.loop(x, code, pc, n)
		case nEnd:
			pc++
		default:
			panic("program: unknown record kind in a stream")
		}
	}
}

// binop is d = a op b lane by lane, for the five lane ops. Each lane
// reads a and b before it writes d, so d may alias either.
func binop(kind uint32, d, a, b []int16) {
	a, b = a[:len(d)], b[:len(d)]
	switch kind {
	case nAnd:
		for i := range d {
			d[i] = a[i] & b[i]
		}
	case nOr:
		for i := range d {
			d[i] = a[i] | b[i]
		}
	case nXor:
		for i := range d {
			d[i] = a[i] ^ b[i]
		}
	}
}

// extVec is the extrinsic group over w = {lim, nlim, dv, sv, lv, out}:
// out = max(min((dv >> sh) - (sv + lv), lim), nlim), saturating, every
// line read before out is written.
func (p *Program) extVec(r, m []int16, w []uint32, sh uint, o uint32) {
	L := p.lanes
	lim, nlim := reg(r, w[0])[:L], reg(r, w[1])[:L]
	dv, sv, lv := line(m, w[2]+o, L), line(m, w[3]+o, L), line(m, w[4]+o, L)
	var out [regStride]int16
	for i := range lim {
		t := satAdd(sv[i], lv[i])
		out[i] = max(min(satSub(dv[i]>>sh, t), lim[i]), nlim[i])
	}
	copy(line(m, w[5]+o, L), out[:L])
}

// merge ORs the lines of srcs, (line, table) pairs, each permuted by its
// table, and stores the result at dst: a gather, every line read before
// dst is written. o is the base of the record's lines.
func (p *Program) merge(m []int16, dst uint32, srcs []uint32, o uint32) {
	L := p.lanes
	var acc [regStride]int16
	for ; len(srcs) >= 2; srcs = srcs[2:] {
		var src gatherSrc
		copy(src[:L], line(m, srcs[0]+o, L))
		for i, j := range p.tab(srcs[1])[:L] {
			acc[i] |= src[j&gmask]
		}
	}
	copy(line(m, dst+o, L), acc[:L])
}

// gammaSweep runs n gamma groups, w = {s, ds, p, dp, la, dla, q, dq, dl,
// then GammaLines × 4 tables}: group g forms g0 = s+la+p, g1 = s+la−p and
// their negations from its three lines, and stores quad line j, at
// q+g·dq+j·dl, as the OR of the four permuted by line j's tables. The
// addresses move by their strides from the record's base o, wrapping as
// the assembly's 32-bit adds do.
func (p *Program) gammaSweep(m []int16, w []uint32, n int, o uint32) {
	L := p.lanes
	var tabs [4 * GammaLines]*[regStride]uint16
	for i := range tabs {
		tabs[i] = p.tab(w[9+i])
	}
	sa, pa, la, q := w[0]+o, w[2]+o, w[4]+o, w[6]+o
	var srcs [4]gatherSrc // g0 g1 n0 n1
	for range n {
		sv, pv, lv := line(m, sa, L), line(m, pa, L), line(m, la, L)
		for i := range sv {
			t := satAdd(sv[i], lv[i])
			g0, g1 := satAdd(t, pv[i]), satSub(t, pv[i])
			srcs[0][i], srcs[1][i], srcs[2][i], srcs[3][i] = g0, g1, satSub(0, g0), satSub(0, g1)
		}
		at := q
		for j := range GammaLines {
			var acc [regStride]int16
			for v := range srcs {
				for i, x := range tabs[4*j+v][:L] {
					acc[i] |= srcs[v][x&gmask]
				}
			}
			copy(line(m, at, L), acc[:L])
			at += w[8]
		}
		sa, pa, la, q = sa+w[1], pa+w[3], la+w[5], q+w[7]
	}
}

// trellis holds the five recursion tables of a sweep, its carried state c
// (alpha or beta), which the steps update in place, and the scratch nb.
// Every table entry is a lane below L or the sentinel, so lanes >= L of
// either are never read, and their upper halves stay zero.
type trellis struct {
	g0, g1, g2, g3, gn *[regStride]uint16
	c, nb              gatherSrc
}

// newTrellis loads a sweep's tables and carried register from w = {c, g0,
// g1, g2, g3, gn}.
func (p *Program) newTrellis(r []int16, w []uint32) trellis {
	t := trellis{g0: p.tab(w[1]), g1: p.tab(w[2]), g2: p.tab(w[3]), g3: p.tab(w[4]), gn: p.tab(w[5])}
	copy(t.c[:regStride], reg(r, w[0])[:])
	return t
}

// step is one trellis step over the quad line q: the two branch sums v0
// and v1 of the carried state's predecessors and the line's branch
// metrics, and the carried state their maximum less its normalising lane.
func (t *trellis) step(q *gatherSrc, v0, v1 *[regStride]int16, L int) {
	nb := &t.nb
	g0 := t.g0[:L]
	g1, g2, g3 := t.g1[:len(g0)], t.g2[:len(g0)], t.g3[:len(g0)]
	for i, j := range g0 {
		s0 := satAdd(t.c[g2[i]&gmask], q[j&gmask])
		s1 := satAdd(t.c[g3[i]&gmask], q[g1[i]&gmask])
		v0[i], v1[i], nb[i] = s0, s1, max(s0, s1)
	}
	for i, j := range t.gn[:L] {
		t.c[i] = satSub(nb[i], nb[j&gmask])
	}
}

// sweep runs n steps of an alpha sweep, w = {c, g0..gn, q, dq, out,
// dout}, each step reading its quad line and storing the new alpha to its
// out line, or of a beta sweep, w = {c, g0..gn, q, dq}, and writes the
// carried register back. Addresses move by their stride a step, wrapping
// as the assembly's 32-bit adds do, from the record's base o.
func (p *Program) sweep(r, m []int16, w []uint32, n int, o uint32) {
	L := p.lanes
	t := p.newTrellis(r, w)
	var q gatherSrc
	var v0, v1 [regStride]int16
	qa := w[6] + o
	for s := 0; s < n; s++ {
		copy(q[:L], line(m, qa, L))
		t.step(&q, &v0, &v1, L)
		if len(w) > 8 {
			copy(line(m, o+w[8]+uint32(s)*w[9], L), t.c[:L])
		}
		qa += w[7]
	}
	copy(reg(r, w[0])[:L], t.c[:L])
}

// betaExtSweep runs n steps of a beta sweep that extracts the posterior of
// each: w holds the carried register, the five recursion and three
// horizontal-max tables, the count nx, the nx extracted lanes two to a
// word, the quad and alpha lines with their strides, the table's stride
// dout, its row count np and its np rows of nx word addresses. Step s
// stores to row s mod np, moved by (s/np)·dout, all from the record's base
// o.
func (p *Program) betaExtSweep(r, m []int16, w []uint32, n int, o uint32) {
	L := p.lanes
	t := p.newTrellis(r, w)
	h0, h1, h2 := p.tab(w[6]), p.tab(w[7]), p.tab(w[8])
	nx := int(w[9])
	var lanes [regStride]int
	for x := range nx {
		lanes[x] = int(w[10+x/2]>>(16*(x%2))) & (regStride - 1)
	}
	qa, al, rows, off := w[26]+o, w[28]+o, w[32:], o
	var q, e0, e1, m0, m1 gatherSrc
	var v0, v1 [regStride]int16
	row := rows
	for s := 0; s < n; s++ {
		copy(q[:L], line(m, qa, L))
		t.step(&q, &v0, &v1, L)
		for i, a := range line(m, al, L) {
			e0[i], e1[i] = satAdd(a, v0[i]), satAdd(a, v1[i])
		}
		// Stages 1 and 2 of both butterflies leave their reductions in e0
		// and e1; of stage 3 only the extracted lanes are observable.
		hmaxStage(&m0, &e0, &m1, &e1, h0[:L])
		hmaxStage(&e0, &m0, &e1, &m1, h1[:L])
		for x, a := range row[:nx] {
			i := lanes[x]
			j := h2[i] & gmask
			m[(a+off)>>1] = satSub(max(e0[i], e0[j]), max(e1[i], e1[j]))
		}
		if row = row[nx:]; len(row) == 0 {
			row, off = rows, off+w[30]
		}
		qa, al = qa+w[27], al+w[29]
	}
	copy(reg(r, w[0])[:L], t.c[:L])
}

// loop runs the loop record at code[pc], n trips, and returns its length
// in words: the definition's body a trip at a time, each class's base at
// the trip times its stride.
func (p *Program) loop(x *Exec, code []uint32, pc, n int) int {
	t0, back := code[pc+1], int(code[pc+2])
	def := code[pc-back+3:]
	nc := int(def[0])
	strides, size := def[1:][:nc], int(def[1+nc])
	body := def[2+nc:][:size]
	var base [1 + maxClasses]uint32
	for t := range uint32(n) {
		for c, d := range strides {
			base[1+c] = (t0 + t) * d
		}
		p.runStreamGo(x, body, &base)
	}
	if back != 0 {
		return 3
	}
	return 5 + nc + size
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
