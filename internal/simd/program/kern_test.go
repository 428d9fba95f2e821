package program

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vransim/internal/simd"
)

// skipWithoutNative skips, with the reason, a test that needs the native
// kernel on a host that lacks it: never a silent pass.
func skipWithoutNative(t testing.TB) {
	if !nativeAvailable {
		t.Skip("no AVX-512BW on this host (or the OS does not save ZMM state): native kernel not exercised")
	}
}

// eachKernel runs f once on the Go executor and once on the native
// kernel: the Execs f makes run on the one it names. On a host without the
// native kernel that half is skipped, with the reason.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		name := "go"
		if on {
			name = "avx512bw"
		}
		t.Run(name, func(t *testing.T) {
			if on {
				skipWithoutNative(t)
			}
			was := UseNativeKernel(on)
			t.Cleanup(func() { UseNativeKernel(was) })
			if Kernel() != name {
				t.Fatalf("Kernel() = %q, want %q", Kernel(), name)
			}
			f(t)
		})
	}
}

// opHarness builds small programs op by op for the differential tests of
// the two executors, through an Emitter, whose Loop writes its loops.
// Arena lines sit 192 bytes apart so every line has at least 64 canary
// bytes either side, and the arena ends exactly where the last line does,
// with 64 more canary bytes behind it that are no part of the arena: a
// record that touched a byte past an L-lane line trips one.
type opHarness struct {
	rng  *rand.Rand
	L    int
	p    *Program
	e    *Emitter
	nreg int
	nlin int
	// outLines and outRegs are the lines and registers the ops write under
	// the lane mask: what the canary checks look beside.
	outLines []int64
	outRegs  []int64
}

func newOpHarness(w simd.Width, rng *rand.Rand) *opHarness {
	p := &Program{w: w, lanes: w.Lanes16()}
	return &opHarness{rng: rng, L: p.lanes, p: p, e: &Emitter{w: w, lanes: p.lanes, p: p}}
}

func (h *opHarness) reg() int64 { h.nreg++; return int64(h.nreg-1) * regStride }

func (h *opHarness) lineAddr() int64 { h.nlin++; return 64 + int64(h.nlin-1)*192 }

// outLine is a fresh line an op stores to.
func (h *opHarness) outLine() int64 {
	a := h.lineAddr()
	h.outLines = append(h.outLines, a)
	return a
}

// outReg is a fresh register an op writes L lanes of.
func (h *opHarness) outReg() int64 {
	r := h.reg()
	h.outRegs = append(h.outRegs, r)
	return r
}

// tab adds an index table of valid lanes salted with every kind of entry
// finalize resolves to the sentinel: negative, >= L, and 32 itself.
func (h *opHarness) tab() int64 {
	tb := make([]int32, h.L)
	for i := range tb {
		switch h.rng.Intn(6) {
		case 0:
			tb[i] = int32(h.L + h.rng.Intn(40))
		case 1:
			tb[i] = -1 - int32(h.rng.Intn(3))
		case 2:
			tb[i] = sentinel
		default:
			tb[i] = int32(h.rng.Intn(h.L))
		}
	}
	h.p.idxTabs = append(h.p.idxTabs, tb)
	return int64(len(h.p.idxTabs) - 1)
}

// push appends an op, a fused op's operands in aux.
func (h *opHarness) push(op mop, aux ...int64) {
	words := make([]int32, len(aux))
	for i, x := range aux {
		words[i] = int32(x)
	}
	h.e.put(op, words)
}

// fill draws lanes: all at or next to +-32768 when pinned is set, so every
// add and sub saturates one way or the other, else one in four.
func (h *opHarness) fill(xs []int16, pinned bool) {
	ext := [...]int16{32767, -32768, 32766, -32767}
	for i := range xs {
		if pinned || h.rng.Intn(4) == 0 {
			xs[i] = ext[h.rng.Intn(len(ext))]
		} else {
			xs[i] = int16(h.rng.Uint32())
		}
	}
}

// newTestExec is an Exec over regs and mem on the executor named.
func (p *Program) newTestExec(regs, mem []int16, native bool) *Exec {
	return &Exec{p: p, regs: regs, m: mem, native: native}
}

// diff finalizes the program, runs its one stream on identical random
// state through both executors and compares the whole register file and
// every arena byte, then checks the canaries of each run directly: the 64
// bytes either side of every written line and lanes >= L of every register
// written under the lane mask must hold what they held before.
func (h *opHarness) diff(t *testing.T, pinned bool) {
	t.Helper()
	p := h.p
	p.nregs = int32(h.nreg * regStride)
	p.segs[SegSteady] = h.e.out
	if err := p.finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	regs0 := make([]int16, p.nregs)
	size := (64+(h.nlin-1)*192)/2 + h.L
	mem0 := make([]int16, size+32) // the arena and the canary behind it
	h.fill(regs0, pinned)
	h.fill(mem0, pinned)
	if int64(size)*2 < p.extent {
		t.Fatalf("harness arena of %d bytes below the program's extent %d", 2*size, p.extent)
	}

	run := func(native bool) (regs, mem []int16) {
		regs, mem = slices.Clone(regs0), slices.Clone(mem0)
		p.run(p.newTestExec(regs, mem[:size:size], native), p.code[SegSteady])
		return regs, mem
	}
	wantR, wantM := run(false)
	gotR, gotM := run(true)
	for i := range wantR {
		if gotR[i] != wantR[i] {
			t.Fatalf("register %d lane %d: native %d, Go %d", i/regStride, i%regStride, gotR[i], wantR[i])
		}
	}
	for i := range wantM {
		if gotM[i] != wantM[i] {
			t.Fatalf("arena byte %d: native %d, Go %d", 2*i, gotM[i], wantM[i])
		}
	}
	written := make(map[int]bool)
	for _, a := range h.outLines {
		for i := 0; i < h.L; i++ {
			written[int(a/2)+i] = true
		}
	}
	for name, out := range map[string][2][]int16{"native": {gotR, gotM}, "Go": {wantR, wantM}} {
		regs, mem := out[0], out[1]
		if !slices.Equal(mem[size:], mem0[size:]) {
			t.Fatalf("%s: canary behind the arena's end overwritten", name)
		}
		for _, a := range h.outLines {
			lo, hi := int(a/2), int(a/2)+h.L
			for i := max(lo-32, 0); i < min(hi+32, len(mem)); i++ {
				if !written[i] && mem[i] != mem0[i] {
					t.Fatalf("%s: canary at byte %d beside the output line at %d overwritten", name, 2*i, a)
				}
			}
		}
		for _, r := range h.outRegs {
			for i := h.L; i < regStride; i++ {
				if regs[int(r)+i] != regs0[int(r)+i] {
					t.Fatalf("%s: register %d lane %d (>= L = %d) overwritten", name, r/regStride, i, h.L)
				}
			}
		}
	}
}

const diffTrials = 40

// TestNativeLaneOpsMatchGo: every singleton kind and the lean extrinsic
// group, in random order over shared registers and lines, so each op reads
// what earlier ones wrote.
func TestNativeLaneOpsMatchGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < diffTrials; trial++ {
			h := newOpHarness(w, rng)
			srcs := []int64{h.reg(), h.reg(), h.reg()}
			src := func() int64 { return srcs[rng.Intn(len(srcs))] }
			lines := []int64{h.lineAddr(), h.lineAddr(), h.lineAddr()}
			line := func() int64 { return lines[rng.Intn(len(lines))] }
			for _, pat := range [][]int16{{}, {7, -7}, make([]int16, h.L), make([]int16, regStride+5)} {
				h.fill(pat, false)
				h.p.lanePats = append(h.p.lanePats, pat)
			}
			shifts := []int64{0, 1, 15, 16, 40}
			for _, k := range rng.Perm(int(firstFused) + 1) {
				kind := uint8(k)
				dst, masked := h.reg(), true
				switch kind {
				case mClear, mBcastImm:
					h.push(mop{kind: kind, d: int32(dst), imm: int64(rng.Intn(1<<17)) - 1<<16})
					masked = kind == mBcastImm
				case mAddS, mSubS, mAnd, mOr, mXor:
					h.push(mop{kind: kind, d: int32(dst), a: int32(src()), b: int32(src())})
				case mSra:
					h.push(mop{kind: kind, d: int32(dst), a: int32(src()), imm: shifts[rng.Intn(len(shifts))]})
				case mSetImm:
					h.push(mop{kind: kind, d: int32(dst), tab: int32(rng.Intn(len(h.p.lanePats)))})
					masked = false
				case mExt128:
					h.push(mop{kind: kind, d: int32(dst), a: int32(src()), imm: int64(rng.Intn(4))})
					masked = false
				case mExt256:
					h.push(mop{kind: kind, d: int32(dst), a: int32(src()), imm: int64(rng.Intn(2))})
					masked = false
				case mLoad:
					h.push(mop{kind: kind, d: int32(dst), addr: line(), imm: int64(2 * rng.Intn(h.L+1))})
					masked = false
				case mStore:
					h.push(mop{kind: kind, a: int32(src()), addr: h.outLine(), imm: int64(2 * rng.Intn(h.L+1))})
				case mExtrW:
					h.push(mop{kind: kind, a: int32(src()), addr: h.outLine() + int64(2*rng.Intn(h.L)), imm: int64(rng.Intn(regStride))})
				case mExtVec: // lean: nothing reads its five registers
					h.push(mop{kind: mExtVec, imm: shifts[rng.Intn(len(shifts))]},
						h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), src(), src(), line(), line(), line(), h.outLine())
				default:
					t.Fatalf("op kind %d not exercised", kind)
				}
				if masked {
					h.outRegs = append(h.outRegs, dst)
				}
				// What an op wrote, later ops read.
				srcs = append(srcs, dst)
			}
			h.diff(t, trial%4 == 1)
		}
	}
}

// recordWords is the length of the record at the head of code: the
// decoder's view of what lower encodes and both executors step over.
func recordWords(code []uint32) int {
	n := int(code[0] >> 8)
	switch code[0] & 0xff {
	case nStop, nBase:
		return 1
	case nClear, nBcastImm:
		return 2
	case nSra, nSetImm, nExtrW:
		return 3
	case nAddS, nSubS, nAnd, nOr, nXor, nLoad, nLoadReg, nStore:
		return 4
	case nExtVec:
		return 7
	case nMergeReg, nMergeMem:
		return 2 + 2*n
	case nAlphaSweep:
		return 11
	case nBetaSweep:
		return 9
	case nBetaExtSweep:
		return 33 + int(code[32])*int(code[10])
	case nLoop:
		if code[2] != 0 {
			return 3
		}
		return 5 + int(code[3]) + int(code[4+code[3]])
	case nEnd:
		return 1
	}
	panic(fmt.Sprintf("unknown record kind %d", code[0]&0xff))
}

// TestNativeQuadScatterMatchesGo: permute-and-OR merges of 2 to 12
// registers into a line.
func TestNativeQuadScatterMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 2))
		for ns := 2; ns <= 12; ns++ {
			for trial := 0; trial < diffTrials/4; trial++ {
				h := newOpHarness(w, rng)
				aux := []int64{h.reg(), h.reg(), h.outLine()}
				for s := 0; s < ns; s++ {
					aux = append(aux, h.reg(), h.tab())
				}
				h.push(mop{kind: mQuadScatter, n: int32(ns)}, aux...)
				h.diff(t, trial%4 == 1)
			}
		}
	}
}

// TestNativeQuadGatherMatchesGo: the same merge of 1 to 12 lines, a gather
// that reads the line it stores to included.
func TestNativeQuadGatherMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 3))
		for ns := 1; ns <= 12; ns++ {
			for trial := 0; trial < diffTrials/4; trial++ {
				h := newOpHarness(w, rng)
				dst := h.outLine()
				aux := []int64{h.reg(), h.reg(), h.reg(), dst}
				for s := 0; s < ns; s++ {
					src := h.lineAddr()
					if trial%5 == 4 && s == ns-1 {
						// A gather may read the line it stores to; every
						// load still precedes the store.
						src = dst
					}
					aux = append(aux, src, h.tab())
				}
				h.push(mop{kind: mQuadGather, n: int32(ns)}, aux...)
				h.diff(t, trial%4 == 1)
			}
		}
	}
}

// lines allocates n consecutive lines and returns the first address and
// the stride of a walk over them, forward or backward at random. When out
// is set they are lines ops store to.
func (h *opHarness) lines(n int, out bool) (base, stride int64) {
	first := h.lineAddr()
	for range n - 1 {
		h.lineAddr()
	}
	if out {
		for i := range n {
			h.outLines = append(h.outLines, first+int64(192*i))
		}
	}
	if h.rng.Intn(2) == 0 {
		return first, 192
	}
	return first + int64(192*(n-1)), -192
}

// sweep appends n lean trellis steps of one form sharing the carried
// register and tables: the alpha form, the beta tail form (nx = 0) or the
// beta form extracting nx lanes, any of 0..31. Each step's lines move by a
// fixed stride, forward or backward, and the steps are a Loop, which
// lowers to a sweep; an alpha step j stores to the quad line of step 2j+2,
// so steps also depend on each other through the arena. A beta step
// extracts to a table of np rows of words, row s mod np, moved by a line
// every np steps: a trip of its Loop is np steps, and the n mod np steps
// past the last trip follow it one by one.
func (h *opHarness) sweep(kind uint8, n, nx, np int, carried int64) {
	tabs := []int64{h.tab(), h.tab(), h.tab(), h.tab(), h.tab()}
	htabs := []int64{h.tab(), h.tab(), h.tab()}
	var dead []int64
	for i := 0; i < 15; i++ {
		dead = append(dead, h.reg())
	}
	var lanes []int64
	for x := 0; x < nx; x++ {
		lanes = append(lanes, int64(h.rng.Intn(regStride)))
	}
	q, dq := h.lines(2*n+2, kind == mAlphaStepP)
	al, dal := h.lines(n, false)
	ext, dext := h.lines((n+np-1)/np, true)
	rows := make([]int64, np*nx)
	for i := range rows {
		rows[i] = int64(2 * h.rng.Intn(h.L))
	}
	step := func(j int) {
		qj := q + int64(j)*dq
		if kind == mAlphaStepP {
			aux := append(slices.Clone(dead[:8]), carried, qj, q+int64(2*j+2)*dq)
			h.push(mop{kind: kind}, append(aux, tabs...)...)
			return
		}
		aux := append(slices.Clone(dead[:7]), carried, dead[7], qj)
		aux = append(aux, tabs...)
		op := mop{kind: kind}
		if nx > 0 {
			op.imm, op.n = 1, int32(nx)
			aux = append(append(append(aux, dead[8:]...), al+int64(j)*dal), htabs...)
			for x, l := range lanes {
				aux = append(aux, ext+int64(j/np)*dext+rows[(j%np)*nx+x], l)
			}
		}
		h.push(op, aux...)
	}
	per := 1
	if nx > 0 {
		per = np
	}
	h.e.Loop(n/per, func(t int) {
		for s := range per {
			step(t*per + s)
		}
	})
	for j := n / per * per; j < n; j++ {
		step(j)
	}
}

// sweepForm is one shape of trellis sweep: the alpha form, the beta tail
// form (nx = 0) or the beta form extracting nx lanes.
type sweepForm struct {
	kind uint8
	nx   func(rng *rand.Rand, L int) int
}

// testNativeSweeps runs sweeps of 1, 2, 3 and 1027 steps (the last runs as
// three calls, the middle one starting and ending inside the sweep) at
// every width, of each form, between ops that read what the sweep wrote
// back. A beta form that extracts has np rows of words: its sweep holds
// them as its table.
func testNativeSweeps(t *testing.T, seed int64, forms ...sweepForm) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + seed))
		for _, n := range []int{1, 2, 3, 1027} {
			trials := diffTrials / 4
			if n > 3 {
				trials = 2
			}
			for trial := 0; trial < trials; trial++ {
				for _, form := range forms {
					nx := form.nx(rng, w.Lanes16())
					np := 1 + trial%4
					h := newOpHarness(w, rng)
					carried := h.outReg()
					h.sweep(form.kind, n, nx, np, carried)
					// A second sweep over the same carried register with
					// other tables, then a store of it: the first must have
					// written it back, and hoisted tables must not go stale.
					h.sweep(form.kind, 2, nx, 1, carried)
					h.push(mop{kind: mStore, a: int32(carried), addr: h.outLine(), imm: int64(2 * h.L)})
					h.diff(t, trial%4 == 1)
					code := h.p.code[SegSteady]
					if n > yieldEvery {
						if stops := countRecords(code, nStop); stops < 3 {
							t.Errorf("%v: %d steps lowered with %d stop records, want the sweep cut at least twice", w, n, stops)
						}
					}
					if n > 3 && nx > 0 && np > 1 && !hasPeriodicSweep(code) {
						t.Errorf("%v: %d beta steps extracting over %d rows lowered with no sweep of that period", w, n, np)
					}
				}
			}
		}
	}
}

// hasPeriodicSweep reports whether code holds a beta sweep whose
// extraction table has more than one row.
func hasPeriodicSweep(code []uint32) bool {
	for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
		if code[pc]&0xff == nBetaExtSweep && code[pc+32] > 1 {
			return true
		}
	}
	return false
}

func TestNativeAlphaStepMatchesGo(t *testing.T) {
	testNativeSweeps(t, 1, sweepForm{mAlphaStepP, func(*rand.Rand, int) int { return 0 }})
}

// TestNativeBetaStepMatchesGo: the tail form, a handful of extracted lanes
// as a decode has them, and as many as the register has lanes.
func TestNativeBetaStepMatchesGo(t *testing.T) {
	testNativeSweeps(t, 4,
		sweepForm{mBetaStepP, func(*rand.Rand, int) int { return 0 }},
		sweepForm{mBetaStepP, func(rng *rand.Rand, _ int) int { return 1 + rng.Intn(5) }},
		sweepForm{mBetaStepP, func(_ *rand.Rand, L int) int { return L }})
}

// loopBody appends trips trips of a body of random ops, lean as a decode's:
// every singleton kind that addresses the region, lane ops over a pool of
// registers, a quad scatter and gather, an extrinsic group and an alpha
// step, each with registers and tables fixed and each address moving by a
// stride of its own over lines of its own: the addresses of one op by one
// stride, one, two or three lines forward or back a trip, unless mixed is
// set. A lane op's destination joins the pool only after every op reads the
// pool, so no op reads what a later one of its trip writes.
func (h *opHarness) loopBody(trips int, mixed bool) {
	rng, L := h.rng, h.L
	pool := []int64{h.reg(), h.reg(), h.reg()}
	src := func() int64 { return pool[rng.Intn(len(pool))] }
	var lines int
	seq := func(out bool) func(t int) int64 {
		if mixed || lines == 0 {
			lines = 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				lines = -lines
			}
		}
		n := max(lines, -lines)
		base, d := h.lines(n*trips, out)
		if d < 0 {
			base -= int64(192 * (n*trips - 1)) // the first line
		}
		if lines < 0 {
			base += int64(192 * n * (trips - 1))
		}
		stride := int64(192 * lines)
		return func(t int) int64 { return base + int64(t)*stride }
	}
	var body []func(t int)
	for _, k := range rng.Perm(10) {
		lines = 0 // a new op: a new stride
		switch k {
		case 0:
			d, at := h.reg(), seq(false)
			body = append(body, func(t int) { h.push(mop{kind: mLoad, d: int32(d), addr: at(t), imm: int64(2 * L)}) })
			pool = append(pool, d)
		case 1:
			a, at := src(), seq(true)
			body = append(body, func(t int) { h.push(mop{kind: mStore, a: int32(a), addr: at(t), imm: int64(2 * L)}) })
		case 2:
			a, at, lane := src(), seq(true), int64(rng.Intn(regStride))
			body = append(body, func(t int) { h.push(mop{kind: mExtrW, a: int32(a), addr: at(t), imm: lane}) })
		case 3:
			d, a := h.outReg(), src()
			body = append(body, func(int) { h.push(mop{kind: mSra, d: int32(d), a: int32(a), imm: 3}) })
		case 4:
			d, a, b := h.outReg(), src(), src()
			kind := []uint8{mAddS, mSubS, mAnd, mXor}[rng.Intn(4)]
			body = append(body, func(int) { h.push(mop{kind: kind, d: int32(d), a: int32(a), b: int32(b)}) })
		case 5: // no address, after records that have one
			d, a := h.reg(), src()
			body = append(body, func(int) { h.push(mop{kind: mExt128, d: int32(d), a: int32(a), imm: 1}) })
		case 6:
			acc, tmp, at := h.reg(), h.reg(), seq(true)
			srcs := []int64{src(), h.tab(), src(), h.tab(), src(), h.tab()}
			body = append(body, func(t int) { h.push(mop{kind: mQuadScatter, n: 3}, append([]int64{acc, tmp, at(t)}, srcs...)...) })
		case 7:
			r, acc, tmp, dst := h.reg(), h.reg(), h.reg(), seq(true)
			in, tabs := []func(int) int64{seq(false), seq(false)}, []int64{h.tab(), h.tab()}
			body = append(body, func(t int) {
				h.push(mop{kind: mQuadGather, n: 2}, r, acc, tmp, dst(t), in[0](t), tabs[0], in[1](t), tabs[1])
			})
		case 8:
			regs := []int64{h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), src(), src()}
			in, out := []func(int) int64{seq(false), seq(false), seq(false)}, seq(true)
			body = append(body, func(t int) {
				h.push(mop{kind: mExtVec, imm: 1}, append(slices.Clone(regs), in[0](t), in[1](t), in[2](t), out(t))...)
			})
		case 9:
			var dead []int64
			for range 8 {
				dead = append(dead, h.reg())
			}
			carried, q, out := h.outReg(), seq(false), seq(true)
			tabs := []int64{h.tab(), h.tab(), h.tab(), h.tab(), h.tab()}
			body = append(body, func(t int) {
				h.push(mop{kind: mAlphaStepP}, append(append(slices.Clone(dead), carried, q(t), out(t)), tabs...)...)
			})
		}
	}
	h.e.Loop(trips, func(t int) {
		for _, op := range body {
			op(t)
		}
	})
}

// countRecords counts the records of kind in code.
func countRecords(code []uint32, kind uint32) (n int) {
	for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
		if code[pc]&0xff == kind {
			n++
		}
	}
	return n
}

// TestNativeLoopsMatchGo: loops of a body of every kind of op a loop can
// hold, over 2 to 12 trips and over enough that the loop is cut at two
// yields at least, its later pieces starting at a trip of their own; and
// bodies whose ops move their addresses by more than one stride, which are
// lowered trip by trip.
func TestNativeLoopsMatchGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 5))
		for trial := 0; trial < diffTrials/2; trial++ {
			trips := 2 + trial%11
			if trial%10 == 9 {
				trips = 300
			}
			mixed := trial%7 == 6
			h := newOpHarness(w, rng)
			h.loopBody(trips, mixed)
			h.diff(t, trial%4 == 1)
			code := h.p.code[SegSteady]
			n := countRecords(code, nLoop)
			switch {
			case mixed && n != 0:
				t.Errorf("%v: a body of mixed strides lowered as %d loop records", w, n)
			case !mixed && (n == 0 || trips > 100 && n < 3):
				t.Errorf("%v: %d trips lowered as %d loop records", w, trips, n)
			}
		}
	}
}

// TestLoweredStreamIsWellFormed: the stream of a compiled program decodes
// record by record to exactly its end, its last record is a stop, and no
// stop record carries a count.
func TestLoweredStreamIsWellFormed(t *testing.T) {
	for _, w := range simd.Widths {
		p, _ := emitSynth(t, w)
		for seg, code := range p.code {
			pc, last := 0, 0
			for pc < len(code) {
				if code[pc]&0xff == nStop && code[pc] != nStop {
					t.Fatalf("%v seg %d: stop record %#x at word %d carries a count", w, seg, code[pc], pc)
				}
				last = pc
				pc += recordWords(code[pc:])
			}
			if len(code) == 0 || pc != len(code) || code[last] != nStop {
				t.Errorf("%v seg %d: stream of %d words decodes to %d, last record at %d", w, seg, len(code), pc, last)
			}
		}
	}
}

// TestRunRefusesShortArena: a compiled program is finalized without a
// region size, so NewExec checks the region it is handed against the extent
// the program touches and against the alignment its lines were laid out at
// — before any op can run, under either kernel — and Run refuses an Exec
// made for another program.
func TestRunRefusesShortArena(t *testing.T) {
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return
	}
	eachKernel(t, func(t *testing.T) {
		for _, w := range simd.Widths {
			p, _ := emitSynth(t, w)
			if p.extent <= 0 || p.extent > synthBytes {
				t.Fatalf("%v: extent %d outside the kernel's arena", w, p.extent)
			}
			if p.Extent() != p.extent {
				t.Fatalf("%v: Extent() = %d, extent %d", w, p.Extent(), p.extent)
			}
			p.Run(p.NewExec(simd.NewMemory(int(p.extent)), 0), SegFirst) // exactly large enough
			// Further into a larger arena the same: 128 bytes of slack in
			// front, none behind.
			p.Run(p.NewExec(simd.NewMemory(int(p.extent)+128), 128), SegFirst)
			short := simd.NewMemory(int(p.extent) - 2)
			before := slices.Clone(short.Bytes(0, short.Size()))
			if !panics(func() { p.NewExec(short, 0) }) {
				t.Errorf("%v: NewExec on a region 2 bytes short of the extent did not panic", w)
			}
			if !panics(func() { p.NewExec(simd.NewMemory(int(p.extent)+128), 64+62) }) {
				t.Errorf("%v: NewExec at a region start off the 64-byte grid did not panic", w)
			}
			if !panics(func() { p.NewExec(simd.NewMemory(int(p.extent)+128), 192) }) {
				t.Errorf("%v: NewExec on a region that runs past the arena's end did not panic", w)
			}
			if !slices.Equal(before, short.Bytes(0, short.Size())) {
				t.Errorf("%v: the refused NewExec wrote to the arena", w)
			}
			q, _ := emitSynth(t, w)
			if !panics(func() { p.Run(q.NewExec(simd.NewMemory(synthBytes), 0), SegFirst) }) {
				t.Errorf("%v: Run accepted another program's Exec", w)
			}
		}
	})
}

// TestKernelSelection: the selection is what the host reports and the
// seam can only turn the native kernel off, never on where it is
// missing.
func TestKernelSelection(t *testing.T) {
	if useNative.Load() != nativeAvailable {
		t.Fatalf("useNative = %v at start, host reports %v", useNative.Load(), nativeAvailable)
	}
	was := UseNativeKernel(false)
	defer UseNativeKernel(was)
	if Kernel() != "go" {
		t.Errorf("Kernel() = %q with the native kernel off", Kernel())
	}
	UseNativeKernel(true)
	want := "go"
	if nativeAvailable {
		want = "avx512bw"
	}
	if Kernel() != want {
		t.Errorf("Kernel() = %q after UseNativeKernel(true), host supports %q", Kernel(), want)
	}
	t.Logf("host kernel: %s", want)
}

// benchExecutors times a hot Run of p's steady segment, over a region of
// random lanes, on each executor the host has.
func benchExecutors(b *testing.B, p *Program, h *opHarness) {
	for _, native := range []bool{false, true} {
		name := "go"
		if native {
			name = "avx512bw"
		}
		b.Run(name, func(b *testing.B) {
			if native {
				skipWithoutNative(b)
			}
			x := p.newTestExec(make([]int16, p.nregs), make([]int16, p.extent/2), native)
			h.fill(x.m, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(x, SegSteady)
			}
		})
	}
}

// BenchmarkNativeSweeps times one 1027-step sweep of each form at W512:
// ns/op divided by 1027 is the cost of a trellis step.
func BenchmarkNativeSweeps(b *testing.B) {
	for _, form := range []struct {
		name string
		kind uint8
		nx   int
	}{{"alpha", mAlphaStepP, 0}, {"beta", mBetaStepP, 0}, {"beta+ext", mBetaStepP, 4}} {
		b.Run(form.name, func(b *testing.B) {
			h := newOpHarness(simd.W512, rand.New(rand.NewSource(1)))
			h.sweep(form.kind, 1027, form.nx, 1, h.outReg())
			p := h.p
			p.nregs = int32(h.nreg * regStride)
			p.segs[SegSteady] = h.e.out
			if err := p.finalize(); err != nil {
				b.Fatal(err)
			}
			benchExecutors(b, p, h)
		})
	}
}

// BenchmarkNativeGamma times 64 gamma groups at W512 as the packed decoder
// emits them: three loads, five lane ops, eight four-source scatters,
// each group's lines a fixed stride past the last one's: one Loop, as the
// packed decoder states them ("rolled"), and as straight-line records
// ("straight"), what the loop saves or costs.
func BenchmarkNativeGamma(b *testing.B) {
	for _, rolled := range []bool{true, false} {
		name := "straight"
		if rolled {
			name = "rolled"
		}
		b.Run(name, func(b *testing.B) {
			h := newOpHarness(simd.W512, rand.New(rand.NewSource(1)))
			s, p, la, t, g0, g1, n0, n1, zero := h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), h.reg()
			acc, tmp := h.reg(), h.reg()
			var tabs [8][4]int64
			for i := range tabs {
				for j := range tabs[i] {
					tabs[i][j] = h.tab()
				}
			}
			const groups = 64
			var in [3]func(g int) int64
			for i := range in {
				base, stride := h.lines(groups, false)
				in[i] = func(g int) int64 { return base + int64(g)*stride }
			}
			quad, qs := h.lines(8*groups, true)
			group := func(at int) {
				for i, d := range []int64{s, p, la} {
					h.push(mop{kind: mLoad, d: int32(d), addr: in[i](at), imm: 64})
				}
				h.push(mop{kind: mAddS, d: int32(t), a: int32(s), b: int32(la)})
				h.push(mop{kind: mAddS, d: int32(g0), a: int32(t), b: int32(p)})
				h.push(mop{kind: mSubS, d: int32(g1), a: int32(t), b: int32(p)})
				h.push(mop{kind: mSubS, d: int32(n0), a: int32(zero), b: int32(g0)})
				h.push(mop{kind: mSubS, d: int32(n1), a: int32(zero), b: int32(g1)})
				for si := 0; si < 8; si++ {
					h.push(mop{kind: mQuadScatter, n: 4}, acc, tmp, quad+int64(8*at+si)*qs,
						g0, tabs[si][0], g1, tabs[si][1], n0, tabs[si][2], n1, tabs[si][3])
				}
			}
			if rolled {
				h.e.Loop(groups, group)
			} else {
				for at := range groups {
					group(at)
				}
			}
			pr := h.p
			pr.nregs = int32(h.nreg * regStride)
			pr.segs[SegSteady] = h.e.out
			if err := pr.finalize(); err != nil {
				b.Fatal(err)
			}
			benchExecutors(b, pr, h)
		})
	}
}
