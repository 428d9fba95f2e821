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

// opHarness builds small programs record by record for the differential
// tests of the two executors, through an Emitter's SegSteady, whose Loop
// writes its loops. Arena lines sit 192 bytes apart so every line has at
// least 64 canary bytes either side, and the arena ends exactly where the
// last line does, with 64 more canary bytes behind it that are no part of
// the arena: a record that touched a byte past an L-lane line trips one.
type opHarness struct {
	rng  *rand.Rand
	L    int
	e    *Emitter
	p    *Program // what diff emitted
	nreg int
	nlin int
	// outLines and outRegs are the lines and registers the records write
	// under the lane mask: what the canary checks look beside.
	outLines []int64
	outRegs  []Reg
}

func newOpHarness(w simd.Width, rng *rand.Rand) *opHarness {
	e := newEmitter(w)
	e.Steady()
	return &opHarness{rng: rng, L: e.lanes, e: e}
}

func (h *opHarness) reg() Reg { h.nreg++; return Reg(h.nreg - 1) }

func (h *opHarness) lineAddr() int64 { h.nlin++; return 64 + int64(h.nlin-1)*192 }

// outLine is a fresh line a record stores to.
func (h *opHarness) outLine() int64 {
	a := h.lineAddr()
	h.outLines = append(h.outLines, a)
	return a
}

// outReg is a fresh register a record writes L lanes of.
func (h *opHarness) outReg() Reg {
	r := h.reg()
	h.outRegs = append(h.outRegs, r)
	return r
}

// tab is an index table of valid lanes salted with every kind of entry
// the Emitter resolves to the sentinel: negative, >= L, and 32 itself.
func (h *opHarness) tab() []int32 {
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
	return tb
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

// diff emits the program, runs its one stream on identical random state
// through both executors and compares the whole register file and every
// arena byte, then checks the canaries of each run directly: the 64 bytes
// either side of every written line and lanes >= L of every register
// written under the lane mask must hold what they held before.
func (h *opHarness) diff(t *testing.T, pinned bool) {
	t.Helper()
	p, err := h.e.finish()
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	h.p = p
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
			for i := int(r)*regStride + h.L; i < int(r+1)*regStride; i++ {
				if regs[i] != regs0[i] {
					t.Fatalf("%s: register %d lane %d (>= L = %d) overwritten", name, r, i%regStride, h.L)
				}
			}
		}
	}
}

const diffTrials = 40

// TestNativeLaneOpsMatchGo: every singleton method, partial loads and
// stores among them, and the extrinsic group, in random order over shared
// registers and lines, so each record reads what earlier ones wrote.
func TestNativeLaneOpsMatchGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < diffTrials; trial++ {
			h := newOpHarness(w, rng)
			e := h.e
			srcs := []Reg{h.reg(), h.reg(), h.reg()}
			src := func() Reg { return srcs[rng.Intn(len(srcs))] }
			lines := []int64{h.lineAddr(), h.lineAddr(), h.lineAddr()}
			line := func() int64 { return lines[rng.Intn(len(lines))] }
			pats := [][]int16{{}, {7, -7}, make([]int16, h.L), make([]int16, regStride+5)}
			for _, pat := range pats {
				h.fill(pat, false)
			}
			shift := func() uint { return []uint{0, 1, 15, 16, 40}[rng.Intn(5)] }
			// Each writes d, or nothing, and reports whether it writes d
			// under the lane mask.
			ops := []func(d Reg) bool{
				func(d Reg) bool { e.Clear(d); return false },
				func(d Reg) bool { e.BcastImm(d, int16(rng.Uint32())); return true },
				func(d Reg) bool { e.And(d, src(), src()); return true },
				func(d Reg) bool { e.Or(d, src(), src()); return true },
				func(d Reg) bool { e.Xor(d, src(), src()); return true },
				func(d Reg) bool { e.Sra(d, src(), shift()); return true },
				func(d Reg) bool { e.SetImm(d, pats[rng.Intn(len(pats))]); return false },
				func(d Reg) bool { e.Ext(d, src(), simd.W128, rng.Intn(4)); return false },
				func(d Reg) bool { e.Ext(d, src(), simd.W256, rng.Intn(2)); return false },
				func(d Reg) bool { e.load(d, line(), rng.Intn(h.L+1)); return false },
				func(Reg) bool { e.store(h.outLine(), src(), rng.Intn(h.L+1)); return false },
				func(Reg) bool { e.ExtrW(h.outLine()+int64(2*rng.Intn(h.L)), src(), rng.Intn(regStride)); return false },
				func(Reg) bool {
					// Nothing reads its five scratch registers.
					r := [7]Reg{h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), src(), src()}
					e.ExtVec(&r, shift(), [3]int64{line(), line(), line()}, h.outLine())
					return false
				},
			}
			for _, i := range rng.Perm(len(ops)) {
				dst := h.reg()
				if ops[i](dst) {
					h.outRegs = append(h.outRegs, dst)
				}
				// What a record wrote, later ones read.
				srcs = append(srcs, dst)
			}
			h.diff(t, trial%4 == 1)
		}
	}
}

// recordWords is the length of the record at the head of code: the
// decoder's view of what the Emitter writes and both executors step over.
func recordWords(code []uint32) int {
	n := int(code[0] >> 8)
	switch code[0] & 0xff {
	case nStop, nBase:
		return 1
	case nClear, nBcastImm:
		return 2
	case nSra, nSetImm, nExtrW:
		return 3
	case nAnd, nOr, nXor, nLoad, nLoadReg, nStore:
		return 4
	case nExtVec:
		return 7
	case nMergeMem:
		return 2 + 2*n
	case nGammaSweep:
		return gammaWords
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

// gamma writes groups gamma groups over lines of their own, each moving
// forward or backward, the quad lines of a group forward or backward too,
// with tables salted with sentinels. No group reads what an earlier one
// stored.
func (h *opHarness) gamma(groups int) {
	var r [10]Reg
	for i := range r {
		r[i] = h.reg()
	}
	var tabs [GammaLines][4][]int32
	for j := range tabs {
		for v := range tabs[j] {
			tabs[j][v] = h.tab()
		}
	}
	var in, din [3]int64
	for i := range in {
		in[i], din[i] = h.lines(groups, false)
	}
	quad, dl := h.lines(GammaLines*groups, true)
	dq := GammaLines * dl
	if h.rng.Intn(2) == 0 {
		quad, dl = quad+(GammaLines-1)*dl, -dl
	}
	h.e.GammaSweep(&r, groups, in, din, quad, dq, dl, &tabs)
}

// TestNativeGammaSweepMatchesGo: gamma sweeps of 1 to 3 groups and of
// 600, which the Emitter cuts at two yields at least, at every width. A
// pinned trial fills every line with lanes at or next to ±32768, so sums,
// differences and the negations of −32768 saturate.
func TestNativeGammaSweepMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 2))
		for _, groups := range []int{1, 2, 3, 600} {
			for trial := 0; trial < diffTrials/4; trial++ {
				h := newOpHarness(w, rng)
				h.gamma(groups)
				h.diff(t, trial%2 == 1)
				if stops := countRecords(h.p.code[SegSteady], nStop); groups*gammaUnits > 2*yieldEvery && stops < 3 {
					t.Errorf("%v: %d groups written with %d stop records, want the sweep cut at least twice", w, groups, stops)
				}
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
				r, acc, tmp, dst := h.reg(), h.reg(), h.reg(), h.outLine()
				var srcs []int64
				var tabs [][]int32
				for s := 0; s < ns; s++ {
					src := h.lineAddr()
					if trial%5 == 4 && s == ns-1 {
						// A gather may read the line it stores to; every
						// load still precedes the store.
						src = dst
					}
					srcs, tabs = append(srcs, src), append(tabs, h.tab())
				}
				h.e.QuadGather(r, acc, tmp, dst, srcs, tabs)
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

// sweep writes n trellis steps of one form sharing the carried register
// and tables: the alpha form (alpha set), the beta tail form (nx = 0) or
// the beta form extracting nx lanes, any of 0..31. Each step's lines move
// by a fixed stride, forward or backward; an alpha step j stores to the
// quad line of step 2j+2, so steps also depend on each other through the
// arena. A beta step extracts to a table of np rows of words, row s mod
// np, moved by a line every np steps: the sweep is the steps of whole
// periods, and the n mod np steps past them follow it as sweeps of one
// step.
func (h *opHarness) sweep(alpha bool, n, nx, np int, carried Reg) {
	tabs := [5][]int32{h.tab(), h.tab(), h.tab(), h.tab(), h.tab()}
	x := &BetaExt{Hmax: [3][]int32{h.tab(), h.tab(), h.tab()}}
	var r [9]Reg
	for i := range r {
		r[i] = h.reg()
	}
	for i := range x.Regs {
		x.Regs[i] = h.reg()
	}
	for range nx {
		x.Lanes = append(x.Lanes, h.rng.Intn(regStride))
	}
	q, dq := h.lines(2*n+2, alpha)
	al, dal := h.lines(n, false)
	ext, dext := h.lines((n+np-1)/np, true)
	rows := make([]int64, np*nx)
	for i := range rows {
		rows[i] = ext + int64(2*h.rng.Intn(h.L))
	}
	switch {
	case alpha:
		r[8] = carried
		h.e.AlphaSweep(&r, n, q, dq, q+2*dq, 2*dq, &tabs)
		return
	case nx == 0:
		r[7] = carried
		h.e.BetaSweep(&r, n, q, dq, &tabs, nil)
		return
	}
	r[7] = carried
	x.Alpha, x.DAlpha, x.Out, x.DOut = al, dal, rows, dext
	whole := n / np * np
	if whole > 0 {
		h.e.BetaSweep(&r, whole, q, dq, &tabs, x)
	}
	for j := whole; j < n; j++ {
		one := *x
		one.Alpha, one.Out = al+int64(j)*dal, nil
		for _, row := range rows[j%np*nx:][:nx] {
			one.Out = append(one.Out, row+int64(j/np)*dext)
		}
		h.e.BetaSweep(&r, 1, q+int64(j)*dq, dq, &tabs, &one)
	}
}

// sweepForm is one shape of trellis sweep: the alpha form, the beta tail
// form (nx = 0) or the beta form extracting nx lanes.
type sweepForm struct {
	alpha bool
	nx    func(rng *rand.Rand, L int) int
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
					h.sweep(form.alpha, n, nx, np, carried)
					// A second sweep over the same carried register with
					// other tables, then a store of it: the first must have
					// written it back, and hoisted tables must not go stale.
					h.sweep(form.alpha, 2, nx, 1, carried)
					h.e.Store(h.outLine(), carried)
					h.diff(t, trial%4 == 1)
					code := h.p.code[SegSteady]
					if n > yieldEvery {
						if stops := countRecords(code, nStop); stops < 3 {
							t.Errorf("%v: %d steps written with %d stop records, want the sweep cut at least twice", w, n, stops)
						}
					}
					if n > 3 && nx > 0 && np > 1 && !hasPeriodicSweep(code) {
						t.Errorf("%v: %d beta steps extracting over %d rows written with no sweep of that period", w, n, np)
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
	testNativeSweeps(t, 1, sweepForm{true, func(*rand.Rand, int) int { return 0 }})
}

// TestNativeBetaStepMatchesGo: the tail form, a handful of extracted lanes
// as a decode has them, and as many as the register has lanes.
func TestNativeBetaStepMatchesGo(t *testing.T) {
	testNativeSweeps(t, 4,
		sweepForm{false, func(*rand.Rand, int) int { return 0 }},
		sweepForm{false, func(rng *rand.Rand, _ int) int { return 1 + rng.Intn(5) }},
		sweepForm{false, func(_ *rand.Rand, L int) int { return L }})
}

// loopBody writes trips trips of a body of random records, lean as a
// decode's: every singleton that addresses the region, lane ops over a
// pool of registers, a gamma group, a quad gather, an extrinsic group and
// an alpha step, each with registers and tables fixed and each address moving
// by a stride of its own over lines of its own: the addresses of one
// record by one stride, one, two or three lines forward or back a trip,
// unless mixed is set. A lane op's destination joins the pool only after
// every record reads the pool, so no record reads what a later one of its
// trip writes.
func (h *opHarness) loopBody(trips int, mixed bool) {
	rng, e := h.rng, h.e
	pool := []Reg{h.reg(), h.reg(), h.reg()}
	src := func() Reg { return pool[rng.Intn(len(pool))] }
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
		lines = 0 // a new record: a new stride
		switch k {
		case 0:
			d, at := h.reg(), seq(false)
			body = append(body, func(t int) { e.Load(d, at(t)) })
			pool = append(pool, d)
		case 1:
			a, at := src(), seq(true)
			body = append(body, func(t int) { e.Store(at(t), a) })
		case 2:
			a, at, lane := src(), seq(true), rng.Intn(regStride)
			body = append(body, func(t int) { e.ExtrW(at(t), a, lane) })
		case 3:
			d, a := h.outReg(), src()
			body = append(body, func(int) { e.Sra(d, a, 3) })
		case 4:
			d, a, b := h.outReg(), src(), src()
			op := []func(d, a, b Reg){e.And, e.Or, e.Xor}[rng.Intn(3)]
			body = append(body, func(int) { op(d, a, b) })
		case 5: // no address, after records that have one
			d, a := h.reg(), src()
			body = append(body, func(int) { e.Ext(d, a, simd.W128, 1) })
		case 6:
			var r [10]Reg
			for i := range r {
				r[i] = h.reg()
			}
			var tabs [GammaLines][4][]int32
			for j := range tabs {
				for v := range tabs[j] {
					tabs[j][v] = h.tab()
				}
			}
			in, q := []func(int) int64{seq(false), seq(false), seq(false)}, seq(true)
			body = append(body, func(t int) {
				e.GammaSweep(&r, 1, [3]int64{in[0](t), in[1](t), in[2](t)}, [3]int64{}, q(t), 0, 0, &tabs)
			})
		case 7:
			r, acc, tmp, dst := h.reg(), h.reg(), h.reg(), seq(true)
			in, tabs := []func(int) int64{seq(false), seq(false)}, [][]int32{h.tab(), h.tab()}
			body = append(body, func(t int) { e.QuadGather(r, acc, tmp, dst(t), []int64{in[0](t), in[1](t)}, tabs) })
		case 8:
			regs := [7]Reg{h.reg(), h.reg(), h.reg(), h.reg(), h.reg(), src(), src()}
			in, out := []func(int) int64{seq(false), seq(false), seq(false)}, seq(true)
			body = append(body, func(t int) { e.ExtVec(&regs, 1, [3]int64{in[0](t), in[1](t), in[2](t)}, out(t)) })
		case 9:
			var r [9]Reg
			for i := range 8 {
				r[i] = h.reg()
			}
			r[8] = h.outReg()
			q, out := seq(false), seq(true)
			tabs := [5][]int32{h.tab(), h.tab(), h.tab(), h.tab(), h.tab()}
			body = append(body, func(t int) { e.AlphaSweep(&r, 1, q(t), 0, out(t), 0, &tabs) })
		}
	}
	e.Loop(trips, func(t int) {
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
// written trip by trip.
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
				t.Errorf("%v: a body of mixed strides written as %d loop records", w, n)
			case !mixed && (n == 0 || trips > 100 && n < 3):
				t.Errorf("%v: %d trips written as %d loop records", w, trips, n)
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

// TestRunRefusesShortArena: a compiled program is emitted without a
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
		name  string
		alpha bool
		nx    int
	}{{"alpha", true, 0}, {"beta", false, 0}, {"beta+ext", false, 4}} {
		b.Run(form.name, func(b *testing.B) {
			h := newOpHarness(simd.W512, rand.New(rand.NewSource(1)))
			h.sweep(form.alpha, 1027, form.nx, 1, h.outReg())
			p, err := h.e.finish()
			if err != nil {
				b.Fatal(err)
			}
			benchExecutors(b, p, h)
		})
	}
}

// BenchmarkNativeGamma times 64 gamma groups at W512, one K=512
// half-iteration's gamma, as the packed decoder emits them: one gamma
// sweep ("fused"), each group's three lines a fixed stride past the last
// one's and its eight quad lines after the last one's.
func BenchmarkNativeGamma(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		h := newOpHarness(simd.W512, rand.New(rand.NewSource(1)))
		h.gamma(64)
		p, err := h.e.finish()
		if err != nil {
			b.Fatal(err)
		}
		benchExecutors(b, p, h)
	})
}
