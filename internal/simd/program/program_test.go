package program

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"vransim/internal/simd"
)

// ops is what the synthetic kernel is written against: the Emitter's
// methods. An Emitter makes a program of the kernel; engineOps runs it on
// the interpreter, each method as the engine sequence its Emitter comment
// spells out, and is the reference every replay is compared with.
type ops interface {
	Clear(d Reg)
	SetImm(d Reg, pat []int16)
	BcastImm(d Reg, x int16)
	Load(d Reg, at int64)
	Store(at int64, a Reg)
	ExtrW(at int64, a Reg, lane int)
	Ext(d, a Reg, w simd.Width, sel int)
	Sra(d, a Reg, imm uint)
	And(d, a, b Reg)
	Or(d, a, b Reg)
	Xor(d, a, b Reg)
	GammaSweep(r *[10]Reg, groups int, in, din [3]int64, quad, dq, dl int64, t *[GammaLines][4][]int32)
	QuadGather(r, acc, tmp Reg, dst int64, srcs []int64, tabs [][]int32)
	AlphaSweep(r *[9]Reg, steps int, quad, dq, out, dout int64, t *[5][]int32)
	BetaSweep(r *[9]Reg, steps int, quad, dq int64, t *[5][]int32, x *BetaExt)
	ExtVec(r *[7]Reg, imm uint, in [3]int64, out int64)
	Loop(trips int, body func(t int))
}

// engineOps runs the Emitter's methods on a simd.Engine: register n is the
// n-th register the engine made.
type engineOps struct {
	e    *simd.Engine
	regs []*simd.Vec
	tabs map[*int32][]int
}

func (o *engineOps) r(x Reg) *simd.Vec {
	for len(o.regs) <= int(x) {
		o.regs = append(o.regs, o.e.NewVec())
	}
	return o.regs[x]
}

func (o *engineOps) tab(t []int32) []int {
	if o.tabs == nil {
		o.tabs = make(map[*int32][]int)
	}
	if it, ok := o.tabs[&t[0]]; ok {
		return it
	}
	it := make([]int, len(t))
	for i, x := range t {
		it[i] = int(x)
	}
	o.tabs[&t[0]] = it
	return it
}

func (o *engineOps) Clear(d Reg)                     { o.r(d).Clear() }
func (o *engineOps) SetImm(d Reg, pat []int16)       { o.e.SetImm(o.r(d), pat) }
func (o *engineOps) BcastImm(d Reg, x int16)         { o.e.Broadcast16(o.r(d), x) }
func (o *engineOps) Load(d Reg, at int64)            { o.e.LoadVec(o.r(d), at) }
func (o *engineOps) Store(at int64, a Reg)           { o.e.StoreVec(at, o.r(a)) }
func (o *engineOps) ExtrW(at int64, a Reg, lane int) { o.e.PExtrWToMem(at, o.r(a), lane) }
func (o *engineOps) Sra(d, a Reg, imm uint)          { o.e.PSraW(o.r(d), o.r(a), imm) }
func (o *engineOps) And(d, a, b Reg)                 { o.e.PAnd(o.r(d), o.r(a), o.r(b)) }
func (o *engineOps) Or(d, a, b Reg)                  { o.e.POr(o.r(d), o.r(a), o.r(b)) }
func (o *engineOps) Xor(d, a, b Reg)                 { o.e.PXor(o.r(d), o.r(a), o.r(b)) }

func (o *engineOps) Ext(d, a Reg, w simd.Width, sel int) {
	if w == simd.W128 {
		o.e.VExtractI128(o.r(d), o.r(a), sel)
	} else {
		o.e.VExtractI32x8(o.r(d), o.r(a), sel)
	}
}

func (o *engineOps) Loop(trips int, body func(t int)) {
	for t := 0; t < trips; t++ {
		body(t)
	}
}

func (o *engineOps) GammaSweep(r *[10]Reg, groups int, in, din [3]int64, quad, dq, dl int64, t *[GammaLines][4][]int32) {
	e := o.e
	s, p, la, tt, g0, g1, n0, n1, acc, tmp := o.r(r[0]), o.r(r[1]), o.r(r[2]), o.r(r[3]), o.r(r[4]), o.r(r[5]), o.r(r[6]), o.r(r[7]), o.r(r[8]), o.r(r[9])
	zero := e.NewVec()
	for g := range int64(groups) {
		e.LoadVec(s, in[0]+g*din[0])
		e.LoadVec(p, in[1]+g*din[1])
		e.LoadVec(la, in[2]+g*din[2])
		e.PAddSW(tt, s, la)
		e.PAddSW(g0, tt, p)
		e.PSubSW(g1, tt, p)
		e.PSubSW(n0, zero, g0)
		e.PSubSW(n1, zero, g1)
		for j := range int64(GammaLines) {
			e.PermuteW(acc, g0, o.tab(t[j][0]))
			for v, x := range []*simd.Vec{g1, n0, n1} {
				e.PermuteW(tmp, x, o.tab(t[j][v+1]))
				e.POr(acc, acc, tmp)
			}
			e.StoreVec(quad+g*dq+j*dl, acc)
		}
	}
}

func (o *engineOps) QuadGather(r, acc, tmp Reg, dst int64, srcs []int64, tabs [][]int32) {
	e := o.e
	e.LoadVec(o.r(r), srcs[0])
	e.PermuteW(o.r(acc), o.r(r), o.tab(tabs[0]))
	for j := 1; j < len(srcs); j++ {
		e.LoadVec(o.r(r), srcs[j])
		e.PermuteW(o.r(tmp), o.r(r), o.tab(tabs[j]))
		e.POr(o.r(acc), o.r(acc), o.r(tmp))
	}
	e.StoreVec(dst, o.r(acc))
}

func (o *engineOps) AlphaSweep(r *[9]Reg, steps int, quad, dq, out, dout int64, t *[5][]int32) {
	e := o.e
	qd, bm0, bm1, a0, a1, c0, c1, norm, alpha := o.r(r[0]), o.r(r[1]), o.r(r[2]), o.r(r[3]), o.r(r[4]), o.r(r[5]), o.r(r[6]), o.r(r[7]), o.r(r[8])
	for s := range int64(steps) {
		e.LoadVec(qd, quad+s*dq)
		e.PermuteW(bm0, qd, o.tab(t[0]))
		e.PermuteW(bm1, qd, o.tab(t[1]))
		e.PermuteW(a0, alpha, o.tab(t[2]))
		e.PermuteW(a1, alpha, o.tab(t[3]))
		e.PAddSW(c0, a0, bm0)
		e.PAddSW(c1, a1, bm1)
		e.PMaxSW(alpha, c0, c1)
		e.PermuteW(norm, alpha, o.tab(t[4]))
		e.PSubSW(alpha, alpha, norm)
		e.StoreVec(out+s*dout, alpha)
	}
}

func (o *engineOps) BetaSweep(r *[9]Reg, steps int, quad, dq int64, t *[5][]int32, x *BetaExt) {
	e := o.e
	qd, bm0, bm1, b0, b1, v0, v1, beta, norm := o.r(r[0]), o.r(r[1]), o.r(r[2]), o.r(r[3]), o.r(r[4]), o.r(r[5]), o.r(r[6]), o.r(r[7]), o.r(r[8])
	for s := range steps {
		e.LoadVec(qd, quad+int64(s)*dq)
		e.PermuteW(bm0, qd, o.tab(t[0]))
		e.PermuteW(bm1, qd, o.tab(t[1]))
		e.PermuteW(b0, beta, o.tab(t[2]))
		e.PermuteW(b1, beta, o.tab(t[3]))
		e.PAddSW(v0, b0, bm0)
		e.PAddSW(v1, b1, bm1)
		if x != nil {
			la, e0, e1, m0, m1, tmp, dv := o.r(x.Regs[0]), o.r(x.Regs[1]), o.r(x.Regs[2]), o.r(x.Regs[3]), o.r(x.Regs[4]), o.r(x.Regs[5]), o.r(x.Regs[6])
			e.LoadVec(la, x.Alpha+int64(s)*x.DAlpha)
			e.PAddSW(e0, la, v0)
			e.PAddSW(e1, la, v1)
			hmax := func(m, v *simd.Vec) {
				e.PermuteW(tmp, v, o.tab(x.Hmax[0]))
				e.PMaxSW(m, v, tmp)
				e.PermuteW(tmp, m, o.tab(x.Hmax[1]))
				e.PMaxSW(m, m, tmp)
				e.PermuteW(tmp, m, o.tab(x.Hmax[2]))
				e.PMaxSW(m, m, tmp)
			}
			hmax(m0, e0)
			hmax(m1, e1)
			e.PSubSW(dv, m0, m1)
			nx := len(x.Lanes)
			np := len(x.Out) / nx
			for i, lane := range x.Lanes {
				e.PExtrWToMem(x.Out[s%np*nx+i]+int64(s/np)*x.DOut, dv, lane)
			}
		}
		e.PMaxSW(beta, v0, v1)
		e.PermuteW(norm, beta, o.tab(t[4]))
		e.PSubSW(beta, beta, norm)
	}
}

func (o *engineOps) ExtVec(r *[7]Reg, imm uint, in [3]int64, out int64) {
	e := o.e
	d, s, la, t, half, lim, nlim := o.r(r[0]), o.r(r[1]), o.r(r[2]), o.r(r[3]), o.r(r[4]), o.r(r[5]), o.r(r[6])
	e.LoadVec(d, in[0])
	e.LoadVec(s, in[1])
	e.LoadVec(la, in[2])
	e.PAddSW(t, s, la)
	e.PSraW(half, d, imm)
	e.PSubSW(half, half, t)
	e.PMinSW(half, half, lim)
	e.PMaxSW(half, half, nlim)
	e.StoreVec(out, half)
}

// synthKernel is a width-generic "decode-like" kernel exercising every
// method of an Emitter: vector arithmetic and mask logic with aliased
// operands, lane extracts and 128- and 256-bit extracts, a loop of
// singletons, loops that do not fold, the packed stream's gamma group and
// quad gather, alpha and beta sweeps, the extrinsic group, index tables with
// out-of-range entries, and register state that is live across iterations
// (acc, alpha, beta).
type synthKernel struct {
	w                            simd.Width
	in, out, acc, scalars, pk    int64
	salt                         int // varies the seeded inputs
	hi, lo, mask, accR, al, beta Reg
}

// The kernel's registers: six held across iterations, six of the scalar
// part and sixteen of the packed one.
const (
	synthHeld   = 6
	synthRegs   = synthHeld + 6 + 16
	packedLines = 10
)

func newSynthKernel(w simd.Width, mem *simd.Memory) *synthKernel {
	k := &synthKernel{w: w, hi: 0, lo: 1, mask: 2, accR: 3, al: 4, beta: 5}
	k.in = mem.Alloc(256, 64)
	k.out = mem.Alloc(1024, 64)
	k.acc = mem.Alloc(128, 64)
	k.scalars = mem.Alloc(128, 64)
	k.pk = mem.Alloc(packedLines*64, 64)
	return k
}

// seed writes the kernel's initial memory; identical on the interpreted
// and replayed arenas.
func (k *synthKernel) seed(mem *simd.Memory) {
	for i := 0; i < 128; i++ {
		mem.WriteI16(k.in+int64(2*i), int16(37*i-900+1009*k.salt))
	}
	for i := 0; i < 64; i++ {
		mem.WriteI16(k.acc+int64(2*i), int16(3*i-k.salt))
		mem.WriteI16(k.scalars+int64(2*i), int16(500-11*i))
	}
}

// prefix clears every register, as a fresh engine's are, and sets the
// ones held across iterations.
func (k *synthKernel) prefix(o ops) {
	n := k.w.Lanes16()
	for r := Reg(0); r < synthRegs; r++ {
		o.Clear(r)
	}
	o.BcastImm(k.hi, 4096)
	pat := make([]int16, n)
	for i := range pat {
		if i%3 == 0 {
			pat[i] = -1
		}
	}
	o.SetImm(k.mask, pat)
	o.Load(k.accR, k.acc)
	o.BcastImm(k.lo, -4096)
	o.Load(k.al, k.in+int64(4*n))
	o.Load(k.beta, k.acc)
}

// iteration is one steady iteration.
func (k *synthKernel) iteration(o ops, t *packedTabs) {
	n := k.w.Lanes16()
	wb := int64(2 * n)
	a, b, t1, t2, d, s := Reg(synthHeld), Reg(synthHeld+1), Reg(synthHeld+2), Reg(synthHeld+3), Reg(synthHeld+4), Reg(synthHeld+5)
	o.Load(a, k.in)
	o.Load(b, k.in+wb)
	o.Xor(k.accR, k.accR, a) // cross-iteration register state
	o.Or(t1, a, b)
	o.Xor(t2, t1, k.hi)
	o.Sra(t2, t2, 1)
	o.And(t1, a, k.mask)
	o.Or(d, t1, t2)
	o.Xor(s, d, a)
	o.And(d, d, d)
	o.Store(k.out, d)
	o.Store(k.out+wb, s)
	o.Store(k.acc, k.accR)
	o.ExtrW(k.scalars+96, t2, n/2)
	if k.w != simd.W128 {
		o.Ext(t1, t2, simd.W128, 1)
		o.Store(k.out+128, t1)
	}
	if k.w == simd.W512 {
		o.Ext(t1, k.accR, simd.W256, 1)
		o.Store(k.out+256, t1)
	}
	// A loop of singletons, each trip's lines 16 bytes past the last's.
	o.Loop(6, func(j int) {
		o.Load(a, k.in+int64(16*j))
		o.Xor(b, a, k.lo)
		o.Store(k.out+384+int64(16*j), b)
		o.ExtrW(k.out+768+int64(2*j), a, n/2)
	})
	// Loops that do not fold, each emitted trip by trip: one whose last
	// trip loads off the stride trip 1 sets, one whose trip 1 extracts
	// another lane, one of one trip and one of none.
	er := [7]Reg{t1, t2, d, s, b, k.hi, k.lo}
	o.Loop(4, func(j int) {
		o.ExtVec(&er, 1, [3]int64{k.in + int64(16*(j+j/3)), k.in + wb, k.acc}, k.out+unrolledOut)
		o.ExtrW(k.out+unrolledOut+64+int64(2*j), a, 1)
	})
	o.Loop(3, func(j int) { o.ExtrW(k.out+unrolledOut+80+int64(2*j), a, 2*(j%2)) })
	o.Loop(1, func(int) { o.ExtrW(k.out+unrolledOut+88, a, 3) })
	o.Loop(0, func(int) { o.ExtrW(k.out+unrolledOut+90, a, 4) })
	k.packed(o, t)
}

// unrolledOut is where in k.out the loops that do not fold write.
const unrolledOut = 896

// packedTabs are the index tables of the packed shapes. Each has
// out-of-range entries (the engine's permute selects zero there),
// including in the middle stage of the horizontal max.
type packedTabs struct {
	a0, a1, p0, p1, nrm, h0, h1, h2, s0, s1, s2 []int32
}

func newPackedTabs(n int) *packedTabs {
	mk := func(f func(i int) int) []int32 {
		t := make([]int32, n)
		for i := range t {
			t[i] = int32(f(i))
		}
		return t
	}
	pick := func(r int, f func(i int) int) []int32 {
		return mk(func(i int) int {
			if i%3 == r {
				return f(i)
			}
			return -1 - i
		})
	}
	t := &packedTabs{
		a0:  mk(func(i int) int { return (3*i + 1) % n }),
		a1:  mk(func(i int) int { return (5*i + 2) % n }),
		p0:  mk(func(i int) int { return (i + 1) % n }),
		p1:  mk(func(i int) int { return n - 1 - i }),
		nrm: mk(func(i int) int { return i &^ 7 }),
		h0:  mk(func(i int) int { return i&^7 | (i+4)&7 }),
		h1:  mk(func(i int) int { return i ^ 2 }),
		h2:  mk(func(i int) int { return i ^ 1 }),
		s0:  pick(0, func(i int) int { return i }),
		s1:  pick(1, func(i int) int { return (i + 1) % n }),
		s2:  pick(2, func(i int) int { return n - 1 - i }),
	}
	t.a0[1], t.a1[n-1], t.p0[2], t.nrm[n-1] = -1, int32(n+3), int32(n), -5
	t.h0[5], t.h1[3], t.h2[6] = int32(n+1), -1, -1
	return t
}

// packed emits each packed-stream shape, writing results to the 64-byte
// lines of k.pk. Nothing reads a shape's scratch registers before a later
// shape redefines them.
func (k *synthKernel) packed(o ops, t *packedTabs) {
	n := k.w.Lanes16()
	at := func(i int) int64 { return k.pk + int64(i)*64 }
	var v [16]Reg
	for i := range v {
		v[i] = Reg(synthHeld + 6 + i)
	}
	// A gamma group over three input lines, its eight quad lines the first
	// of k.pk, by the kernel's tables in turn.
	var scat [GammaLines][4][]int32
	all := [][]int32{t.s0, t.s1, t.s2, t.a0, t.a1, t.p0, t.p1, t.nrm, t.h0, t.h1, t.h2}
	for j := range scat {
		for x := range scat[j] {
			scat[j][x] = all[(4*j+x)%len(all)]
		}
	}
	gr := [10]Reg(v[:10])
	o.GammaSweep(&gr, 1, [3]int64{k.in, k.in + int64(2*n), k.acc}, [3]int64{}, at(0), 0, 64, &scat)
	acc, tmp, rr := v[0], v[1], v[2]
	// Quad gathers of two source lines and of one.
	o.QuadGather(rr, acc, tmp, at(1), []int64{k.in, k.in + int64(2*n)}, [][]int32{t.p0, t.p1})
	o.QuadGather(rr, acc, tmp, at(2), []int64{k.in}, [][]int32{t.a1})

	ar := [9]Reg{v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10], k.al}
	at5 := [5][]int32{t.a0, t.a1, t.p0, t.p1, t.nrm}
	o.AlphaSweep(&ar, 1, at(0), 0, at(3), 0, &at5)

	// A beta step of the tail form, observed through the next step, then
	// one that extracts the posterior through two horizontal-max
	// butterflies sharing tmp and the index tables.
	br := [9]Reg{v[3], v[4], v[5], v[11], v[12], v[13], v[14], k.beta, v[10]}
	bt := [5][]int32{t.a0, t.a1, t.p1, t.p0, t.nrm}
	o.BetaSweep(&br, 1, at(1), 0, &bt, nil)
	x := &BetaExt{Regs: [7]Reg{v[6], v[7], v[8], v[9], v[15], v[1], v[0]}, Alpha: at(3), Hmax: [3][]int32{t.h0, t.h1, t.h2}}
	for b := 0; b < n/8; b++ {
		x.Lanes, x.Out = append(x.Lanes, 8*b), append(x.Out, at(4)+int64(2*b))
	}
	o.BetaSweep(&br, 1, at(2), 0, &bt, x)
	o.Store(at(5), k.beta)

	// An extrinsic group that stores over one of the lines it reads.
	er := [7]Reg{v[0], v[1], v[2], v[3], v[4], k.hi, k.lo}
	o.ExtVec(&er, 1, [3]int64{at(3), at(5), k.in}, at(5))

	// A sweep: three alpha steps over the quad lines written above.
	o.AlphaSweep(&ar, 3, at(0), 64, at(7), 64, &at5)
}

// walk is k's program: what Emit is handed.
func (k *synthKernel) walk(e *Emitter) {
	t := newPackedTabs(k.w.Lanes16())
	k.prefix(e)
	e.Steady()
	k.iteration(e, t)
}

// synthLayout lays a kernel out in an arena of memBytes.
func synthLayout(w simd.Width, memBytes int) *synthKernel {
	return newSynthKernel(w, simd.NewMemory(memBytes))
}

// emitSynth emits the kernel's program at width w.
func emitSynth(t *testing.T, w simd.Width) (*Program, *synthKernel) {
	t.Helper()
	k := synthLayout(w, synthBytes)
	p, err := Emit(w, k.walk)
	if err != nil {
		t.Fatalf("%v: emit: %v", w, err)
	}
	return p, k
}

// synthBytes is the arena the kernel runs in.
const synthBytes = 1 << 14

// interpret runs the kernel on the engine alone, with the given input
// salt, and returns the arena bytes: the reference every replay is
// compared with.
func interpret(w simd.Width, iters, salt int) []byte {
	mem := simd.NewMemory(synthBytes)
	k := newSynthKernel(w, mem)
	k.salt = salt
	k.seed(mem)
	o := &engineOps{e: simd.NewEngine(w, mem, nil)}
	t := newPackedTabs(w.Lanes16())
	k.prefix(o)
	for it := 0; it < iters; it++ {
		k.iteration(o, t)
	}
	return mem.Bytes(0, mem.Size())
}

// TestReplayMatchesInterpreter is the core equivalence property: running
// SegFirst once and SegSteady iters times over a freshly seeded arena
// must leave byte-identical memory to the interpreted run, across all
// widths, with register state carried across iterations.
func TestReplayMatchesInterpreter(t *testing.T) { eachKernel(t, testReplayMatchesInterpreter) }

func testReplayMatchesInterpreter(t *testing.T) {
	const iters = 5
	for _, w := range simd.Widths {
		p, k := emitSynth(t, w)
		if p.Width() != w {
			t.Fatalf("%v: program width %v", w, p.Width())
		}
		want := interpret(w, iters, 0)
		got := replayBytes(t, p, k, iters)
		if !bytes.Equal(want, got) {
			for a := 0; a < len(want); a++ {
				if want[a] != got[a] {
					t.Errorf("%v: memory differs at byte %d: interpreted %d, replayed %d", w, a, want[a], got[a])
					break
				}
			}
		}
	}
}

// TestReplayIsRestartable: replaying the same program over a re-seeded
// arena must give the same bytes again, on a fresh Exec and on one that
// has run before (no state outlives a run but the register file, which
// SegFirst fully re-establishes), and the program itself comes out of
// every run as it went in.
func TestReplayIsRestartable(t *testing.T) {
	const iters = 4
	p, k := emitSynth(t, simd.W256)
	want := interpret(simd.W256, iters, 0)
	sum := p.Checksum()
	mem := simd.NewMemory(synthBytes)
	used := p.NewExec(mem, 0)
	for round := 0; round < 3; round++ {
		clear(mem.Bytes(0, mem.Size()))
		k.seed(mem)
		x := used
		if round == 2 {
			x = p.NewExec(mem, 0)
		}
		p.Run(x, SegFirst)
		for it := 0; it < iters; it++ {
			p.Run(x, SegSteady)
		}
		if !bytes.Equal(want, mem.Bytes(0, mem.Size())) {
			t.Fatalf("round %d: replay diverged from interpreter", round)
		}
	}
	if p.Checksum() != sum {
		t.Error("running the program changed it")
	}
}

// TestSharedProgramConcurrentRuns: one program, four goroutines, each with
// its own Exec over a region at a different offset of its own arena and its
// own inputs, replaying at once. Every arena ends byte-identical to the
// interpreter's over those inputs and the program's checksum does not move:
// Run reads the program and writes only the Exec. Under -race this is the
// program/exec split's proof.
func TestSharedProgramConcurrentRuns(t *testing.T) { eachKernel(t, testSharedProgramConcurrentRuns) }

func testSharedProgramConcurrentRuns(t *testing.T) {
	const iters, size = 4, synthBytes
	for _, w := range simd.Widths {
		p, _ := emitSynth(t, w)
		sum := p.Checksum()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				want := interpret(w, iters, g)
				// The region starts g*192 bytes into a larger arena: the
				// kernel's own layout, shifted.
				base := int64(g) * 192
				mem := simd.NewMemory(size + int(base))
				region := simd.NewMemory(size)
				k := newSynthKernel(w, region)
				k.salt = g
				for round := 0; round < 3; round++ {
					clear(region.Bytes(0, size))
					k.seed(region)
					copy(mem.Bytes(base, size), region.Bytes(0, size))
					x := p.NewExec(mem, base)
					p.Run(x, SegFirst)
					for it := 0; it < iters; it++ {
						p.Run(x, SegSteady)
					}
					if !bytes.Equal(want, mem.Bytes(base, size)) {
						t.Errorf("%v goroutine %d round %d: replay diverged from the interpreter", w, g, round)
					}
					if base > 0 && !bytes.Equal(mem.Bytes(0, int(base)), make([]byte, base)) {
						t.Errorf("%v goroutine %d: replay wrote in front of its region", w, g)
					}
				}
			}(g)
		}
		wg.Wait()
		if p.Checksum() != sum {
			t.Errorf("%v: concurrent runs changed the program", w)
		}
	}
}

// replayBytes replays p over a freshly seeded arena laid out like k's
// and returns the arena bytes.
func replayBytes(t *testing.T, p *Program, k *synthKernel, iters int) []byte {
	t.Helper()
	mem := simd.NewMemory(synthBytes)
	newSynthKernel(k.w, mem)
	k.seed(mem)
	x := p.NewExec(mem, 0)
	p.Run(x, SegFirst)
	for it := 0; it < iters; it++ {
		p.Run(x, SegSteady)
	}
	return mem.Bytes(0, mem.Size())
}

// TestSynthKernelCoversFusedOps: the equivalence tests only mean
// something for the packed records if the kernel writes every fused kind,
// the extracting beta sweep among them, and the program emits: no record
// reads a register a fused record clobbered.
func TestSynthKernelCoversFusedOps(t *testing.T) {
	for _, w := range simd.Widths {
		p, _ := emitSynth(t, w)
		got := p.FusedKindCounts(SegSteady)
		for _, name := range FusedKinds() {
			if got[name] == 0 {
				t.Errorf("%v: no %s emitted", w, name)
			}
		}
		if p.RecordKindCounts()["nBetaExtSweep"] == 0 {
			t.Errorf("%v: no beta step + extract emitted", w)
		}
	}
}

// TestLoopFoldsOnlyRepeatingTrips: of the kernel's loops, the one whose
// trips repeat trip 0 — the singletons — is one loop record, its six trips
// three of a body of two unrolled copies of trip 0's four records; the
// others are written trip by trip, in order: the one whose last trip is
// off the stride, the one whose trip 1 is of another shape, and the one of
// one trip; the one of no trips writes nothing. Their replay is held to
// the engine by the replay tests.
func TestLoopFoldsOnlyRepeatingTrips(t *testing.T) {
	for _, w := range simd.Widths {
		p, k := emitSynth(t, w)
		code := p.code[SegSteady]
		var loops [][2]int
		var outs []int64 // where each record outside a loop stores past unrolledOut
		for pc := 0; pc < len(code); pc += recordWords(code[pc:]) {
			at := int64(-1)
			switch code[pc] & 0xff {
			case nLoop:
				nc := int(code[pc+3])
				body, recs := code[pc+5+nc:][:code[pc+4+nc]], 0
				for i := 0; i < len(body); i += recordWords(body[i:]) {
					if kind := body[i] & 0xff; kind != nBase && kind != nEnd {
						recs++
					}
				}
				loops = append(loops, [2]int{int(code[pc] >> 8), recs})
			case nExtVec:
				at = int64(code[pc+6])
			case nExtrW:
				at = int64(code[pc+2])
			}
			if at -= k.out + unrolledOut; at >= 0 && at < 1024-unrolledOut {
				outs = append(outs, at)
			}
		}
		if want := [][2]int{{3, 8}}; !slices.Equal(loops, want) {
			t.Errorf("%v: loop records of (trips, records) %v, want %v", w, loops, want)
		}
		if want := []int64{0, 64, 0, 66, 0, 68, 0, 70, 80, 82, 84, 88}; !slices.Equal(outs, want) {
			t.Errorf("%v: unfolded trips store at %v, want %v", w, outs, want)
		}
	}
}

// TestEmitRefusesMalformedOps: an operand the records could not run as
// the method's sequence runs is refused as it is written, and the emit
// fails.
func TestEmitRefusesMalformedOps(t *testing.T) {
	tab := []int32{1, 0, 3, 2, 5, 4, 7, 6}
	for name, walk := range map[string]func(e *Emitter){
		"gamma sweep over an aliased register": func(e *Emitter) {
			e.GammaSweep(&[10]Reg{0, 1, 2, 3, 4, 5, 6, 7, 8, 1}, 1, [3]int64{64, 128, 192}, [3]int64{}, 256, 0, 16, gammaTabs(tab))
		},
		"odd load address":  func(e *Emitter) { e.Load(0, 65) },
		"negative register": func(e *Emitter) { e.Clear(-1) },
		"odd loop stride":   func(e *Emitter) { e.Loop(4, func(t int) { e.Store(64+15*int64(t), 0) }) },
		"last trip at a negative address": func(e *Emitter) {
			e.Loop(6, func(t int) { e.Store(64-16*int64(t), 0) })
		},
	} {
		if _, err := Emit(simd.W128, func(e *Emitter) { e.Steady(); walk(e) }); err == nil {
			t.Errorf("%s: emitted", name)
		}
	}
}

// TestEmitRefusesScratchReads: a fused record writes none of its scratch
// registers, so a program that reads one before writing it again does not
// emit: in the segment that clobbered it, in the next trip of a loop, or
// across the segment boundary.
func TestEmitRefusesScratchReads(t *testing.T) {
	tab := []int32{1, 0, 3, 2, 5, 4, 7, 6}
	tabs := [5][]int32{tab, tab, tab, tab, tab}
	r := [9]Reg{0, 1, 2, 3, 4, 5, 6, 7, 8}
	gr := [10]Reg{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for name, walk := range map[string]func(e *Emitter){
		"a gamma sweep's scratch, stored after it": func(e *Emitter) {
			e.GammaSweep(&gr, 1, [3]int64{64, 128, 192}, [3]int64{}, 256, 0, 16, gammaTabs(tab))
			e.Store(512, 8)
		},
		"an alpha sweep's scratch, stored by the next trip": func(e *Emitter) {
			e.Clear(0)
			e.Loop(4, func(t int) {
				e.Store(256+16*int64(t), 0)
				e.AlphaSweep(&r, 1, 64, 0, 128+16*int64(t), 0, &tabs)
			})
		},
		"a register read first by SegSteady, which ends clobbering it": func(e *Emitter) {
			e.Store(512, 0)
			e.GammaSweep(&gr, 1, [3]int64{64, 128, 192}, [3]int64{}, 256, 0, 16, gammaTabs(tab))
		},
	} {
		if _, err := Emit(simd.W128, func(e *Emitter) { e.Steady(); walk(e) }); err == nil {
			t.Errorf("%s: emitted", name)
		}
	}
}

// gammaTabs is a gamma sweep's tables, every one tab.
func gammaTabs(tab []int32) *[GammaLines][4][]int32 {
	var t [GammaLines][4][]int32
	for j := range t {
		for v := range t[j] {
			t[j][v] = tab
		}
	}
	return &t
}
