package program

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"vransim/internal/simd"
)

// synthKernel is a width-generic "decode-like" kernel exercising every
// recorded op kind a program executes and every fusion shape the compiler
// knows: vector arithmetic and mask logic, aliased and out-of-range
// permutes, a scalar copy run, lane extracts, the packed stream's quad
// scatter/gather, alpha/beta steps and vector ext group (see packed), and
// register state that is live across iterations (acc, alpha, beta). It deliberately allocates
// a throwaway register with NewVec every iteration — a fresh pointer
// each time — so compiling it at >= 4 iterations proves the verifier's
// register bijection rather than pointer identity.
type synthKernel struct {
	w                                simd.Width
	in, out, acc, scalars, gamma, pk int64
	iters                            int
	// salt varies the seeded inputs, for decodes that must differ.
	salt int
}

// packedBytes is the arena the packed() call of one iteration uses: 7
// result lines.
const packedBytes = 7 * 64

func newSynthKernel(w simd.Width, mem *simd.Memory) *synthKernel {
	k := &synthKernel{w: w}
	k.in = mem.Alloc(256, 64)
	k.out = mem.Alloc(512, 64)
	k.acc = mem.Alloc(128, 64)
	k.scalars = mem.Alloc(128, 64)
	k.gamma = mem.Alloc(128, 64)
	k.pk = mem.Alloc(packedBytes, 64)
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

// packedTabs are the index tables of the packed shapes. Each has
// out-of-range entries (the engine's permute selects zero there),
// including in the middle stage of the horizontal max.
type packedTabs struct {
	a0, a1, p0, p1, nrm, h0, h1, h2, s0, s1, s2 []int
}

func newPackedTabs(n int) *packedTabs {
	mk := func(f func(i int) int) []int {
		t := make([]int, n)
		for i := range t {
			t[i] = f(i)
		}
		return t
	}
	pick := func(r int, f func(i int) int) []int {
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
	t.a0[1], t.a1[n-1], t.p0[2], t.nrm[n-1] = -1, n+3, n, -5
	t.h0[5], t.h1[3], t.h2[6] = n+1, -1, -1
	return t
}

// packed emits each packed-stream shape once, writing results to the 64-
// byte lines from base on. Nothing reads a shape's intermediate registers
// before a later shape redefines them, so every fused op is lean.
func (k *synthKernel) packed(e *simd.Engine, t *packedTabs, alpha, beta, lim, nlim *simd.Vec, srcs [3]*simd.Vec, base int64) {
	n := k.w.Lanes16()
	wb := int64(2 * n)
	at := func(i int) int64 { return base + int64(i)*64 }
	v := make([]*simd.Vec, 16)
	for i := range v {
		v[i] = e.AcquireVec()
	}

	// Quad scatter.
	acc, tmp := v[0], v[1]
	e.PermuteW(acc, srcs[0], t.s0)
	e.PermuteW(tmp, srcs[1], t.s1)
	e.POr(acc, acc, tmp)
	e.PermuteW(tmp, srcs[2], t.s2)
	e.POr(acc, acc, tmp)
	e.StoreVec(at(0), acc)

	// Quad gather, of two source lines and of one.
	rr := v[2]
	e.LoadVec(rr, k.in)
	e.PermuteW(acc, rr, t.p0)
	e.LoadVec(rr, k.in+wb)
	e.PermuteW(tmp, rr, t.p1)
	e.POr(acc, acc, tmp)
	e.StoreVec(at(1), acc)
	e.LoadVec(rr, k.in)
	e.PermuteW(acc, rr, t.a1)
	e.StoreVec(at(2), acc)

	// Alpha step over the scattered quad line.
	qd, bm0, bm1, a0, a1, c0, c1, norm := v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10]
	e.LoadVec(qd, at(0))
	e.PermuteW(bm0, qd, t.a0)
	e.PermuteW(bm1, qd, t.a1)
	e.PermuteW(a0, alpha, t.p0)
	e.PermuteW(a1, alpha, t.p1)
	e.PAddSW(c0, a0, bm0)
	e.PAddSW(c1, a1, bm1)
	e.PMaxSW(alpha, c0, c1)
	e.PermuteW(norm, alpha, t.nrm)
	e.PSubSW(alpha, alpha, norm)
	e.StoreVec(at(3), alpha)

	// Beta step, tail form (no posterior extraction). Its result is
	// observed through the next step; storing beta right here would turn
	// the shape into an alpha step.
	b0, b1, w0, w1 := v[11], v[12], v[13], v[14]
	betaPrefix := func(quad int64) {
		e.LoadVec(qd, quad)
		e.PermuteW(bm0, qd, t.a0)
		e.PermuteW(bm1, qd, t.a1)
		e.PermuteW(b0, beta, t.p1)
		e.PermuteW(b1, beta, t.p0)
		e.PAddSW(w0, b0, bm0)
		e.PAddSW(w1, b1, bm1)
	}
	betaUpdate := func() {
		e.PMaxSW(beta, w0, w1)
		e.PermuteW(norm, beta, t.nrm)
		e.PSubSW(beta, beta, norm)
	}
	betaPrefix(at(1))
	betaUpdate()

	// Beta step, in-block form: posterior extraction through two
	// horizontal-max butterflies sharing tmp and the index tables.
	al, e0, e1, m0, m1, dv := v[6], v[7], v[8], v[9], v[15], v[0]
	hmax := func(dst, x *simd.Vec) {
		e.PermuteW(tmp, x, t.h0)
		e.PMaxSW(dst, x, tmp)
		e.PermuteW(tmp, dst, t.h1)
		e.PMaxSW(dst, dst, tmp)
		e.PermuteW(tmp, dst, t.h2)
		e.PMaxSW(dst, dst, tmp)
	}
	betaPrefix(at(2))
	e.LoadVec(al, at(3))
	e.PAddSW(e0, al, w0)
	e.PAddSW(e1, al, w1)
	hmax(m0, e0)
	hmax(m1, e1)
	e.PSubSW(dv, m0, m1)
	for b := 0; b < n/8; b++ {
		e.PExtrWToMem(at(4)+int64(2*b), dv, 8*b)
	}
	betaUpdate()
	e.StoreVec(at(5), beta)

	// Vector extrinsic group.
	dvec, s, la, tt, half := v[0], v[1], v[2], v[3], v[4]
	e.LoadVec(dvec, at(3))
	e.LoadVec(s, at(5))
	e.LoadVec(la, k.in)
	e.PAddSW(tt, s, la)
	e.PSraW(half, dvec, 1)
	e.PSubSW(half, half, tt)
	e.PMinSW(half, half, lim)
	e.PMaxSW(half, half, nlim)
	e.StoreVec(at(6), half)

	e.ReleaseVec(v...)
}

// run drives iters recorded iterations on e (whose ProgSink may be a
// Builder) after a constant-register prefix.
func (k *synthKernel) run(e *simd.Engine) {
	n := k.w.Lanes16()
	rev := make([]int, n)
	wild := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
		wild[i] = i
	}
	wild[0] = -2
	wild[n-1] = n + 7

	// Prefix: long-lived constants and masks (stable pointers).
	hi := e.NewVec()
	e.Broadcast16(hi, 4096)
	mask := e.NewVec()
	pat := make([]int16, n)
	for i := range pat {
		if i%3 == 0 {
			pat[i] = -1
		}
	}
	e.SetImm(mask, pat)
	acc := e.NewVec()
	e.LoadVec(acc, k.acc)
	lo := e.NewVec()
	e.Broadcast16(lo, -4096)
	alpha, beta := e.NewVec(), e.NewVec()
	e.LoadVec(alpha, k.in+int64(4*n))
	e.LoadVec(beta, k.acc)
	pt := newPackedTabs(n)

	for it := 0; it < k.iters; it++ {
		e.ProgMark("iteration")

		// Fresh pointer every iteration: verification must rebind it.
		scratch := e.NewVec()
		a, b, t1, t2, d := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()

		e.LoadVec(a, k.in)
		e.LoadVec(b, k.in+int64(2*n))
		e.PAddSW(acc, acc, a) // cross-iteration register state
		e.PSubSW(t1, a, b)
		e.PMaxSW(t2, t1, b)
		e.PMinSW(t2, t2, hi)
		e.PSraW(t2, t2, 1)

		// Mask logic.
		e.PAnd(t1, a, mask)
		e.PAndN(t2, mask, b)
		e.POr(d, t1, t2)
		e.PXor(scratch, d, a)

		// Aliased and out-of-range permutes (replay parity with the
		// engine's zeroing semantics).
		e.PermuteW(d, d, rev)
		e.PermuteW(scratch, scratch, wild)
		e.StoreVec(k.out, d)
		e.StoreVec(k.out+int64(2*n), scratch)

		e.StoreVec(k.acc, acc)

		// Scalar copy run (fused).
		for i := 0; i < 6; i++ {
			e.CopyI16(k.out+int64(6*n+2*i), k.scalars+int64(2*i))
		}

		// Lane traffic and 128-bit views.
		e.PExtrWToMem(k.scalars+96, t2, n/2)
		e.Broadcast16FromMem(b, k.scalars+96)
		e.LoadVec128(t1, k.in)
		e.StoreVec128(k.out+int64(10*n), t1)
		if k.w != simd.W128 {
			e.VExtractI128(t1, t2, 1)
			e.StoreVec128(k.out+int64(12*n), t1)
		}
		if k.w == simd.W512 {
			e.VExtractI32x8(t1, acc, 1)
			e.StoreVec(k.out+256, t1)
		}
		e.StoreVec(k.out+int64(2*n), scratch)

		e.LoadVec(b, k.in+int64(2*n))
		k.packed(e, pt, alpha, beta, hi, lo, [3]*simd.Vec{a, b, acc}, k.pk)

		e.ReleaseVec(d, t2, t1, b, a)
		// scratch is deliberately NOT released: next iteration's NewVec
		// yields a different pointer.
	}
}

// record runs the kernel interpreted with a Builder attached and returns
// the builder, the arena and the kernel.
func record(w simd.Width, memBytes int, iters int) (*Builder, *simd.Memory, *synthKernel) {
	mem := simd.NewMemory(memBytes)
	e := simd.NewEngine(w, mem, nil)
	k := newSynthKernel(w, mem)
	k.seed(mem)
	k.iters = iters
	b := NewBuilder(w, 0)
	e.SetProgSink(b)
	k.run(e)
	e.SetProgSink(nil)
	return b, mem, k
}

// recordAndCompile runs the kernel interpreted with a Builder attached
// and compiles the recording.
func recordAndCompile(t *testing.T, w simd.Width, memBytes int, iters int) (*Program, *simd.Memory, *synthKernel) {
	t.Helper()
	b, mem, k := record(w, memBytes, iters)
	p, err := b.Compile()
	if err != nil {
		t.Fatalf("%v: compile: %v", w, err)
	}
	return p, mem, k
}

// recordFused is recordAndCompile with the fused segments kept: the
// program is finalized but not finished, so a test can step it op by op.
func recordFused(t *testing.T, w simd.Width, memBytes int, iters int) (*Program, *synthKernel) {
	t.Helper()
	b, _, k := record(w, memBytes, iters)
	p, err := b.fused()
	if err == nil {
		err = p.finalize()
	}
	if err != nil {
		t.Fatalf("%v: compile: %v", w, err)
	}
	return p, k
}

// TestReplayMatchesInterpreter is the core equivalence property: running
// SegFirst once and SegSteady iters times over a freshly seeded arena
// must leave byte-identical memory to the interpreted run — across all
// widths, with register state carried across iterations and with
// per-iteration pointer churn in the recording.
func TestReplayMatchesInterpreter(t *testing.T) { eachKernel(t, testReplayMatchesInterpreter) }

func testReplayMatchesInterpreter(t *testing.T) {
	const iters = 5
	for _, w := range simd.Widths {
		p, interpMem, k := recordAndCompile(t, w, 1<<14, iters)
		if p.Width() != w {
			t.Fatalf("%v: program width %v", w, p.Width())
		}

		replayMem := simd.NewMemory(1 << 14)
		// Same allocation sequence -> same addresses.
		rk := newSynthKernel(w, replayMem)
		if *rk != (synthKernel{w: w, in: k.in, out: k.out, acc: k.acc, scalars: k.scalars, gamma: k.gamma, pk: k.pk}) {
			t.Fatalf("%v: replay arena layout diverged", w)
		}
		rk.seed(replayMem)
		x := p.NewExec(replayMem, 0)
		p.Run(x, SegFirst)
		for it := 0; it < iters; it++ {
			p.Run(x, SegSteady)
		}
		if !bytes.Equal(interpMem.Bytes(0, interpMem.Size()), replayMem.Bytes(0, replayMem.Size())) {
			for a := int64(0); a < int64(interpMem.Size()); a += 2 {
				if x, y := interpMem.ReadI16(a), replayMem.ReadI16(a); x != y {
					t.Errorf("%v: memory differs at %d: interpreted %d, replayed %d", w, a, x, y)
					break
				}
			}
		}
		if p.FusedOps[SegSteady] >= p.RawOps[SegSteady] {
			t.Errorf("%v: fusion did not shrink the steady segment (%d -> %d)",
				w, p.RawOps[SegSteady], p.FusedOps[SegSteady])
		}
	}
}

// TestReplayIsRestartable: replaying the same compiled program over a
// re-seeded arena must give the same bytes again, on a fresh Exec and on
// one that has run before (no state outlives a run but the register file,
// which SegFirst fully re-establishes), and the program itself comes out
// of every run as it went in.
func TestReplayIsRestartable(t *testing.T) {
	const iters = 4
	p, interpMem, k := recordAndCompile(t, simd.W256, 1<<14, iters)
	sum := p.Checksum()
	mem := simd.NewMemory(1 << 14)
	newSynthKernel(simd.W256, mem)
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
		if !bytes.Equal(interpMem.Bytes(0, interpMem.Size()), mem.Bytes(0, mem.Size())) {
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
	const iters, size = 4, 1 << 14
	for _, w := range simd.Widths {
		p, _, _ := recordAndCompile(t, w, size, iters)
		sum := p.Checksum()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				want := interpret(w, size, iters, g)
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

// interpret runs the kernel on the engine alone, with the given input
// salt, and returns the arena bytes: the reference every replay is
// compared with.
func interpret(w simd.Width, memBytes, iters, salt int) []byte {
	mem := simd.NewMemory(memBytes)
	k := newSynthKernel(w, mem)
	k.salt, k.iters = salt, iters
	k.seed(mem)
	k.run(simd.NewEngine(w, mem, nil))
	return mem.Bytes(0, mem.Size())
}

// replayBytes replays p over a freshly seeded arena laid out like k's
// and returns the arena bytes. With rng set the replay is poisoned (see
// runPoisoned).
func replayBytes(t *testing.T, p *Program, k *synthKernel, memBytes, iters int, rng *rand.Rand) []byte {
	t.Helper()
	mem := simd.NewMemory(memBytes)
	newSynthKernel(k.w, mem)
	k.seed(mem)
	x := p.NewExec(mem, 0)
	run := func(seg int) { p.Run(x, seg) }
	if rng != nil {
		run = func(seg int) { p.runPoisoned(x, seg, rng) }
	}
	run(SegFirst)
	for it := 0; it < iters; it++ {
		run(SegSteady)
	}
	return mem.Bytes(0, mem.Size())
}

// runPoisoned is Run op by op, each op lowered to a stream of its own and
// run on x's executor, except that after every op each register write
// whose live bit is clear — every write finalize says nothing reads — is
// overwritten with random lanes. If the masks are right the arena cannot
// tell; if they are stale or wrong, a later op reads the poison.
func (p *Program) runPoisoned(x *Exec, seg int, rng *rand.Rand) {
	ops := p.unrolled(p.segs[seg])
	for i := range ops {
		code, err := p.lower(ops[i : i+1])
		if err != nil {
			panic(err)
		}
		p.run(x, code)
		k := 0
		_ = p.visitEffects(&ops[i], &effectVisitor{reg: func(off int32, write bool) {
			if !write {
				return
			}
			if ops[i].live>>k&1 == 0 {
				for l := range regStride {
					x.regs[int(off)+l] = int16(rng.Uint32())
				}
			}
			k++
		}})
	}
}

// unrolled is ops with every loop written out trip by trip: each trip's
// ops are its body's, their addresses moved by the trip's strides (their
// aux words copied to the end of the pool), their live masks the body's.
func (p *Program) unrolled(ops []mop) []mop {
	var out []mop
	for i := 0; i < len(ops); i++ {
		if ops[i].kind != mLoop {
			out = append(out, ops[i])
			continue
		}
		body, strides, err := p.loopAt(ops, i)
		if err != nil {
			panic(err)
		}
		for t := int64(0); t < ops[i].imm; t++ {
			st := strides
			for _, op := range body {
				n := addrCount(&op)
				d := st[:n]
				st = st[n:]
				if op.kind < firstFused {
					if hasAddr(op.kind) {
						op.addr += t * int64(d[0])
					}
					out = append(out, op)
					continue
				}
				words := slices.Clone(p.aux[op.tab:][:auxLen(&op)])
				k := 0
				for j := range words {
					if addrAt(&op, j) {
						words[j] += int32(t) * d[k]
						k++
					}
				}
				op.tab = int32(len(p.aux))
				p.aux = append(p.aux, words...)
				out = append(out, op)
			}
		}
		i += len(body)
	}
	return out
}

// TestSynthKernelCoversFusedOps: the equivalence tests below only mean
// something for the packed ops if the kernel's shapes really fuse, and
// every fused op the streams run is lean.
func TestSynthKernelCoversFusedOps(t *testing.T) {
	for _, w := range simd.Widths {
		p, _ := recordFused(t, w, 1<<14, 4)
		got := map[string]int{
			"quad scatter": 0, "quad gather": 0, "alpha step": 0,
			"beta step": 0, "beta step + extract": 0, "ext vec": 0, "copy run": 0,
		}
		for _, op := range p.segs[SegSteady] {
			switch op.kind {
			case mBetaStepP:
				if op.imm != 0 {
					got["beta step + extract"]++
					continue
				}
			case mQuadScatter, mQuadGather, mAlphaStepP, mExtVec, mCopyRun:
			default:
				continue
			}
			got[fusedKindNames[op.kind]]++
		}
		for name, n := range got {
			if n == 0 {
				t.Errorf("%v: %s never fused", w, name)
			}
		}
	}
}

// TestPoisonedReplay: dead means dead. Both segments, and a second
// decode with different inputs on the same program (a decode follows a
// decode, so whatever SegFirst reads must have survived the previous
// one), replay byte-identically to the interpreter while every register
// write the live masks call dead is poisoned — the intermediates of every
// lean fused op among them. Then the check is shown to have teeth: with
// every mask cleared the same replay must diverge.
func TestPoisonedReplay(t *testing.T) { eachKernel(t, testPoisonedReplay) }

func testPoisonedReplay(t *testing.T) {
	const iters = 4
	for _, w := range simd.Widths {
		p, k := recordFused(t, w, 1<<14, iters)
		rng := rand.New(rand.NewSource(int64(w)))
		for _, salt := range []int{0, 3} {
			k.salt = salt
			want := interpret(w, 1<<14, iters, salt)
			if got := replayBytes(t, p, k, 1<<14, iters, rng); !bytes.Equal(want, got) {
				t.Fatalf("%v salt %d: poisoned replay diverged from interpreter", w, salt)
			}
		}
		for seg := range p.segs {
			for i := range p.segs[seg] {
				p.segs[seg][i].live = 0
			}
		}
		if got := replayBytes(t, p, k, 1<<14, iters, rng); bytes.Equal(interpret(w, 1<<14, iters, k.salt), got) {
			t.Errorf("%v: replay with every write marked dead and poisoned still matched", w)
		}
	}
}

// TestFinalizeRejectsMalformedOps: every compiled program goes through
// finalize's structural check, so an op the matchers should never emit is
// refused instead of run.
func TestFinalizeRejectsMalformedOps(t *testing.T) {
	for name, op := range map[string]mop{
		"one-source quad scatter": {kind: mQuadScatter, n: 1},
		"odd load address":        {kind: mLoad, addr: 65, imm: 16},
		"register past the file":  {kind: mClear, d: 2 * regStride},
	} {
		p := &Program{w: simd.W128, lanes: 8, nregs: 2 * regStride, aux: make([]int32, 8)}
		p.segs[SegSteady] = []mop{op}
		if err := p.finalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A loop over a store of trip 0 at 64: its header, and the strides in
	// the pool at 0.
	store := mop{kind: mStore, a: 0, addr: 64, imm: 16}
	for name, seg := range map[string]struct {
		ops    []mop
		stride int32
	}{
		"loop past the segment's end":     {[]mop{{kind: mLoop, n: 2, imm: 4}, store}, 16},
		"loop of one trip":                {[]mop{{kind: mLoop, n: 1, imm: 1}, store}, 16},
		"strides past the pool":           {[]mop{{kind: mLoop, n: 1, imm: 4, tab: 8}, store}, 16},
		"odd stride":                      {[]mop{{kind: mLoop, n: 1, imm: 4}, store}, 15},
		"last trip at a negative address": {[]mop{{kind: mLoop, n: 1, imm: 6}, store}, -16},
	} {
		p := &Program{w: simd.W128, lanes: 8, nregs: 2 * regStride, aux: []int32{seg.stride}}
		p.segs[SegSteady] = seg.ops
		if err := p.finalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// The stream is the one thing native code trusts, so lower does not
	// take analyze's word for it: an op whose every operand passed the
	// visitEffects walk is refused when the pool or range its record would
	// address turns out smaller than the walk believed.
	build := func() *Program {
		p := &Program{w: simd.W128, lanes: 8, nregs: 2 * regStride,
			idxTabs: [][]int32{{0, 1, 2, 3, 4, 5, 6, 7}}, lanePats: [][]int16{{1, 2}}}
		p.segs[SegSteady] = []mop{
			{kind: mPermute, d: 0, a: regStride, tab: 0},
			{kind: mSetImm, d: 0, tab: 0},
			{kind: mStore, a: 0, addr: 64, imm: 16},
		}
		if err := p.finalize(); err != nil {
			t.Fatalf("well-formed program refused: %v", err)
		}
		if _, err := p.lower(p.segs[SegSteady]); err != nil {
			t.Fatalf("well-formed program does not lower: %v", err)
		}
		return p
	}
	for name, shrink := range map[string]func(*Program){
		"table index past the pool":   func(p *Program) { p.gat = p.gat[:0] },
		"pattern index past the pool": func(p *Program) { p.pats = p.pats[:0] },
		"store past the extent":       func(p *Program) { p.extent -= 2 },
	} {
		p := build()
		shrink(p)
		if _, err := p.lower(p.segs[SegSteady]); err == nil {
			t.Errorf("%s: lowered", name)
		}
	}
}

// TestAddressOrder: the roller, the liveness walk and the lowering each
// read an op's region addresses in one order, stride i belonging to
// address i: appendAddrs's, visitEffects's and addrAt's positions must be
// the same addresses in the same order, addrCount of them, for every kind
// that has any.
func TestAddressOrder(t *testing.T) {
	p := &Program{w: simd.W512, lanes: 32, nregs: 64 * regStride, idxTabs: [][]int32{make([]int32, 32)}}
	// Aux words: registers and tables 0, addresses 2·(100+i) at word i.
	aux := func(n int) []int32 {
		w := make([]int32, n)
		for i := range w {
			w[i] = int32(2 * (100 + i))
		}
		return w
	}
	for _, op := range []mop{
		{kind: mBcastMem, addr: 64}, {kind: mLoad, addr: 64, imm: 64}, {kind: mStore, addr: 64, imm: 64},
		{kind: mExtrW, addr: 64}, {kind: mCopyRun, n: 3}, {kind: mExtVec}, {kind: mQuadScatter, n: 3},
		{kind: mQuadGather, n: 3}, {kind: mAlphaStepP}, {kind: mBetaStepP}, {kind: mBetaStepP, imm: 1, n: 3},
	} {
		var words []int32
		if op.kind >= firstFused {
			words = aux(int(auxLen(&op)))
			for i := range words {
				if !addrAt(&op, i) {
					words[i] = 0 // a register offset, a table id or a lane
				}
			}
			op.tab = int32(len(p.aux))
			p.aux = append(p.aux, words...)
		}
		var visited, positions []int64
		if err := p.visitEffects(&op, &effectVisitor{mem: func(a, _ int64, _ bool) { visited = append(visited, a) }}); err != nil {
			t.Fatalf("kind %d: %v", op.kind, err)
		}
		if op.kind < firstFused {
			positions = []int64{op.addr}
		}
		for i, w := range words {
			if addrAt(&op, i) {
				positions = append(positions, int64(w))
			}
		}
		got := appendAddrs(nil, &op, words)
		if !slices.Equal(got, visited) || !slices.Equal(got, positions) || len(got) != addrCount(&op) {
			t.Errorf("kind %d: appendAddrs %v, visitEffects %v, addrAt %v, addrCount %d", op.kind, got, visited, positions, addrCount(&op))
		}
	}
}

// TestCompileRefusesUnsupported: a recording holding a scalar helper no
// packed plan records (an insert, or a copy outside a copy run), or a
// fused op whose intermediate a later op reads, has no stream to run, so
// Compile returns an error (and the caller interprets) instead of
// panicking.
func TestCompileRefusesUnsupported(t *testing.T) {
	compile := func(body func(e *simd.Engine, addr int64, v, u *simd.Vec)) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panicked: %v", r)
			}
		}()
		mem := simd.NewMemory(1 << 12)
		e := simd.NewEngine(simd.W128, mem, nil)
		addr := mem.Alloc(512, 64)
		b := NewBuilder(simd.W128, 0)
		e.SetProgSink(b)
		v, u := e.NewVec(), e.NewVec()
		for it := 0; it < 3; it++ {
			e.ProgMark("iteration")
			e.LoadVec(v, addr)
			body(e, addr, v, u)
		}
		e.SetProgSink(nil)
		_, err = b.Compile()
		return err
	}
	tab := []int{1, 0, 3, 2, 5, 4, 7, 6}
	for name, body := range map[string]func(e *simd.Engine, addr int64, v, u *simd.Vec){
		"insert":    func(e *simd.Engine, addr int64, v, _ *simd.Vec) { e.PInsrWFromMem(v, addr+64, 2) },
		"lone copy": func(e *simd.Engine, addr int64, _, _ *simd.Vec) { e.CopyI16(addr+64, addr+2) },
		"live scratch": func(e *simd.Engine, addr int64, v, u *simd.Vec) {
			// A quad scatter whose scratch register is stored afterwards.
			acc := e.AcquireVec()
			e.PermuteW(acc, v, tab)
			e.PermuteW(u, v, tab)
			e.POr(acc, acc, u)
			e.StoreVec(addr+64, acc)
			e.StoreVec(addr+128, u)
			e.ReleaseVec(acc)
		},
	} {
		err := compile(body)
		if err == nil || strings.HasPrefix(err.Error(), "panicked") {
			t.Errorf("%s: Compile returned %v, want an error", name, err)
		}
	}
	if err := compile(func(*simd.Engine, int64, *simd.Vec, *simd.Vec) {}); err != nil {
		t.Errorf("control: %v", err)
	}
}

// TestCompileTooFewIterations: a single recorded iteration verifies
// nothing and must refuse to compile (serving code always records two;
// this is the builder's own guard against a malformed recording).
func TestCompileTooFewIterations(t *testing.T) {
	mem := simd.NewMemory(1 << 14)
	e := simd.NewEngine(simd.W128, mem, nil)
	k := newSynthKernel(simd.W128, mem)
	k.seed(mem)
	k.iters = 1
	b := NewBuilder(simd.W128, 0)
	e.SetProgSink(b)
	k.run(e)
	e.SetProgSink(nil)
	if _, err := b.Compile(); !errors.Is(err, errNoSteady) {
		t.Fatalf("compile of 1-iteration recording: %v, want errNoSteady", err)
	}
}

// TestCompileUnstableStream: an op stream that changes after the steady
// segment freezes — an extra op, or the same op with a different
// immediate — must abort with ErrUnstable, not silently compile.
func TestCompileUnstableStream(t *testing.T) {
	build := func(tamper func(e *simd.Engine, it int, v *simd.Vec)) error {
		mem := simd.NewMemory(1 << 12)
		e := simd.NewEngine(simd.W128, mem, nil)
		addr := mem.Alloc(64, 64)
		b := NewBuilder(simd.W128, 0)
		e.SetProgSink(b)
		v := e.NewVec()
		for it := 0; it < 4; it++ {
			e.ProgMark("iteration")
			e.LoadVec(v, addr)
			e.PAddSW(v, v, v)
			e.StoreVec(addr, v)
			tamper(e, it, v)
		}
		e.SetProgSink(nil)
		_, err := b.Compile()
		return err
	}
	for _, at := range []int{1, 3} {
		if err := build(func(e *simd.Engine, it int, v *simd.Vec) {
			if it == at {
				e.PMaxSW(v, v, v) // extra op after freeze
			}
		}); !errors.Is(err, ErrUnstable) {
			t.Errorf("extra op in iteration %d: %v, want ErrUnstable", at, err)
		}
	}
	if err := build(func(e *simd.Engine, it int, v *simd.Vec) {
		imm := uint(1)
		if it == 3 {
			imm = 2 // same op, different immediate
		}
		e.PSraW(v, v, imm)
	}); !errors.Is(err, ErrUnstable) {
		t.Errorf("changed immediate in iteration 3: %v, want ErrUnstable", err)
	}
	if err := build(func(e *simd.Engine, it int, v *simd.Vec) {
		addr2 := int64(32)
		if it == 3 {
			addr2 = 48 // same op, different address
		}
		e.StoreVec(addr2, v)
	}); !errors.Is(err, ErrUnstable) {
		t.Errorf("changed address in iteration 3: %v, want ErrUnstable", err)
	}
	// Control: an untampered stream compiles.
	if err := build(func(*simd.Engine, int, *simd.Vec) {}); err != nil {
		t.Errorf("stable stream failed to compile: %v", err)
	}
}
