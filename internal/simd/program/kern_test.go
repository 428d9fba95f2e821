package program

import (
	"math/rand"
	"slices"
	"testing"

	"vransim/internal/simd"
)

// skipWithoutNative skips, with the reason, a test that needs the native
// kernels on a host that lacks them: never a silent pass.
func skipWithoutNative(t *testing.T) {
	if !nativeAvailable {
		t.Skip("no AVX-512BW on this host (or the OS does not save ZMM state): native kernels not exercised")
	}
}

// eachKernel runs f once on the Go bodies and once on the native kernels,
// restoring the selection afterwards. On a host without the native
// kernels that half is skipped, with the reason.
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

// opHarness builds one-op programs over a small arena for the native-vs-Go
// differential tests. Arena lines sit 192 bytes apart so every line has at
// least 64 canary bytes either side, and the arena ends exactly where the
// last line does: a kernel that touched a byte past an L-lane line would
// either trip a canary or need memory the arena does not have.
type opHarness struct {
	rng  *rand.Rand
	L    int
	p    *Program
	nreg int
	nlin int
}

func newOpHarness(w simd.Width, rng *rand.Rand) *opHarness {
	return &opHarness{rng: rng, L: w.Lanes16(), p: &Program{w: w, lanes: w.Lanes16()}}
}

func (h *opHarness) reg() int64 { h.nreg++; return int64(h.nreg-1) * regStride }

func (h *opHarness) lineAddr() int64 { h.nlin++; return 64 + int64(h.nlin-1)*192 }

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

// diff finalizes the one-op program, checks finalize made the op lean,
// runs it on identical random state under both kernels and compares the
// whole register file and arena, then checks the canaries directly: the
// 64 bytes either side of every output line and lanes >= L of the carried
// register must hold what they held before the native run.
func (h *opHarness) diff(t *testing.T, op mop, lean func(live uint64) bool, carried int64, outLines []int64, pinned bool) {
	t.Helper()
	p := h.p
	p.regs = make([]int16, h.nreg*regStride)
	p.segs[SegSteady] = []mop{op}
	if err := p.finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	ops := p.segs[SegSteady]
	if !lean(ops[0].live) {
		t.Fatalf("one-op program is not lean (live %#x): the native body would not run", ops[0].live)
	}
	regs0 := make([]int16, len(p.regs))
	mem0 := make([]int16, (64+int64(h.nlin-1)*192)/2+int64(h.L))
	h.fill(regs0, pinned)
	h.fill(mem0, pinned)
	if int64(len(mem0))*2 < p.extent {
		t.Fatalf("harness arena of %d bytes below the program's extent %d", 2*len(mem0), p.extent)
	}

	run := func(on bool) (regs, mem []int16) {
		was := UseNativeKernel(on)
		defer UseNativeKernel(was)
		regs, mem = slices.Clone(regs0), slices.Clone(mem0)
		p.regs = regs
		p.exec(mem, ops)
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
	for _, a := range outLines {
		lo, hi := int(a/2), int(a/2)+h.L
		for i := max(lo-32, 0); i < min(hi+32, len(gotM)); i++ {
			if (i < lo || i >= hi) && gotM[i] != mem0[i] {
				t.Fatalf("canary at byte %d beside the output line at %d overwritten", 2*i, a)
			}
		}
	}
	if carried >= 0 {
		for i := h.L; i < regStride; i++ {
			if gotR[int(carried)+i] != regs0[int(carried)+i] {
				t.Fatalf("carried register lane %d (>= L = %d) overwritten", i, h.L)
			}
		}
	}
}

const diffTrials = 60

func TestNativeAlphaStepMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < diffTrials; trial++ {
			h := newOpHarness(w, rng)
			var aux []int64
			for i := 0; i < 9; i++ {
				aux = append(aux, h.reg())
			}
			q, out := h.lineAddr(), h.lineAddr()
			aux = append(aux, q, out, h.tab(), h.tab(), h.tab(), h.tab(), h.tab())
			h.p.aux = aux
			h.diff(t, mop{kind: mAlphaStepP}, func(live uint64) bool { return live&0xff == 0 },
				aux[8], []int64{out}, trial%4 == 1)
		}
	}
}

func TestNativeBetaStepMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		for trial := 0; trial < diffTrials; trial++ {
			h := newOpHarness(w, rng)
			var aux []int64
			for i := 0; i < 9; i++ {
				aux = append(aux, h.reg())
			}
			aux = append(aux, h.lineAddr(), h.tab(), h.tab(), h.tab(), h.tab(), h.tab())
			op := mop{kind: mBetaStepP}
			var outs []int64
			if trial%3 != 0 {
				// In-block form: n extracted lanes at arbitrary positions,
				// including lanes >= L, stored to arbitrary words of one
				// line-sized region.
				for i := 0; i < 7; i++ {
					aux = append(aux, h.reg())
				}
				aux = append(aux, h.lineAddr(), h.tab(), h.tab(), h.tab())
				ext := h.lineAddr()
				outs = []int64{ext}
				op.imm, op.n = 1, int32(1+rng.Intn(h.L))
				for i := int32(0); i < op.n; i++ {
					aux = append(aux, ext+int64(2*rng.Intn(h.L)), int64(rng.Intn(regStride)))
				}
			}
			h.p.aux = aux
			h.diff(t, op, func(live uint64) bool { return live&^(1<<7) == 0 }, aux[7], outs, trial%4 == 1)
		}
	}
}

func TestNativeQuadScatterMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 2))
		// One past maxQuadSrcs runs the Go body under both settings.
		for ns := 2; ns <= maxQuadSrcs+1; ns++ {
			for trial := 0; trial < diffTrials/4; trial++ {
				h := newOpHarness(w, rng)
				dst := h.lineAddr()
				aux := []int64{h.reg(), h.reg(), dst}
				for s := 0; s < ns; s++ {
					aux = append(aux, h.reg(), h.tab())
				}
				h.p.aux = aux
				h.diff(t, mop{kind: mQuadScatter, n: int32(ns)}, func(live uint64) bool { return live == 0 },
					-1, []int64{dst}, trial%4 == 1)
			}
		}
	}
}

func TestNativeQuadGatherMatchesGo(t *testing.T) {
	skipWithoutNative(t)
	for _, w := range simd.Widths {
		rng := rand.New(rand.NewSource(int64(w) + 3))
		for ns := 1; ns <= maxQuadSrcs+1; ns++ {
			for trial := 0; trial < diffTrials/4; trial++ {
				h := newOpHarness(w, rng)
				dst := h.lineAddr()
				aux := []int64{h.reg(), h.reg(), h.reg(), dst}
				for s := 0; s < ns; s++ {
					src := h.lineAddr()
					if trial%5 == 4 && s == ns-1 {
						// A loaded program may gather from the line it
						// stores to; every load still precedes the store.
						src = dst
					}
					aux = append(aux, src, h.tab())
				}
				h.p.aux = aux
				h.diff(t, mop{kind: mQuadGather, n: int32(ns)}, func(live uint64) bool { return live == 0 },
					-1, []int64{dst}, trial%4 == 1)
			}
		}
	}
}

// TestRunRefusesShortArena: a compiled program is finalized without an
// arena size, so Run checks the arena it is handed against the extent the
// program touches — before any op, under either kernel.
func TestRunRefusesShortArena(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, w := range simd.Widths {
			p, _, _ := recordAndCompile(t, w, 1<<14, 4)
			if p.extent <= 0 || p.extent > 1<<14 {
				t.Fatalf("%v: extent %d outside the recording arena", w, p.extent)
			}
			p.Run(simd.NewMemory(int(p.extent)), SegFirst) // exactly large enough
			short := simd.NewMemory(int(p.extent) - 2)
			before := slices.Clone(short.Bytes(0, short.Size()))
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: Run on an arena 2 bytes short of the extent did not panic", w)
					}
				}()
				p.Run(short, SegFirst)
			}()
			if !slices.Equal(before, short.Bytes(0, short.Size())) {
				t.Errorf("%v: the refused Run wrote to the arena", w)
			}
		}
	})
}

// TestKernelSelection: the selection is what the host reports and the
// seam can only turn the native kernels off, never on where they are
// missing.
func TestKernelSelection(t *testing.T) {
	if useNative != nativeAvailable {
		t.Fatalf("useNative = %v at start, host reports %v", useNative, nativeAvailable)
	}
	was := UseNativeKernel(false)
	defer UseNativeKernel(was)
	if Kernel() != "go" {
		t.Errorf("Kernel() = %q with the native kernels off", Kernel())
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
