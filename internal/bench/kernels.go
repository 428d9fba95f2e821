package bench

import (
	"vransim/internal/cache"
	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
	"vransim/internal/uarch"
)

// KernelKind identifies a microbenchmark instruction stream: the
// representative kernels of the paper's Figure 7 instruction-class
// characterization.
type KernelKind int

// The Figure 7 kernel set.
const (
	KernelPAdds KernelKind = iota
	KernelPSubs
	KernelPMax
	KernelPExtract
	KernelScalarOFDM
)

// String names the kernel the way the paper does.
func (k KernelKind) String() string {
	switch k {
	case KernelPAdds:
		return "_mm_adds"
	case KernelPSubs:
		return "_mm_subs"
	case KernelPMax:
		return "_mm_max"
	case KernelPExtract:
		return "_mm_extract"
	case KernelScalarOFDM:
		return "do_OFDM(scalar)"
	}
	return "?"
}

// lcg is a deterministic address scrambler for cache-pressure kernels.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 16
}

// BuildKernel emits a kernel trace of roughly n µop groups at width w,
// touching a working set of wsBytes with a pseudo-random blocked access
// pattern (prefetcher-resistant, so the cache capacity contrast between
// platforms shows, as in the paper's wimpy/beefy comparison).
func BuildKernel(kind KernelKind, w simd.Width, n int, wsBytes int) []trace.Inst {
	mem := simd.NewMemory(wsBytes + 4096)
	e := simd.NewEngine(w, mem, trace.NewRecorder(n*8))
	rng := lcg{s: uint64(kind)*977 + uint64(w)}
	addr := func() int64 {
		return int64(rng.next()%uint64(wsBytes-int(w))) &^ 1
	}
	a, b, c, d := e.NewVec(), e.NewVec(), e.NewVec(), e.NewVec()

	switch kind {
	case KernelPAdds, KernelPSubs:
		// The well-organized OAI pattern: load once, compute a batch of
		// independent operations in registers, store occasionally.
		// Vector-ALU-port bound near the port ceiling of 3 (the paper
		// measures 2.8/2.7).
		op := e.PAddSW
		if kind == KernelPSubs {
			op = e.PSubSW
		}
		bank := make([]*simd.Vec, 10)
		for j := range bank {
			bank[j] = e.NewVec()
		}
		for i := 0; i < n; i++ {
			// Two operand loads per batch: enough memory traffic that a
			// node whose caches can't hold the working set shows memory
			// bound, while the batch stays vector-ALU-port bound.
			e.LoadVec(a, addr())
			e.LoadVec(b, addr())
			for j := range bank {
				src := a
				if j%2 == 1 {
					src = b
				}
				op(bank[j], src, d)
			}
			if i%8 == 7 {
				e.StoreVec(addr(), bank[0])
				e.EmitBranch("jnz")
			}
		}
	case KernelPMax:
		// The decoding max has unavoidable data dependencies (the
		// running maximum threads through every group), capping IPC
		// below the other calculation instructions (the paper measures
		// ~2.2).
		m := e.NewVec()
		for i := 0; i < n; i++ {
			e.LoadVec(a, addr())
			// One running maximum updated four times in a row: a
			// 4-cycle serial floor per group.
			e.PMaxSW(m, m, a)
			e.PMaxSW(m, m, b)
			e.PMaxSW(m, m, c)
			e.PMaxSW(m, m, d)
			// Plus independent work that fills the other ports.
			e.PMaxSW(c, a, b)
			e.PMaxSW(d, a, b)
			e.PAddSW(b, a, a)
			e.PAddSW(c, a, a)
			if i%8 == 7 {
				e.StoreVec(addr(), m)
				e.EmitBranch("jnz")
			}
		}
	case KernelPExtract:
		// The data-movement pattern: one wide load, then 16-bit pextrw
		// stores of every lane — the arrangement's inner loop.
		lanes := w.Lanes16()
		for i := 0; i < n; i++ {
			base := addr()
			e.LoadVec(a, base)
			dst := addr()
			for l := 0; l < lanes && l < 8; l++ {
				e.PExtrWToMem(dst+int64(2*l), a, l)
			}
			e.EmitScalar("add", 1)
			if i%4 == 3 {
				e.EmitBranch("jnz")
			}
		}
	case KernelScalarOFDM:
		// Butterfly-like scalar FP stream: wide independent issue.
		for i := 0; i < n; i++ {
			e.EmitScalarLoad("mov", addr(), 8)
			e.EmitScalar("fmul", 3)
			e.EmitScalar("fadd", 3)
			e.EmitScalarStore("mov", addr(), 8)
			if i%8 == 7 {
				e.EmitBranch("jnz")
			}
		}
	}
	return e.Recorder().Insts()
}

// SimKernel runs a kernel on a platform with warm caches: a first pass
// primes the hierarchy, the measured pass reports steady-state behaviour
// (cold first-touch misses would otherwise dominate short kernels).
func SimKernel(insts []trace.Inst, p uarch.Platform) uarch.Result {
	sim := uarch.NewSimulator(p.Core, cache.NewHierarchy(p.Caches))
	sim.Run(insts)
	return sim.Run(insts)
}

// ArrangeWorkload builds an n-triple interleaved LLR stream and runs the
// given arrangement strategy over it, returning the trace.
func ArrangeWorkload(s core.Strategy, w simd.Width, n int) []trace.Inst {
	ar := core.ByStrategy(s)
	lay := ar.Layout(w)
	mem := simd.NewMemory(core.InterleavedBytes(n) + 3*lay.DstBytes(n) + 4096)
	e := simd.NewEngine(w, mem, trace.NewRecorder(n*8))
	src := mem.Alloc(core.InterleavedBytes(n), 64)
	sv := make([]int16, n)
	p1 := make([]int16, n)
	p2 := make([]int16, n)
	rng := lcg{s: uint64(n)}
	for i := 0; i < n; i++ {
		sv[i] = int16(rng.next())
		p1[i] = int16(rng.next())
		p2[i] = int16(rng.next())
	}
	core.WriteInterleaved(mem, src, sv, p1, p2)
	dst := core.Dest{
		S:  mem.Alloc(lay.DstBytes(n), 64),
		P1: mem.Alloc(lay.DstBytes(n), 64),
		P2: mem.Alloc(lay.DstBytes(n), 64),
	}
	ar.Arrange(e, src, dst, n)
	return e.Recorder().Insts()
}
