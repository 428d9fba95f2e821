package simd

import (
	"vransim/internal/trace"
)

// Engine executes emulated SIMD and scalar instructions against a Memory
// and records the resulting µop stream. An Engine is configured with a
// register Width; the same kernel source runs unchanged at W128, W256 or
// W512, exactly as intrinsics code recompiled for wider registers.
//
// The Engine is the interpreter: every op executes on Go values, lane by
// lane, and is traced for the timing model. It is the reference the
// compiled replay programs of internal/simd/program are held to; they are
// written from a description of the decode, each program.Emitter method
// writing the record of the engine sequence it names (AlphaSweep a whole
// alpha recursion), never from a run of the Engine.
//
// The zero Engine is not usable; construct one with NewEngine.
type Engine struct {
	W   Width
	Mem *Memory

	rec *trace.Recorder

	// lastStoreByLine maps a 64-byte-line-granular address to the trace
	// index of the last store touching that line, so loads pick up a
	// store->load dependency (the rotate-mimic in APCM reads back data
	// it just stored, and that serialization must be visible to the
	// timing model).
	lastStoreByLine map[int64]int32

	// freeVecs is the register free-list behind AcquireVec/ReleaseVec:
	// kernels that run per batch on a long-lived engine recycle their
	// scratch registers instead of growing the Go heap on every call.
	freeVecs []*Vec
	// permTmp is the lane staging buffer PermuteW uses so a permute is
	// not a heap allocation (32 lanes covers W512).
	permTmp [32]int16
	// rotIdx caches the rotate index tables RotateLanesLeft derives, per
	// (width, rotation) — they are pure functions of both.
	rotIdx map[int][]int
}

// maxFreeVecs bounds the register free-list: a misbehaving kernel that
// releases more registers than it ever re-acquires must not grow the
// list (and pin the heap) without bound. 64 registers is several times
// the deepest legitimate working set (betaExt holds 20 at once);
// releases beyond the cap are dropped and the registers left to the
// garbage collector.
const maxFreeVecs = 64

// NewEngine returns an Engine of width w over mem, recording into rec.
// rec may be nil for purely functional execution.
func NewEngine(w Width, mem *Memory, rec *trace.Recorder) *Engine {
	return &Engine{
		W:               w,
		Mem:             mem,
		rec:             rec,
		lastStoreByLine: make(map[int64]int32),
	}
}

// Recorder returns the engine's trace recorder (possibly nil).
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// TraceLen reports the number of µops emitted so far.
func (e *Engine) TraceLen() int {
	if e.rec == nil {
		return 0
	}
	return e.rec.Len()
}

// NewVec allocates a fresh zeroed register.
func (e *Engine) NewVec() *Vec {
	v := &Vec{}
	v.writer = trace.NoDep
	return v
}

// AcquireVec returns a zeroed register from the engine's free-list,
// falling back to a fresh allocation when the list is empty. Paired with
// ReleaseVec it lets a kernel that runs once per batch on a long-lived
// engine reach a steady state where no register is heap-allocated. The
// returned register is indistinguishable from a NewVec one (cleared
// lanes, no trace dependency).
func (e *Engine) AcquireVec() *Vec {
	if n := len(e.freeVecs); n > 0 {
		v := e.freeVecs[n-1]
		e.freeVecs[n-1] = nil
		e.freeVecs = e.freeVecs[:n-1]
		v.Clear()
		return v
	}
	return e.NewVec()
}

// ReleaseVec returns registers to the free-list for reuse by a later
// AcquireVec. Callers must not touch a register after releasing it.
// The list is bounded at maxFreeVecs; further releases are dropped.
func (e *Engine) ReleaseVec(vs ...*Vec) {
	for _, v := range vs {
		if len(e.freeVecs) >= maxFreeVecs {
			return
		}
		e.freeVecs = append(e.freeVecs, v)
	}
}

// FreeVecs reports the current free-list depth (observability for tests).
func (e *Engine) FreeVecs() int { return len(e.freeVecs) }

// emit records a µop and returns its trace index (or -1 when tracing is
// disabled).
func (e *Engine) emit(in trace.Inst) int32 {
	if e.rec == nil {
		return trace.NoDep
	}
	return int32(e.rec.Emit(in))
}

func dep(v *Vec) int {
	if v == nil {
		return int(trace.NoDep)
	}
	return int(v.writer)
}

// ---- vector arithmetic (VecALU class: ports 0-2 in the paper's model) ----

// lanewise applies f to each active 16-bit lane of a and b into dst and
// emits one VecALU µop.
func (e *Engine) lanewise(mnem string, dst, a, b *Vec, f func(x, y int16) int16) {
	n := e.W.Lanes16()
	for i := 0; i < n; i++ {
		dst.SetLane16(i, f(a.Lane16(i), b.Lane16(i)))
	}
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecALU,
		Mnemonic: mnem,
		Deps:     trace.Deps3(dep(a), dep(b)),
	})
}

// PAddSW is saturated signed 16-bit addition (_mm_adds_epi16).
func (e *Engine) PAddSW(dst, a, b *Vec) { e.lanewise("padds", dst, a, b, satAddI16) }

// PSubSW is saturated signed 16-bit subtraction (_mm_subs_epi16).
func (e *Engine) PSubSW(dst, a, b *Vec) { e.lanewise("psubs", dst, a, b, satSubI16) }

// PMaxSW is the signed 16-bit lane maximum (_mm_max_epi16).
func (e *Engine) PMaxSW(dst, a, b *Vec) { e.lanewise("pmax", dst, a, b, maxI16) }

// PMinSW is the signed 16-bit lane minimum (_mm_min_epi16).
func (e *Engine) PMinSW(dst, a, b *Vec) { e.lanewise("pmin", dst, a, b, minI16) }

// bytewise applies f to each active byte of a and b into dst.
func (e *Engine) bytewise(mnem string, dst, a, b *Vec, f func(x, y byte) byte) {
	n := int(e.W)
	for i := 0; i < n; i++ {
		dst.b[i] = f(a.b[i], b.b[i])
	}
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecALU,
		Mnemonic: mnem,
		Deps:     trace.Deps3(dep(a), dep(b)),
	})
}

// PAnd is the bitwise AND (vpand / vpandd for zmm).
func (e *Engine) PAnd(dst, a, b *Vec) {
	mnem := "vpand"
	if e.W == W512 {
		mnem = "vpandd"
	}
	e.bytewise(mnem, dst, a, b, func(x, y byte) byte { return x & y })
}

// POr is the bitwise OR (vpor / vpord for zmm).
func (e *Engine) POr(dst, a, b *Vec) {
	mnem := "vpor"
	if e.W == W512 {
		mnem = "vpord"
	}
	e.bytewise(mnem, dst, a, b, func(x, y byte) byte { return x | y })
}

// PXor is the bitwise XOR (vpxor).
func (e *Engine) PXor(dst, a, b *Vec) {
	e.bytewise("vpxor", dst, a, b, func(x, y byte) byte { return x ^ y })
}

// PSraW shifts every active 16-bit lane of a right arithmetically by imm
// bits (psraw with an immediate).
func (e *Engine) PSraW(dst, a *Vec, imm uint) {
	n := e.W.Lanes16()
	for i := 0; i < n; i++ {
		dst.SetLane16(i, a.Lane16(i)>>imm)
	}
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecALU,
		Mnemonic: "psraw",
		Deps:     trace.Deps3(dep(a)),
	})
}

// Broadcast16 fills every active lane of dst with x (vpbroadcastw). The
// scalar source has no register dependency.
func (e *Engine) Broadcast16(dst *Vec, x int16) {
	n := e.W.Lanes16()
	for i := 0; i < n; i++ {
		dst.SetLane16(i, x)
	}
	dst.writer = e.emit(trace.Inst{Class: trace.VecALU, Mnemonic: "vpbroadcastw", Deps: trace.Deps3()})
}

// SetImm loads an immediate lane pattern into dst, modeling a constant
// load from the literal pool (one Load µop of the register width).
func (e *Engine) SetImm(dst *Vec, lanes []int16) {
	dst.Clear()
	dst.SetLanes16(lanes)
	dst.writer = e.emit(trace.Inst{
		Class:    trace.Load,
		Mnemonic: "vmovdqa.const",
		Bytes:    int32(e.W),
		Deps:     trace.Deps3(),
	})
}

// ---- shuffles / permutes (VecShuffle class) ----

// PermuteW permutes 16-bit lanes of a into dst using the compile-time
// index vector idx (vpermw-style; idx[i] selects the source lane for
// destination lane i). Out-of-range indices select zero.
func (e *Engine) PermuteW(dst, a *Vec, idx []int) {
	n := e.W.Lanes16()
	tmp := e.permTmp[:n]
	for i := range tmp {
		tmp[i] = 0
	}
	for i := 0; i < n && i < len(idx); i++ {
		if idx[i] >= 0 && idx[i] < n {
			tmp[i] = a.Lane16(idx[i])
		}
	}
	for i := 0; i < n; i++ {
		dst.SetLane16(i, tmp[i])
	}
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecShuffle,
		Mnemonic: "vpermw",
		Deps:     trace.Deps3(dep(a)),
	})
}

// RotateLanesLeft rotates the active 16-bit lanes of a left by k lanes
// into dst. No single x86 instruction provides this (the paper's Figure 12
// motivates the rotate-mimic); it is exposed for the explicit-rotate
// ablation and costs one shuffle µop.
func (e *Engine) RotateLanesLeft(dst, a *Vec, k int) {
	n := e.W.Lanes16()
	k = ((k % n) + n) % n
	idx, ok := e.rotIdx[k]
	if !ok {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = (i + k) % n
		}
		if e.rotIdx == nil {
			e.rotIdx = make(map[int][]int)
		}
		e.rotIdx[k] = idx
	}
	e.PermuteW(dst, a, idx)
	if e.rec != nil {
		// PermuteW already emitted; relabel for readability.
		insts := e.rec.Insts()
		insts[len(insts)-1].Mnemonic = "vprot.mimic"
	}
}

// VExtractI128 copies 128-bit half sel (0 or 1) of the 256-bit register a
// into the low half of dst, zeroing the rest (vextracti128). It is the
// extra movement step the original mechanism needs on ymm registers.
func (e *Engine) VExtractI128(dst, a *Vec, sel int) {
	var tmp [16]byte
	copy(tmp[:], a.b[16*sel:16*sel+16])
	dst.b = [64]byte{}
	copy(dst.b[:16], tmp[:])
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecShuffle,
		Mnemonic: "vextracti128",
		Deps:     trace.Deps3(dep(a)),
	})
}

// VExtractI32x8 copies 256-bit half sel (0 or 1) of the 512-bit register a
// into the low 256 bits of dst and zeroes the upper bits, matching the
// paper's description of 'vextracti32x8 $0/1': selecting the low half
// destroys the upper half of the destination, forcing a reload
// (vmovdqa64) before the upper half can be processed.
func (e *Engine) VExtractI32x8(dst, a *Vec, sel int) {
	var tmp [32]byte
	copy(tmp[:], a.b[32*sel:32*sel+32])
	dst.b = [64]byte{}
	copy(dst.b[:32], tmp[:])
	dst.writer = e.emit(trace.Inst{
		Class:    trace.VecShuffle,
		Mnemonic: "vextracti32x8",
		Deps:     trace.Deps3(dep(a)),
	})
}

// ---- memory operations (Load / Store classes: ports 4-5 / 6-7) ----

const lineShift = 6 // 64-byte cache lines for store->load dependencies

func (e *Engine) loadDeps(addr int64, n int) (int, int) {
	d1, d2 := int(trace.NoDep), int(trace.NoDep)
	if e.rec == nil {
		return d1, d2
	}
	first := addr >> lineShift
	last := (addr + int64(n) - 1) >> lineShift
	if idx, ok := e.lastStoreByLine[first]; ok {
		d1 = int(idx)
	}
	if last != first {
		if idx, ok := e.lastStoreByLine[last]; ok {
			d2 = int(idx)
		}
	}
	return d1, d2
}

func (e *Engine) noteStore(addr int64, n int, idx int32) {
	if e.rec == nil {
		return
	}
	for line := addr >> lineShift; line <= (addr+int64(n)-1)>>lineShift; line++ {
		e.lastStoreByLine[line] = idx
	}
}

// LoadVec loads a full active-width register from mem[addr]
// (vmovdqa/vmovdqa64). Unaligned access is permitted, as with vmovdqu.
func (e *Engine) LoadVec(dst *Vec, addr int64) {
	n := int(e.W)
	dst.b = [64]byte{}
	copy(dst.b[:n], e.Mem.data[addr:addr+int64(n)])
	d1, d2 := e.loadDeps(addr, n)
	dst.writer = e.emit(trace.Inst{
		Class:    trace.Load,
		Mnemonic: "vmovdqu",
		Bytes:    int32(n),
		Addr:     addr,
		Deps:     trace.Deps3(d1, d2),
	})
}

// StoreVec stores the full active width of src to mem[addr].
func (e *Engine) StoreVec(addr int64, src *Vec) {
	n := int(e.W)
	copy(e.Mem.data[addr:addr+int64(n)], src.b[:n])
	idx := e.emit(trace.Inst{
		Class:    trace.Store,
		Mnemonic: "vmovdqu",
		Bytes:    int32(n),
		Addr:     addr,
		Deps:     trace.Deps3(dep(src)),
	})
	e.noteStore(addr, n, idx)
}

// PExtrWToMem extracts 16-bit lane of src directly to memory (pextrw with
// a memory destination): the original data arrangement's workhorse. It
// moves only 2 bytes per µop and occupies a store port, which is exactly
// the inefficiency the paper characterizes.
func (e *Engine) PExtrWToMem(addr int64, src *Vec, lane int) {
	e.Mem.WriteI16(addr, src.Lane16(lane))
	idx := e.emit(trace.Inst{
		Class:    trace.Store,
		Mnemonic: "pextrw",
		Bytes:    2,
		Addr:     addr,
		Deps:     trace.Deps3(dep(src)),
	})
	e.noteStore(addr, 2, idx)
}

// ---- scalar and control-flow modeling ----

// EmitScalar emits n independent scalar ALU µops named mnem. Used by the
// scalar modules (OFDM, protocol bookkeeping) to expose their compute to
// the timing model.
func (e *Engine) EmitScalar(mnem string, n int) {
	for i := 0; i < n; i++ {
		e.emit(trace.Inst{Class: trace.ScalarALU, Mnemonic: mnem, Deps: trace.Deps3()})
	}
}

// EmitScalarLoad emits a scalar load of nbytes at addr.
func (e *Engine) EmitScalarLoad(mnem string, addr int64, nbytes int) {
	d1, d2 := e.loadDeps(addr, nbytes)
	e.emit(trace.Inst{
		Class:    trace.Load,
		Mnemonic: mnem,
		Bytes:    int32(nbytes),
		Addr:     addr,
		Deps:     trace.Deps3(d1, d2),
	})
}

// EmitScalarStore emits a scalar store of nbytes at addr.
func (e *Engine) EmitScalarStore(mnem string, addr int64, nbytes int) {
	idx := e.emit(trace.Inst{
		Class:    trace.Store,
		Mnemonic: mnem,
		Bytes:    int32(nbytes),
		Addr:     addr,
		Deps:     trace.Deps3(),
	})
	e.noteStore(addr, nbytes, idx)
}

// EmitBranch emits one branch µop.
func (e *Engine) EmitBranch(mnem string) {
	e.emit(trace.Inst{Class: trace.Branch, Mnemonic: mnem, Deps: trace.Deps3()})
}

// ---- scalar element helper ----

// CopyI16 copies the int16 at src to dst, emitting the scalar load+store
// µop pair the element-copy loops have always emitted.
func (e *Engine) CopyI16(dst, src int64) {
	e.Mem.WriteI16(dst, e.Mem.ReadI16(src))
	e.EmitScalarLoad("movzx", src, 2)
	e.EmitScalarStore("mov", dst, 2)
}
