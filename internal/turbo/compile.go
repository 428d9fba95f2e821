package turbo

import (
	"errors"
	"time"

	"vransim/internal/simd/program"
)

// This file is the BatchDecoder side of the trace-replay compiler: the
// first interpreted decode of a (K, width, strategy) records the exact
// engine op stream, internal/simd/program compiles it into a fused
// replay program, and runCompiled drives that program through the same
// iteration/early-exit protocol as MultiSIMDDecoder.runPacked —
// producing bit-identical outputs without per-µop interpretation.
//
// The split of responsibilities mirrors what is and is not
// input-dependent in a decode:
//
//   - The op stream (instructions, arena addresses, index tables) is a
//     pure function of (K, width, strategy, batch lanes) — compiled once
//     and replayed.
//   - The input copy-in (WriteInterleavedPacked), the tail branch
//     metrics (values derived from the block's tail LLRs) and the
//     hard-decision bit scan are data-dependent *values* at fixed
//     addresses — the Go driver below performs them around each replay,
//     exactly as runPacked interleaves them with the engine ops.

// ProgramStats is a snapshot of the decoder's program-cache counters.
type ProgramStats struct {
	// Hits counts Decodes served by compiled replay; Misses counts
	// Decodes served by the interpreter while compilation was enabled
	// (the recording decode itself, and plans that failed to compile).
	Hits, Misses uint64
	// Compiles counts successful program compilations; CompileTime is
	// their cumulative wall-clock cost.
	Compiles    uint64
	CompileTime time.Duration
	// CompiledPlans is the number of cached plans currently holding a
	// replay program.
	CompiledPlans int
}

// ProgramStats reports the compiled-program cache counters.
func (bd *BatchDecoder) ProgramStats() ProgramStats {
	return ProgramStats{
		Hits:          bd.progHits,
		Misses:        bd.progMisses,
		Compiles:      bd.compiles,
		CompileTime:   time.Duration(bd.compileNs),
		CompiledPlans: bd.compiledPlans,
	}
}

// PlanProgram returns the compiled replay program cached for block size
// k, or nil — introspection for tests.
func (bd *BatchDecoder) PlanProgram(k int) *program.Program {
	if p, ok := bd.plans[k]; ok {
		return p.prog
	}
	return nil
}

// recordAndCompile runs one interpreted decode with the semantic
// recorder attached and compiles the recorded stream into p's replay
// program. The decode's results are returned either way. A failure no
// retry can cure (unstable stream, unsupported op, CompileGate veto)
// latches noCompile and the plan stays interpreted; a recording that ran
// too few iterations does not, so the next decode records again.
// Per-block early exit freezes blocks only in the Go-side extraction,
// so the op stream stays identical across iterations and the builder's
// stability check holds no matter when individual blocks converge.
func (bd *BatchDecoder) recordAndCompile(p *decodePlan, words []*LLRWord) ([][]byte, int, error) {
	b := program.NewBuilder()
	bd.eng.SetProgSink(b)
	bits, iters, err := p.dec.runPacked(p.pst, words)
	bd.eng.SetProgSink(nil)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	prog, cerr := b.Compile(bd.eng.W)
	elapsed := time.Since(start)
	if cerr != nil {
		p.noCompile = !errors.Is(cerr, program.ErrTooFewIterations)
		return bits, iters, nil
	}
	if bd.CompileGate != nil && !bd.CompileGate(p.code.K) {
		// Rejected post-compilation: indistinguishable from a verify
		// failure downstream — the plan latches onto the interpreter.
		p.noCompile = true
		return bits, iters, nil
	}
	p.prog = prog
	bd.compiledPlans++
	bd.compiles++
	bd.compileNs += elapsed.Nanoseconds()
	if bd.OnCompile != nil {
		bd.OnCompile(p.code.K, elapsed)
	}
	return bits, iters, nil
}

// runCompiled is the replay driver: the same copy-in, tail-quad writes,
// iteration loop and per-block early-exit protocol as
// MultiSIMDDecoder.runPacked, with each iteration's engine work replaced
// by one Program.Run over the arena. The returned slices alias
// p.pst.bits exactly like runPacked's.
func (bd *BatchDecoder) runCompiled(p *decodePlan, words []*LLRWord) ([][]byte, int, error) {
	st := p.pst
	d := p.dec
	requested := len(words)
	if err := st.loadWordsPacked(words); err != nil {
		return nil, 0, err
	}
	st.writeTailQuads()

	resetConv(st.conv, st.itersB, requested)
	iters := 0
	for it := 0; it < d.MaxIters; it++ {
		iters++
		seg := program.SegSteady
		if it == 0 {
			seg = program.SegFirst
		}
		p.prog.Run(bd.eng.Mem, seg)
		if st.extractPacked(d.EarlyExit, it) {
			break
		}
	}
	stampIters(st.itersB, iters)
	return st.bits[:requested], iters, nil
}
