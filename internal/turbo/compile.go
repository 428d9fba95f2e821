package turbo

import (
	"time"

	"vransim/internal/simd/program"
)

// This file is the BatchDecoder side of the replay compiler: a
// (K, width, strategy)'s fused replay program is emitted from the plan
// once per process (emit.go, plancache.go) — for the paper's two
// arrangements, extract and APCM; a plan of any other strategy has no
// program, and a decoder that compiles refuses its batches with the
// cached error — and runCompiled drives that program
// through the same iteration/early-exit protocol as
// MultiSIMDDecoder.runPacked — producing bit-identical outputs without
// per-µop interpretation.
//
// The split of responsibilities mirrors what is and is not
// input-dependent in a decode:
//
//   - The op stream (instructions, region offsets, index tables) is a
//     pure function of (K, width, strategy, batch lanes) — compiled once
//     a process and replayed by every decoder over its own region.
//   - The input copy-in (WriteInterleavedPacked), the tail branch
//     metrics (values derived from the block's tail LLRs) and the
//     hard-decision bit scan are data-dependent *values* at fixed
//     offsets — the Go driver below performs them around each replay,
//     exactly as runPacked interleaves them with the engine ops.

// ProgramStats is a snapshot of one decoder's program counters. The
// process-wide truth about compilation is PlanCacheStats; these say what
// this decoder did with it.
type ProgramStats struct {
	// Compiles counts the programs this decoder installed: one for each
	// block size it adopted from the process-wide cache, and one more each
	// time an eviction made it install that size's program again.
	// CompileTime is what those programs cost to compile: each shared
	// program carries the duration of its one compile, and every install
	// of it adds that, so CompileTime / Compiles is the cost of compiling
	// one program whether this decoder's first decode was the one that
	// paid it or not.
	Compiles    uint64
	CompileTime time.Duration
	// CompiledPlans is the number of block sizes whose state is currently
	// driven by a replay program.
	CompiledPlans int
}

// ProgramStats reports the decoder's program counters.
func (bd *BatchDecoder) ProgramStats() ProgramStats {
	return ProgramStats{
		Compiles:      bd.compiles,
		CompileTime:   time.Duration(bd.compileNs),
		CompiledPlans: bd.compiledPlans,
	}
}

// PlanProgram returns the shared replay program block size k's state is
// currently driven by, or nil — introspection for tests.
func (bd *BatchDecoder) PlanProgram(k int) *program.Program {
	if p, ok := bd.plans[k]; ok && p.exec != nil {
		return p.shared.prog
	}
	return nil
}

// runCompiled is the replay driver: the same copy-in, tail-quad writes,
// iteration loop and per-block early-exit protocol as
// MultiSIMDDecoder.runPacked, with the prefix's engine work replaced by
// one Run of SegFirst and each iteration's by one Run of SegSteady, over
// the state's region. The returned slices alias
// p.pst.bits exactly like runPacked's.
func (bd *BatchDecoder) runCompiled(p *decodePlan, words []*LLRWord) ([][]byte, int, error) {
	st := p.pst
	requested := len(words)
	if err := st.loadWordsPacked(words); err != nil {
		return nil, 0, err
	}
	st.writeTailQuads()

	resetConv(st.conv, st.itersB, requested)
	prog := p.shared.prog
	prog.Run(p.exec, program.SegFirst)
	iters := 0
	for it := 0; it < bd.MaxIters; it++ {
		iters++
		prog.Run(p.exec, program.SegSteady)
		if st.extractPacked(bd.EarlyExit, it) {
			break
		}
	}
	stampIters(st.itersB, iters)
	return st.bits[:requested], iters, nil
}
