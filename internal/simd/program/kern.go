package program

// Native kernels. The packed trellis ops are recordings of vpermw, vpaddsw,
// vpmaxsw and vpsubsw; on a CPU that has those instructions Run executes
// the lean form of the four hot ones (every intermediate register dead,
// which finalize's liveness pass proves for every step of a packed decode)
// as the instructions themselves, from kern_amd64.s. The Go bodies in
// run.go are the specification: they are the only path on other
// architectures and older CPUs, the only path for an op with a live
// intermediate, and what every native op is differentially tested against.
//
// What keeps the assembly as safe as the Go it replaces:
//
//   - Every pointer a kernel receives comes from a bounds-checked line()
//     or lanes() expression or a p.gat[id] index, over the full extent the
//     kernel touches, so a bad address panics in Go before assembly runs.
//   - Arena lines are read and written only under the L-lane mask: lanes
//     >= L of a register and bytes past an L-lane line are never written.
//   - Tables are the ones finalize built: every entry is a lane below L or
//     the sentinel, which VPERMI2W resolves to its zero second table just
//     as gatherSrc's upper half does.

// useNative selects the assembly kernels. It is set once, at init, from
// what the CPU and OS report (nativeAvailable); nothing a user passes
// changes it.
var useNative = nativeAvailable

// Kernel names the kernel Run executes the packed trellis ops with:
// "avx512bw" or "go".
func Kernel() string {
	if useNative {
		return "avx512bw"
	}
	return "go"
}

// UseNativeKernel is a test seam, for _test.go files and the decode bench
// only: it turns the native kernels off, or back on where the host has
// them, and reports the previous setting so the caller can restore it
// (t.Cleanup). It must not be called while any program is running.
func UseNativeKernel(on bool) (was bool) {
	was = useNative
	useNative = on && nativeAvailable
	return was
}

// maxQuadSrcs bounds the sources one native quad scatter/gather merges
// (the decoder emits four per scatter and up to eight per interleave
// gather); an op with more runs the Go body.
const maxQuadSrcs = 8

// laneMask is the k-mask of the L active lanes.
func laneMask(L int) uint64 { return 1<<uint(L) - 1 }

// alphaStepNative is the lean mAlphaStepP body.
func (p *Program) alphaStepNative(m, r []int16, t []int64, L int) {
	alphaStepAVX512(&line(m, t[9], L)[0], lanes(r, t[8]), &line(m, t[10], L)[0],
		&p.gat[t[11]], &p.gat[t[12]], &p.gat[t[13]], &p.gat[t[14]], &p.gat[t[15]], laneMask(L))
}

// betaStepNative is the lean mBetaStepP body. The kernel returns the
// posterior difference vector; the scalar extraction stores stay in Go,
// after both line loads as in the Go body.
func (p *Program) betaStepNative(m, r []int16, op *mop, L int) {
	t := p.aux[op.tab:]
	q, beta := &line(m, t[9], L)[0], lanes(r, t[7])
	g0, g1, g2, g3, gn := &p.gat[t[10]], &p.gat[t[11]], &p.gat[t[12]], &p.gat[t[13]], &p.gat[t[14]]
	if op.imm == 0 {
		betaStepAVX512(q, beta, g0, g1, g2, g3, gn, laneMask(L), nil, nil, nil, nil, nil)
		return
	}
	var dv [regStride]int16
	betaStepAVX512(q, beta, g0, g1, g2, g3, gn, laneMask(L),
		&line(m, t[22], L)[0], &p.gat[t[23]], &p.gat[t[24]], &p.gat[t[25]], &dv)
	et := t[26 : 26+2*op.n]
	for ; len(et) >= 2; et = et[2:] {
		m[et[0]>>1] = dv[et[1]&(regStride-1)]
	}
}

// quadScatterNative is the lean mQuadScatter body, for ns <= maxQuadSrcs.
func (p *Program) quadScatterNative(m, r []int16, t []int64, ns, L int) {
	var srcs [maxQuadSrcs]*int16
	var tabs [maxQuadSrcs]*[regStride]uint16
	for s := 0; s < ns; s++ {
		srcs[s], tabs[s] = &lanes(r, t[3+2*s])[0], &p.gat[t[4+2*s]]
	}
	quadMergeAVX512(&line(m, t[2], L)[0], &srcs, &tabs, ns, laneMask(L))
}

// quadGatherNative is the lean mQuadGather body, for ns <= maxQuadSrcs.
// The kernel loads every source line before it stores, as the Go body
// does.
func (p *Program) quadGatherNative(m []int16, t []int64, ns, L int) {
	var srcs [maxQuadSrcs]*int16
	var tabs [maxQuadSrcs]*[regStride]uint16
	for s := 0; s < ns; s++ {
		srcs[s], tabs[s] = &line(m, t[4+2*s], L)[0], &p.gat[t[5+2*s]]
	}
	quadMergeAVX512(&line(m, t[3], L)[0], &srcs, &tabs, ns, laneMask(L))
}
