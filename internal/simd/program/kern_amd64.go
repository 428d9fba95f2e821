package program

// Declarations of kern_amd64.s. Callers (kern.go) pass only pointers taken
// from bounds-checked expressions; mask is laneMask(L).

//go:noescape
func alphaStepAVX512(q *int16, alpha *[regStride]int16, out *int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64)

// al == nil selects the tail-step form (no posterior extraction); h0, h1,
// h2 and dv are then unused.
//
//go:noescape
func betaStepAVX512(q *int16, beta *[regStride]int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64, al *int16, h0, h1, h2 *[regStride]uint16, dv *[regStride]int16)

// dst = OR over s < ns of srcs[s] permuted by tabs[s]; ns >= 1.
//
//go:noescape
func quadMergeAVX512(dst *int16, srcs *[maxQuadSrcs]*int16, tabs *[maxQuadSrcs]*[regStride]uint16, ns int, mask uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// nativeAvailable: the CPU has AVX512F and AVX512BW, and the OS saves the
// SSE, AVX, opmask and both ZMM register states (XCR0 bits 1, 2, 5, 6, 7).
var nativeAvailable = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv0(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512bw = 1 << 16, 1 << 30
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512bw != 0
}()
