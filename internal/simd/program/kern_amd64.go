package program

// Declarations of kern_amd64.s.

// runStreamAVX512 executes the descriptor stream at code from word pc up
// to the next stop record and returns that record's index. Every operand
// in the stream was bounds-checked by the Emitter against the memory the
// base pointers address; mask is laneMask(L).
//
//go:noescape
func runStreamAVX512(code *uint32, pc int, arena, regs *int16, gat, gatAnd *[regStride]uint16, pats *[regStride]int16, mask uint64) int

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
