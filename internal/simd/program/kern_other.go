//go:build !amd64

package program

// No native kernels on this architecture: Run always takes the Go bodies
// and these are never called.

const nativeAvailable = false

func alphaStepAVX512(q *int16, alpha *[regStride]int16, out *int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64) {
	panic("program: no native kernel")
}

func betaStepAVX512(q *int16, beta *[regStride]int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64, al *int16, h0, h1, h2 *[regStride]uint16, dv *[regStride]int16) {
	panic("program: no native kernel")
}

func quadMergeAVX512(dst *int16, srcs *[maxQuadSrcs]*int16, tabs *[maxQuadSrcs]*[regStride]uint16, ns int, mask uint64) {
	panic("program: no native kernel")
}
