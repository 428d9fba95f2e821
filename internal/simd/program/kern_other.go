//go:build !amd64

package program

// No native kernel on this architecture: finalize lowers nothing, Run
// always takes the Go bodies and this is never called.

const nativeAvailable = false

func runStreamAVX512(code *uint32, pc int, arena, regs *int16, gat, gatAnd *[regStride]uint16, pats *[regStride]int16, mask uint64) int {
	panic("program: no native kernel")
}
