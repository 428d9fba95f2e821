//go:build !amd64

package program

// No native kernel on this architecture: every Exec runs its streams on
// the Go executor (runStreamGo) and this is never called.

const nativeAvailable = false

func runStreamAVX512(code *uint32, pc int, arena, regs *int16, gat, gatAnd *[regStride]uint16, pats *[regStride]int16, mask uint64) int {
	panic("program: no native kernel")
}
