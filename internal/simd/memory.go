package simd

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Memory is the flat byte-addressable memory the emulated instructions
// load from and store to. Addresses are plain offsets into the backing
// slice; the cache simulator in internal/cache interprets the same
// addresses when replaying the trace.
type Memory struct {
	data []byte
	// next is the bump-allocation cursor used by Alloc.
	next int64
}

// lineBytes is the cache line, and the register width of W512.
const lineBytes = 64

// NewMemory creates a memory of the given size in bytes. Its address 0 is
// the start of a cache line, so an address that is a multiple of 64 is one
// in host memory too, and a 64-byte access there touches one line.
func NewMemory(size int) *Memory {
	data := make([]byte, size)
	if at := uintptr(unsafe.Pointer(unsafe.SliceData(data))) % lineBytes; at != 0 {
		data = make([]byte, size+lineBytes)
		at = uintptr(unsafe.Pointer(unsafe.SliceData(data))) % lineBytes
		data = data[(lineBytes-at)%lineBytes:][:size:size]
	}
	return &Memory{data: data}
}

// Size returns the memory capacity in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Alloc reserves n bytes aligned to align and returns the base address.
// It panics if the memory is exhausted: workloads size their memories up
// front and exhaustion is a programming error, not a runtime condition.
func (m *Memory) Alloc(n int, align int) int64 {
	if align <= 0 {
		align = 1
	}
	base := (m.next + int64(align) - 1) / int64(align) * int64(align)
	if base+int64(n) > int64(len(m.data)) {
		panic(fmt.Sprintf("simd: memory exhausted: need %d bytes at %d, have %d", n, base, len(m.data)))
	}
	m.next = base + int64(n)
	return base
}

// Bytes returns the n bytes starting at addr.
func (m *Memory) Bytes(addr int64, n int) []byte { return m.data[addr : addr+int64(n)] }

// ReadI16 reads a signed 16-bit little-endian value.
func (m *Memory) ReadI16(addr int64) int16 {
	return int16(binary.LittleEndian.Uint16(m.data[addr:]))
}

// WriteI16 writes a signed 16-bit little-endian value.
func (m *Memory) WriteI16(addr int64, x int16) {
	binary.LittleEndian.PutUint16(m.data[addr:], uint16(x))
}

// ReadI16s reads n consecutive int16 values starting at addr.
func (m *Memory) ReadI16s(addr int64, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = m.ReadI16(addr + int64(2*i))
	}
	return out
}
