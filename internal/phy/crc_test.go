package phy

import (
	"fmt"
	"math/rand"
	"testing"

	"vransim/internal/turbo"
)

// crcBitwise is the bit-at-a-time CRC the table step replaced, kept as its
// reference.
func crcBitwise(bits []byte, poly uint32, n int) uint32 {
	var reg uint32
	top := uint32(1) << (n - 1)
	mask := (uint32(1) << n) - 1
	for _, b := range bits {
		fb := (reg&top != 0) != (b != 0)
		reg = (reg << 1) & mask
		if fb {
			reg ^= poly
		}
	}
	return reg
}

// TestCRCTableMatchesBitwise: the table-driven CRC equals the bitwise one
// for every polynomial the package names and one it does not, at every
// LTE block size and at lengths that leave each tail of 0 to 7 bits, over
// 0/1 bits, CRC-suffixed strings (CRC zero) and arbitrary byte values
// (any non-zero byte is a 1).
func TestCRCTableMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lengths := append([]int{0, 1, 7, 8, 9, 15, 16, 17, 23, 63, 64, 65}, turbo.BlockSizes...)
	for _, tc := range []struct {
		poly uint32
		n    int
	}{{CRC24APoly, 24}, {CRC24BPoly, 24}, {CRC16Poly, 16}, {CRC8Poly, 8}, {0x5, 3}, {0x04C11DB7, 32}} {
		for _, l := range lengths {
			bits := randBits(rng, l)
			raw := make([]byte, l)
			rng.Read(raw)
			var ext []byte
			if l > 0 {
				ext = AppendCRC(bits[:l-1], tc.poly, tc.n)
			}
			for _, in := range [][]byte{bits, raw, ext} {
				if got, want := crcBits(in, tc.poly, tc.n), crcBitwise(in, tc.poly, tc.n); got != want {
					t.Fatalf("poly %#x/%d, %d bits: table CRC %#x, bitwise %#x", tc.poly, tc.n, len(in), got, want)
				}
			}
			if l > 0 && !CheckCRC(ext, tc.poly, tc.n) {
				t.Fatalf("poly %#x/%d, %d bits: a CRC-suffixed string fails its check", tc.poly, tc.n, len(ext))
			}
		}
	}
}

// BenchmarkCheckCRC is one CRC24B check of a code block that carries its
// CRC, the check a decoder runs on a block's decisions, by the table step
// CheckCRC takes and by the bitwise reference.
func BenchmarkCheckCRC(b *testing.B) {
	for _, k := range []int{40, 512, 6144} {
		blk := AppendCRC(randBits(rand.New(rand.NewSource(int64(k))), k-24), CRC24BPoly, 24)
		for _, impl := range []struct {
			name string
			crc  func([]byte, uint32, int) uint32
		}{{"table", crcBits}, {"bitwise", crcBitwise}} {
			b.Run(fmt.Sprintf("K%d/%s", k, impl.name), func(b *testing.B) {
				b.SetBytes(int64(k))
				for i := 0; i < b.N; i++ {
					if impl.crc(blk, CRC24BPoly, 24) != 0 {
						b.Fatal("a CRC-suffixed block fails its check")
					}
				}
			})
		}
	}
}
