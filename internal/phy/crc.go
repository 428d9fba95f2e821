// Package phy implements the LTE-shaped physical-layer substrate of the
// vRAN pipeline: CRC attachment, code-block segmentation, rate matching
// with the sub-block interleaver, Gold-sequence scrambling, QPSK/16QAM/
// 64QAM modulation with max-log soft demodulation, OFDM with cyclic
// prefix over a radix-2 FFT, an AWGN channel, and the DCI path's
// tail-biting convolutional code with a Viterbi decoder.
//
// Functions that burn CPU in the real pipeline accept an optional
// *simd.Engine and emit a representative µop stream so the timing
// simulator can attribute cycles per module (the basis of the paper's
// Figures 3-6).
package phy

import "encoding/binary"

// CRC polynomials from 3GPP TS 36.212 §5.1.1 (MSB-first, implicit top
// bit).
const (
	CRC24APoly = 0x864CFB // gCRC24A: transport-block CRC
	CRC24BPoly = 0x800063 // gCRC24B: code-block CRC
	CRC16Poly  = 0x1021   // gCRC16
	CRC8Poly   = 0x9B     // gCRC8
)

// crcTable is the byte step of an n-bit CRC with polynomial poly: the
// register is kept in the top n bits of a uint32, so one table of 256
// entries and one step serve every n from 1 to 32.
type crcTable struct {
	poly uint32
	n    int
	t    [256]uint32
}

func newCRCTable(poly uint32, n int) *crcTable {
	ct := &crcTable{poly: poly, n: n}
	top := poly << (32 - n)
	for i := range ct.t {
		reg := uint32(i) << 24
		for j := 0; j < 8; j++ {
			if reg&(1<<31) != 0 {
				reg = reg<<1 ^ top
			} else {
				reg <<= 1
			}
		}
		ct.t[i] = reg
	}
	return ct
}

// crcTables holds the tables of the standard polynomials, built once; any
// other polynomial builds its table per call.
var crcTables = []*crcTable{
	newCRCTable(CRC24BPoly, 24), newCRCTable(CRC24APoly, 24),
	newCRCTable(CRC16Poly, 16), newCRCTable(CRC8Poly, 8),
}

func crcTableFor(poly uint32, n int) *crcTable {
	for _, ct := range crcTables {
		if ct.poly == poly && ct.n == n {
			return ct
		}
	}
	return newCRCTable(poly, n)
}

// packBits folds bits[0:8], each zero or not, into one byte, bits[0] the
// most significant: the non-zero bytes become 1, and one multiply moves
// byte j's bit to bit 63−j, with no two products meeting and none
// carrying.
func packBits(bits []byte) byte {
	v := binary.LittleEndian.Uint64(bits)
	v = (v&0x7f7f7f7f7f7f7f7f + 0x7f7f7f7f7f7f7f7f | v) >> 7 & 0x0101010101010101
	return byte(v * 0x8040201008040201 >> 56)
}

// crcBits computes an n-bit CRC over a bit slice (a non-zero byte is a 1)
// with the given polynomial (its n low bits, implicit leading 1), zero
// initial state: one table step a byte of eight bits, then the tail of
// fewer than eight a bit at a time.
func crcBits(bits []byte, poly uint32, n int) uint32 {
	ct := crcTableFor(poly, n)
	var reg uint32
	for ; len(bits) >= 8; bits = bits[8:] {
		reg = reg<<8 ^ ct.t[byte(reg>>24)^packBits(bits)]
	}
	top := poly << (32 - n)
	for _, b := range bits {
		if b != 0 {
			reg ^= 1 << 31
		}
		if reg&(1<<31) != 0 {
			reg = reg<<1 ^ top
		} else {
			reg <<= 1
		}
	}
	return reg >> (32 - n)
}

// AppendCRC returns bits with the n-bit CRC for poly appended MSB first.
func AppendCRC(bits []byte, poly uint32, n int) []byte {
	c := crcBits(bits, poly, n)
	out := make([]byte, len(bits), len(bits)+n)
	copy(out, bits)
	for i := n - 1; i >= 0; i-- {
		out = append(out, byte((c>>uint(i))&1))
	}
	return out
}

// CheckCRC verifies a bit string that carries its n-bit CRC as a suffix.
// A CRC-extended message is valid iff the CRC over the whole string is
// zero.
func CheckCRC(bits []byte, poly uint32, n int) bool {
	if len(bits) < n {
		return false
	}
	return crcBits(bits, poly, n) == 0
}
