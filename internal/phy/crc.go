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

// CRC polynomials from 3GPP TS 36.212 §5.1.1 (MSB-first, implicit top
// bit).
const (
	CRC24APoly = 0x864CFB // gCRC24A: transport-block CRC
	CRC24BPoly = 0x800063 // gCRC24B: code-block CRC
	CRC16Poly  = 0x1021   // gCRC16
	CRC8Poly   = 0x9B     // gCRC8
)

// crcBits computes an n-bit CRC over a bit slice (values 0/1) with the
// given polynomial (implicit leading 1), zero initial state.
func crcBits(bits []byte, poly uint32, n int) uint32 {
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

// CRC24A returns the 24-bit transport-block CRC of bits.
func CRC24A(bits []byte) uint32 { return crcBits(bits, CRC24APoly, 24) }

// CRC24B returns the 24-bit code-block CRC of bits.
func CRC24B(bits []byte) uint32 { return crcBits(bits, CRC24BPoly, 24) }

// CRC16 returns the 16-bit CRC of bits.
func CRC16(bits []byte) uint32 { return crcBits(bits, CRC16Poly, 16) }

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
