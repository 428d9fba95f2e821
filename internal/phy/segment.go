package phy

import (
	"fmt"

	"vransim/internal/turbo"
)

// maxCodeBlock is the largest turbo information block (36.212: Z = 6144).
const maxCodeBlock = 6144

// Segmentation describes how a CRC-attached transport block splits into
// turbo code blocks.
type Segmentation struct {
	// B is the input length (transport block + CRC24A).
	B int
	// C is the number of code blocks; each carries a CRC24B when C > 1.
	C int
	// K is the per-block information length (one size for all blocks;
	// the 36.212 two-size scheme is simplified to the single nearest
	// size, with filler bits up front — see DESIGN.md).
	K int
	// F is the number of filler bits prepended to the first block.
	F int
}

// Segment computes the segmentation of a B-bit CRC-attached transport
// block.
func Segment(b int) (Segmentation, error) {
	if b <= 0 {
		return Segmentation{}, fmt.Errorf("phy: empty transport block")
	}
	seg := Segmentation{B: b}
	if b <= maxCodeBlock {
		seg.C = 1
		seg.K = turbo.NearestBlockSize(b)
		seg.F = seg.K - b
		return seg, nil
	}
	// Per-block payload shrinks by the CRC24B overhead.
	l := 24
	seg.C = (b + maxCodeBlock - l - 1) / (maxCodeBlock - l)
	per := (b + seg.C*l + seg.C - 1) / seg.C
	seg.K = turbo.NearestBlockSize(per)
	seg.F = seg.C*seg.K - b - seg.C*l
	return seg, nil
}

// SegmentLaneFill segments like Segment but rounds the code-block count
// up to a multiple of laneBlocks, so a lane-parallel SIMD decoder
// (internal/turbo, BlocksPerRegister blocks a batch) fills every register
// lane group instead of idling lanes on the tail batch. Blocks are kept at
// or above the minimum turbo block size; when the transport block is too
// small to split that far, the standard segmentation is returned.
func SegmentLaneFill(b, laneBlocks int) (Segmentation, error) {
	seg, err := Segment(b)
	if err != nil || laneBlocks <= 1 || seg.C%laneBlocks == 0 {
		return seg, err
	}
	c := (seg.C + laneBlocks - 1) / laneBlocks * laneBlocks
	l := 24 // every block carries CRC24B once C > 1
	per := (b + c*l + c - 1) / c
	if per < turbo.BlockSizes[0] {
		return seg, nil // too small to split further
	}
	k := turbo.NearestBlockSize(per)
	return Segmentation{
		B: b,
		C: c,
		K: k,
		F: c*k - b - c*l,
	}, nil
}

// Split divides the CRC-attached transport block bits into C code blocks
// of K bits each, prepending F filler zeros to the first block and
// attaching CRC24B per block when C > 1.
func (s Segmentation) Split(bits []byte) ([][]byte, error) {
	if len(bits) != s.B {
		return nil, fmt.Errorf("phy: segmentation built for B=%d, got %d", s.B, len(bits))
	}
	payload := s.K
	if s.C > 1 {
		payload -= 24
	}
	padded := make([]byte, s.F, s.F+len(bits))
	padded = append(padded, bits...)
	blocks := make([][]byte, 0, s.C)
	for c := 0; c < s.C; c++ {
		blk := padded[c*payload : (c+1)*payload]
		if s.C > 1 {
			blocks = append(blocks, AppendCRC(blk, CRC24BPoly, 24))
		} else {
			blocks = append(blocks, append([]byte(nil), blk...))
		}
	}
	return blocks, nil
}

// Join reassembles decoded code blocks into the CRC-attached transport
// block, verifying per-block CRC24B when present. ok reports whether all
// block CRCs held.
func (s Segmentation) Join(blocks [][]byte) (bits []byte, ok bool, err error) {
	if len(blocks) != s.C {
		return nil, false, fmt.Errorf("phy: expected %d blocks, got %d", s.C, len(blocks))
	}
	ok = true
	var out []byte
	for _, blk := range blocks {
		if len(blk) != s.K {
			return nil, false, fmt.Errorf("phy: block length %d, want %d", len(blk), s.K)
		}
		if s.C > 1 {
			if !CheckCRC(blk, CRC24BPoly, 24) {
				ok = false
			}
			out = append(out, blk[:len(blk)-24]...)
		} else {
			out = append(out, blk...)
		}
	}
	return out[s.F:], ok, nil
}
