// Package core implements the paper's primary contribution: the data
// arrangement process that converts the interleaved LLR stream
//
//	[S1₁ YP1₁ YP2₁ S1₂ YP1₂ YP2₂ …]   (one int16 per element)
//
// produced by rate de-matching into the three segregated, SIMD-aligned
// arrays (systematic, parity 1, parity 2) that the turbo decoder's
// gamma/alpha/beta/extrinsic kernels consume — in two ways:
//
//   - Extract: the original mechanism, built exclusively from SIMD data
//     movement instructions (pextrw, vextracti128, vextracti32x8). It
//     moves 16 bits per store µop, saturates the store ports, and leaves
//     the vector ALU ports idle.
//   - APCM (Arithmetic Ports Consciousness Mechanism): samples each
//     cluster with vpand masks, congregates them with vpor (work that
//     runs on the otherwise-idle vector ALU ports 0-2), aligns the
//     clusters with the rotate-mimic of the paper's Figure 12, and then
//     stores whole registers — one full-width store per cluster per
//     group.
//
// Both produce the same logical result; they differ in the µop stream
// they emit and therefore in every microarchitectural metric the paper
// reports (Figures 8b, 9, 13-16).
package core

import (
	"encoding/binary"
	"fmt"

	"vransim/internal/simd"
)

// Strategy enumerates the implemented arrangement mechanisms.
type Strategy int

const (
	// StrategyScalar is a plain scalar-instruction reference.
	StrategyScalar Strategy = iota
	// StrategyExtract is the original extract-based mechanism.
	StrategyExtract
	// StrategyAPCM is the paper's mechanism with the rotate-mimic.
	StrategyAPCM
	// StrategyAPCMShuffle is the ablation that restores natural lane
	// order with one extra shuffle per congregated register instead of
	// the rotate-mimic.
	StrategyAPCMShuffle
	// StrategyAPCMRotate is the ablation using an explicit lane-rotate
	// instruction (which x86 lacks; see Figure 12) instead of the
	// offset-read mimic.
	StrategyAPCMRotate
	// StrategyShuffle is the classic shuffle-based AoS->SoA
	// de-interleave (single-source permutes + OR merges).
	StrategyShuffle
)

// String names the strategy as the experiment tables do.
func (s Strategy) String() string {
	switch s {
	case StrategyScalar:
		return "scalar"
	case StrategyExtract:
		return "original"
	case StrategyAPCM:
		return "apcm"
	case StrategyAPCMShuffle:
		return "apcm+shuffle"
	case StrategyAPCMRotate:
		return "apcm+rotate"
	case StrategyShuffle:
		return "shuffle"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Dest carries the base addresses of the three segregated output arrays.
type Dest struct {
	S, P1, P2 int64
}

// Cluster identifies one of the three output arrays.
type Cluster int

// The three clusters of the decoder input.
const (
	ClusterS Cluster = iota
	ClusterP1
	ClusterP2
)

func (c Cluster) String() string {
	switch c {
	case ClusterS:
		return "systematic"
	case ClusterP1:
		return "yparity1"
	case ClusterP2:
		return "yparity2"
	}
	return "?"
}

// Base returns the cluster's base address within d.
func (d Dest) Base(c Cluster) int64 {
	switch c {
	case ClusterS:
		return d.S
	case ClusterP1:
		return d.P1
	case ClusterP2:
		return d.P2
	}
	panic("core: bad cluster")
}

// Arranger is one data arrangement mechanism.
type Arranger interface {
	// Name labels the mechanism in reports.
	Name() string
	// Strategy returns the mechanism's identity.
	Strategy() Strategy
	// Layout describes how Arrange lays elements out in the destination
	// arrays at register width w.
	Layout(w simd.Width) Layout
	// Arrange reads n interleaved (S, P1, P2) triples of int16 at src
	// and writes the three segregated arrays at dst, emitting its µop
	// stream into e's trace. n need not be a multiple of the SIMD group
	// size; the tail is handled with scalar element copies.
	Arrange(e *simd.Engine, src int64, dst Dest, n int)
}

// ByStrategy returns the Arranger implementing s.
func ByStrategy(s Strategy) Arranger {
	switch s {
	case StrategyScalar:
		return ScalarArranger{}
	case StrategyExtract:
		return ExtractArranger{}
	case StrategyAPCM:
		return APCMArranger{}
	case StrategyAPCMShuffle:
		return APCMArranger{NaturalOrder: true}
	case StrategyAPCMRotate:
		return APCMArranger{ExplicitRotate: true}
	case StrategyShuffle:
		return ShuffleArranger{}
	}
	panic("core: bad strategy")
}

// Layout describes where natural-order element j of each cluster lives in
// the destination arrays, so any consumer (or test) can read the result
// of any mechanism uniformly.
type Layout struct {
	// GroupLanes is the number of triples handled per SIMD group (the
	// 16-bit lane count of the register width).
	GroupLanes int
	// StrideLanes is the number of lanes each group block occupies in a
	// destination array (>= GroupLanes; APCM pads each block with two
	// lanes for the rotate-mimic's duplicated elements).
	StrideLanes int
	// Rot is the per-cluster read offset in lanes: a consumer reading
	// group g of cluster c as a vector starts at lane g*StrideLanes +
	// Rot[c] (the rotate-mimic of Figure 12).
	Rot [3]int
	// LanePos maps the natural within-group element index jj to the
	// lane (relative to the rotated read position) where it is stored.
	// Identity for natural-order mechanisms.
	LanePos []int
}

// ElementAddr returns the byte address of natural-order element j of
// cluster c in the array based at base.
func (l Layout) ElementAddr(base int64, c Cluster, j int) int64 {
	g, jj := j/l.GroupLanes, j%l.GroupLanes
	lane := l.LanePos[jj] + l.Rot[c]
	// The stored block is unrotated: positions wrap within the group.
	if lane >= l.GroupLanes {
		lane -= l.GroupLanes
	}
	return base + 2*int64(g*l.StrideLanes+lane)
}

// DstBytes returns how many bytes one destination array needs to hold n
// elements under this layout (including rotate-mimic padding).
func (l Layout) DstBytes(n int) int {
	groups := (n + l.GroupLanes - 1) / l.GroupLanes
	return 2 * (groups*l.StrideLanes + 2)
}

// ReadNatural gathers the n elements of cluster c back into natural
// order. It is a functional helper for tests and consumers; it performs
// no µop emission.
func (l Layout) ReadNatural(mem *simd.Memory, base int64, c Cluster, n int) []int16 {
	out := make([]int16, n)
	for j := range out {
		out[j] = mem.ReadI16(l.ElementAddr(base, c, j))
	}
	return out
}

// naturalPosByL caches the identity lane-position table per lane count.
// Built at init for every supported width and read-only afterwards, so
// concurrent Layout calls (one engine per worker goroutine) are safe.
var naturalPosByL = func() map[int][]int {
	m := make(map[int][]int, len(simd.Widths))
	for _, w := range simd.Widths {
		L := w.Lanes16()
		pos := make([]int, L)
		for i := range pos {
			pos[i] = i
		}
		m[L] = pos
	}
	return m
}()

// naturalPos returns the identity lane-position table for L lanes
// without allocating for the supported widths.
func naturalPos(L int) []int {
	if pos, ok := naturalPosByL[L]; ok {
		return pos
	}
	pos := make([]int, L)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// identityLayout is the natural contiguous layout for width w.
func identityLayout(w simd.Width) Layout {
	lanes := w.Lanes16()
	return Layout{GroupLanes: lanes, StrideLanes: lanes, LanePos: naturalPos(lanes)}
}

// WriteInterleaved stores the three equal-length cluster slices as one
// interleaved [S P1 P2 …] stream at base, returning the number of triples.
// It is a workload-construction helper and emits no µops.
func WriteInterleaved(mem *simd.Memory, base int64, s, p1, p2 []int16) int {
	if len(s) != len(p1) || len(s) != len(p2) {
		panic("core: cluster length mismatch")
	}
	for i := range s {
		mem.WriteI16(base+int64(6*i), s[i])
		mem.WriteI16(base+int64(6*i+2), p1[i])
		mem.WriteI16(base+int64(6*i+4), p2[i])
	}
	return len(s)
}

// InterleavedBytes is the size of an n-triple interleaved input stream.
func InterleavedBytes(n int) int { return 6 * n }

// WriteInterleavedPacked writes one block's triples into a cross-block
// SoA-packed interleaved stream: nb same-K blocks share one stream in
// which element i of block b sits at packed position i*nb+b, so element
// i of blocks 0..nb-1 are adjacent. One Arrange call over the packed
// stream (n = nb*K elements) then arranges every in-flight block at
// once — the packed layout is what lets the K-indexed decode phases
// (gamma, extrinsic finalize, interleave, hard decisions) run once per
// iteration for all blocks instead of once per block. Like
// WriteInterleaved this is input copy-in, not part of the measured
// arrangement mechanism, so it uses plain memory writes and emits no
// µops.
func WriteInterleavedPacked(mem *simd.Memory, base int64, b, nb int, s, p1, p2 []int16) int {
	if len(s) != len(p1) || len(s) != len(p2) {
		panic("core: cluster length mismatch")
	}
	if b < 0 || b >= nb {
		panic("core: block index outside the packed stream")
	}
	dst := mem.Bytes(base, InterleavedBytes(nb*len(s)))
	at := 6 * b
	for i := range s {
		o := dst[at : at+6 : at+6]
		binary.LittleEndian.PutUint32(o, uint32(uint16(s[i]))|uint32(uint16(p1[i]))<<16)
		binary.LittleEndian.PutUint16(o[4:], uint16(p2[i]))
		at += 6 * nb
	}
	return len(s)
}

// scalarTail copies triples [from, n) with plain scalar loads and stores,
// used by every SIMD mechanism for the non-multiple-of-group remainder.
func scalarTail(e *simd.Engine, src int64, dst Dest, lay Layout, from, n int) {
	for j := from; j < n; j++ {
		for c := ClusterS; c <= ClusterP2; c++ {
			sa := src + int64(6*j+2*int(c))
			da := lay.ElementAddr(dst.Base(c), c, j)
			e.CopyI16(da, sa)
		}
	}
}
