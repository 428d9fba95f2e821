package program

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"vransim/internal/simd"
)

// This file is the wire format for compiled programs, used by the
// offline auto-tuner's persistent plan cache (internal/tune): a tuned
// serving process deserializes the winning plan instead of re-recording,
// re-fusing and re-searching. The bytes are only trusted after
// finalize's validation — every mop is walked with visitEffects and its
// register and memory footprint bounds-checked against the register
// file and the arena size the plan will run over, so a stale or corrupt
// cache entry is rejected instead of replaying into the wrong addresses.
// What Run needs beyond these fields (gather tables, live masks) is
// derived on load, not stored.

// WireVersion is the serialization format version. It participates in
// the tuner's cache hash, so bumping it (for any change to the mop
// vocabulary, aux layouts or this encoding) invalidates every persisted
// plan at once.
const WireVersion = 1

type wireMop struct {
	K       uint8
	D, A, B int32
	Addr    int64
	Addr2   int64
	Imm     int64
	Tab, N  int32
}

type wireProgram struct {
	Version  int
	Width    int
	NReg     int
	Segs     [2][]wireMop
	IdxTabs  [][]int32
	LanePats [][]int16
	Aux32    []int32
	Aux      []int64
	RawOps   [2]int
	FusedOps [2]int
	Sched    SchedInfo
}

// MarshalBinary encodes the program for the plan cache.
func (p *Program) MarshalBinary() ([]byte, error) {
	wp := wireProgram{
		Version:  WireVersion,
		Width:    int(p.w),
		NReg:     len(p.regs) / regStride,
		IdxTabs:  p.idxTabs,
		LanePats: p.lanePats,
		Aux32:    p.aux32,
		Aux:      p.aux,
		RawOps:   p.RawOps,
		FusedOps: p.FusedOps,
		Sched:    p.sched,
	}
	for seg := range p.segs {
		ws := make([]wireMop, len(p.segs[seg]))
		for i, op := range p.segs[seg] {
			ws[i] = wireMop{
				K: op.kind, D: op.d, A: op.a, B: op.b,
				Addr: op.addr, Addr2: op.addr2, Imm: op.imm,
				Tab: op.tab, N: op.n,
			}
		}
		wp.Segs[seg] = ws
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxWireRegs bounds the register-file size a deserialized program may
// request, so corrupt bytes cannot demand an absurd allocation. Real
// decode programs use tens of registers.
const maxWireRegs = 1 << 16

// UnmarshalProgram decodes and validates a program serialized by
// MarshalBinary. memSize is the byte size of the arena the program will
// replay over (every memory access must fall inside it); pass 0 to skip
// the arena bound (structural validation still runs). The returned
// program has a fresh zeroed register file, exactly like a freshly
// compiled one.
func UnmarshalProgram(data []byte, memSize int64) (*Program, error) {
	var wp wireProgram
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wp); err != nil {
		return nil, fmt.Errorf("program: decode: %w", err)
	}
	if wp.Version != WireVersion {
		return nil, fmt.Errorf("program: wire version %d, want %d", wp.Version, WireVersion)
	}
	w := simd.Width(wp.Width)
	switch w {
	case simd.W128, simd.W256, simd.W512:
	default:
		return nil, fmt.Errorf("program: unknown width %d", wp.Width)
	}
	if wp.NReg < 1 || wp.NReg > maxWireRegs {
		return nil, fmt.Errorf("program: register count %d out of range", wp.NReg)
	}
	for i, tb := range wp.IdxTabs {
		if len(tb) > regStride {
			return nil, fmt.Errorf("program: index table %d has %d entries, max %d", i, len(tb), regStride)
		}
	}
	for i, pat := range wp.LanePats {
		if len(pat) > regStride {
			return nil, fmt.Errorf("program: lane pattern %d has %d lanes, max %d", i, len(pat), regStride)
		}
	}
	p := &Program{
		w:        w,
		lanes:    w.Lanes16(),
		regs:     make([]int16, wp.NReg*regStride),
		idxTabs:  wp.IdxTabs,
		lanePats: wp.LanePats,
		aux32:    wp.Aux32,
		aux:      wp.Aux,
		RawOps:   wp.RawOps,
		FusedOps: wp.FusedOps,
		sched:    wp.Sched,
	}
	for seg := range wp.Segs {
		mops := make([]mop, len(wp.Segs[seg]))
		for i, wm := range wp.Segs[seg] {
			mops[i] = mop{
				kind: wm.K, d: wm.D, a: wm.A, b: wm.B,
				addr: wm.Addr, addr2: wm.Addr2, imm: wm.Imm,
				tab: wm.Tab, n: wm.N,
			}
		}
		p.segs[seg] = mops
	}
	if err := p.finalize(memSize); err != nil {
		return nil, err
	}
	return p, nil
}
