// Package l2 implements the vRAN layer-2 stack the OAI testbed runs
// above the physical layer: PDCP (sequence numbering and header
// protection), RLC unacknowledged-mode segmentation/reassembly, and a
// MAC layer that sizes transport blocks, multiplexes logical channels
// and runs a round-robin scheduler with a HARQ-lite retransmission
// register. The paper's end-to-end latency figures (Figure 13) traverse
// this stack in both directions.
package l2

import (
	"encoding/binary"
	"fmt"

	"vransim/internal/simd"
)

// ---------------------------------------------------------------- PDCP

// PDCPHeaderLen is the octet length of the PDCP header used here: one
// flag octet plus a 16-bit sequence number plus a 16-bit checksum.
const PDCPHeaderLen = 5

// PDCP applies sequence numbering and a header checksum to IP packets
// (integrity protection stands in for ciphering; see DESIGN.md).
type PDCP struct {
	txSN uint16
	rxSN uint16
	// Eng, when set, receives a small scalar µop stream per PDU.
	Eng *simd.Engine
}

// pdcpChecksum is a 16-bit ones'-complement-style sum over the payload.
func pdcpChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(^sum)
}

// Encapsulate prepends a PDCP header to an SDU.
func (p *PDCP) Encapsulate(sdu []byte) []byte {
	pdu := make([]byte, PDCPHeaderLen+len(sdu))
	pdu[0] = 0x80 // data PDU
	binary.BigEndian.PutUint16(pdu[1:], p.txSN)
	binary.BigEndian.PutUint16(pdu[3:], pdcpChecksum(sdu))
	copy(pdu[PDCPHeaderLen:], sdu)
	p.txSN++
	p.emit(len(sdu))
	return pdu
}

// Decapsulate strips and verifies the PDCP header, returning the SDU and
// the received sequence number.
func (p *PDCP) Decapsulate(pdu []byte) ([]byte, uint16, error) {
	if len(pdu) < PDCPHeaderLen {
		return nil, 0, fmt.Errorf("l2: PDCP PDU too short (%d)", len(pdu))
	}
	if pdu[0] != 0x80 {
		return nil, 0, fmt.Errorf("l2: not a PDCP data PDU")
	}
	sn := binary.BigEndian.Uint16(pdu[1:])
	sdu := pdu[PDCPHeaderLen:]
	if pdcpChecksum(sdu) != binary.BigEndian.Uint16(pdu[3:]) {
		return nil, sn, fmt.Errorf("l2: PDCP checksum mismatch at SN %d", sn)
	}
	p.rxSN = sn
	p.emit(len(sdu))
	return sdu, sn, nil
}

func (p *PDCP) emit(n int) {
	if p.Eng == nil {
		return
	}
	words := n/8 + 2
	for i := 0; i < words; i++ {
		p.Eng.EmitScalarLoad("mov", int64(i*8), 8)
		p.Eng.EmitScalar("add", 1)
	}
	p.Eng.EmitScalarStore("mov", 0, 8)
}

// ----------------------------------------------------------------- RLC

// RLCHeaderLen is the octet length of the UM PDU header: a 16-bit SN,
// a 16-bit segment offset and a 16-bit flags/length field.
const RLCHeaderLen = 6

const (
	rlcFlagFirst = 0x8000
	rlcFlagLast  = 0x4000
)

// RLCSegment is one unacknowledged-mode PDU.
type RLCSegment struct {
	SN     uint16
	Offset uint16
	Flags  uint16
	Data   []byte
}

// RLC segments SDUs into PDUs of bounded size and reassembles them.
type RLC struct {
	// MaxPDU bounds the payload bytes per PDU (excluding header).
	MaxPDU int
	txSN   uint16

	pending map[uint16][]RLCSegment
}

// NewRLC builds an UM RLC entity with the given PDU payload bound.
func NewRLC(maxPDU int) *RLC {
	if maxPDU <= 0 {
		maxPDU = 1500
	}
	return &RLC{MaxPDU: maxPDU, pending: make(map[uint16][]RLCSegment)}
}

// Segment splits an SDU into PDUs sharing one sequence number.
func (r *RLC) Segment(sdu []byte) []RLCSegment {
	sn := r.txSN
	r.txSN++
	var segs []RLCSegment
	for off := 0; off < len(sdu) || off == 0; off += r.MaxPDU {
		end := off + r.MaxPDU
		if end > len(sdu) {
			end = len(sdu)
		}
		var flags uint16
		if off == 0 {
			flags |= rlcFlagFirst
		}
		if end == len(sdu) {
			flags |= rlcFlagLast
		}
		segs = append(segs, RLCSegment{
			SN: sn, Offset: uint16(off), Flags: flags,
			Data: append([]byte(nil), sdu[off:end]...),
		})
		if end == len(sdu) {
			break
		}
	}
	return segs
}

// Marshal serializes a PDU.
func (s RLCSegment) Marshal() []byte {
	out := make([]byte, RLCHeaderLen+len(s.Data))
	binary.BigEndian.PutUint16(out[0:], s.SN)
	binary.BigEndian.PutUint16(out[2:], s.Offset)
	binary.BigEndian.PutUint16(out[4:], s.Flags|uint16(len(s.Data))&0x3fff)
	copy(out[RLCHeaderLen:], s.Data)
	return out
}

// UnmarshalRLC parses a serialized PDU.
func UnmarshalRLC(b []byte) (RLCSegment, error) {
	if len(b) < RLCHeaderLen {
		return RLCSegment{}, fmt.Errorf("l2: RLC PDU too short")
	}
	fl := binary.BigEndian.Uint16(b[4:])
	n := int(fl & 0x3fff)
	if len(b) != RLCHeaderLen+n {
		return RLCSegment{}, fmt.Errorf("l2: RLC length field %d != payload %d", n, len(b)-RLCHeaderLen)
	}
	return RLCSegment{
		SN:     binary.BigEndian.Uint16(b[0:]),
		Offset: binary.BigEndian.Uint16(b[2:]),
		Flags:  fl & 0xc000,
		Data:   append([]byte(nil), b[RLCHeaderLen:]...),
	}, nil
}

// Deliver feeds a received PDU to the reassembler; when an SDU
// completes, it is returned (nil otherwise).
func (r *RLC) Deliver(seg RLCSegment) []byte {
	segs := append(r.pending[seg.SN], seg)
	r.pending[seg.SN] = segs
	// Complete when a Last segment is present and offsets tile the SDU.
	total := -1
	for _, s := range segs {
		if s.Flags&rlcFlagLast != 0 {
			total = int(s.Offset) + len(s.Data)
		}
	}
	if total < 0 {
		return nil
	}
	out := make([]byte, total)
	have := 0
	for _, s := range segs {
		copy(out[s.Offset:], s.Data)
		have += len(s.Data)
	}
	if have < total {
		return nil
	}
	delete(r.pending, seg.SN)
	return out
}

// ----------------------------------------------------------------- MAC

// MACHeaderLen is the octet length of the MAC subheader: LCID plus a
// 16-bit length.
const MACHeaderLen = 3

// TransportBlock is one MAC PDU handed to the PHY.
type TransportBlock struct {
	// Bits is the PDU as a bit slice (the PHY consumes bits).
	Bits []byte
	// Bytes is the octet length.
	Bytes int
	// HARQ is the process number the block was sent on.
	HARQ int
}

// MAC multiplexes RLC PDUs into transport blocks and tracks HARQ-lite
// state (retransmission counts per process).
type MAC struct {
	// TBSBytes is the transport block size the scheduler grants.
	TBSBytes int
	// Processes is the number of HARQ processes (LTE: 8).
	Processes int

	nextProc int
}

// NewMAC builds a MAC entity with the given grant size.
func NewMAC(tbsBytes int) *MAC {
	return &MAC{TBSBytes: tbsBytes, Processes: 8}
}

// BuildTB packs as many queued RLC PDUs as fit into one transport block,
// returning the block and the PDUs consumed. Padding fills the grant.
func (m *MAC) BuildTB(queue [][]byte) (TransportBlock, int) {
	tb := make([]byte, 0, m.TBSBytes)
	used := 0
	for _, pdu := range queue {
		need := MACHeaderLen + len(pdu)
		if len(tb)+need > m.TBSBytes {
			break
		}
		hdr := make([]byte, MACHeaderLen)
		hdr[0] = 0x01 // LCID: DTCH
		binary.BigEndian.PutUint16(hdr[1:], uint16(len(pdu)))
		tb = append(tb, hdr...)
		tb = append(tb, pdu...)
		used++
	}
	if len(tb) == 0 && len(queue) > 0 {
		// Grant too small for the head-of-line PDU: signal by
		// consuming nothing; caller must resegment.
		return TransportBlock{Bytes: 0}, 0
	}
	// Padding subheader (LCID 0x1f) fills the remainder implicitly.
	for len(tb) < m.TBSBytes {
		tb = append(tb, 0)
	}
	proc := m.nextProc
	m.nextProc = (m.nextProc + 1) % m.Processes
	return TransportBlock{Bits: BytesToBits(tb), Bytes: len(tb), HARQ: proc}, used
}

// ParseTB extracts the RLC PDUs from a received transport block.
func (m *MAC) ParseTB(tb TransportBlock) ([][]byte, error) {
	b := BitsToBytes(tb.Bits)
	var pdus [][]byte
	for off := 0; off+MACHeaderLen <= len(b); {
		if b[off] != 0x01 {
			break // padding reached
		}
		n := int(binary.BigEndian.Uint16(b[off+1:]))
		if off+MACHeaderLen+n > len(b) {
			return nil, fmt.Errorf("l2: MAC subheader length %d overruns TB", n)
		}
		pdus = append(pdus, b[off+MACHeaderLen:off+MACHeaderLen+n])
		off += MACHeaderLen + n
	}
	return pdus, nil
}

// ------------------------------------------------------------- helpers

// BytesToBits expands octets MSB-first into a 0/1 slice.
func BytesToBits(b []byte) []byte {
	out := make([]byte, 0, len(b)*8)
	for _, x := range b {
		for i := 7; i >= 0; i-- {
			out = append(out, x>>uint(i)&1)
		}
	}
	return out
}

// BitsToBytes packs a 0/1 slice MSB-first into octets; trailing bits
// short of an octet are dropped.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, len(bits)/8)
	for i := range out {
		var x byte
		for j := 0; j < 8; j++ {
			x = x<<1 | bits[i*8+j]&1
		}
		out[i] = x
	}
	return out
}

// Scheduler grants transport blocks round-robin across UEs.
type Scheduler struct {
	// UEs is the number of attached users.
	UEs int
	// TBSBytes is the per-TTI grant.
	TBSBytes int
	next     int
}

// NextGrant returns the UE index scheduled this TTI and its grant.
func (s *Scheduler) NextGrant() (ue, tbsBytes int) {
	if s.UEs == 0 {
		return -1, 0
	}
	ue = s.next
	s.next = (s.next + 1) % s.UEs
	return ue, s.TBSBytes
}
