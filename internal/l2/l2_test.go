package l2

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPDCPRoundTrip(t *testing.T) {
	p := &PDCP{}
	sdu := []byte("hello vran world")
	pdu := p.Encapsulate(sdu)
	if len(pdu) != PDCPHeaderLen+len(sdu) {
		t.Fatalf("PDU length %d", len(pdu))
	}
	got, sn, err := (&PDCP{}).Decapsulate(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if sn != 0 || !bytes.Equal(got, sdu) {
		t.Error("PDCP roundtrip mismatch")
	}
	// Sequence numbers advance.
	pdu2 := p.Encapsulate(sdu)
	_, sn2, _ := (&PDCP{}).Decapsulate(pdu2)
	if sn2 != 1 {
		t.Errorf("second SN = %d, want 1", sn2)
	}
}

func TestPDCPDetectsCorruption(t *testing.T) {
	p := &PDCP{}
	pdu := p.Encapsulate([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	pdu[PDCPHeaderLen+3] ^= 0xff
	if _, _, err := (&PDCP{}).Decapsulate(pdu); err == nil {
		t.Error("corrupted payload accepted")
	}
	if _, _, err := (&PDCP{}).Decapsulate([]byte{1, 2}); err == nil {
		t.Error("short PDU accepted")
	}
}

func TestRLCSegmentationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tx := NewRLC(100)
	rx := NewRLC(100)
	for trial := 0; trial < 10; trial++ {
		sdu := make([]byte, rng.Intn(900)+1)
		rng.Read(sdu)
		segs := tx.Segment(sdu)
		var got []byte
		for i, s := range segs {
			// Serialize/deserialize each PDU on the way.
			parsed, err := UnmarshalRLC(s.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			out := rx.Deliver(parsed)
			if i < len(segs)-1 && out != nil {
				t.Fatal("SDU delivered before final segment")
			}
			if i == len(segs)-1 {
				got = out
			}
		}
		if !bytes.Equal(got, sdu) {
			t.Fatalf("trial %d: reassembly mismatch", trial)
		}
	}
}

func TestRLCOutOfOrderReassembly(t *testing.T) {
	tx := NewRLC(10)
	rx := NewRLC(10)
	sdu := []byte("0123456789abcdefghijklmnop")
	segs := tx.Segment(sdu)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Deliver in reverse order.
	var got []byte
	for i := len(segs) - 1; i >= 0; i-- {
		got = rx.Deliver(segs[i])
	}
	if !bytes.Equal(got, sdu) {
		t.Error("out-of-order reassembly failed")
	}
}

func TestRLCEmptySDU(t *testing.T) {
	tx := NewRLC(10)
	segs := tx.Segment(nil)
	if len(segs) != 1 || segs[0].Flags != rlcFlagFirst|rlcFlagLast {
		t.Error("empty SDU should produce one first+last segment")
	}
}

func TestMACBuildParseTB(t *testing.T) {
	m := NewMAC(256)
	pdus := [][]byte{
		bytes.Repeat([]byte{0xaa}, 50),
		bytes.Repeat([]byte{0xbb}, 60),
		bytes.Repeat([]byte{0xcc}, 200), // won't fit
	}
	tb, used := m.BuildTB(pdus)
	if used != 2 {
		t.Fatalf("packed %d PDUs, want 2", used)
	}
	if tb.Bytes != 256 || len(tb.Bits) != 256*8 {
		t.Fatalf("TB size %d bytes / %d bits", tb.Bytes, len(tb.Bits))
	}
	got, err := m.ParseTB(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], pdus[0]) || !bytes.Equal(got[1], pdus[1]) {
		t.Error("TB parse mismatch")
	}
}

func TestMACGrantTooSmall(t *testing.T) {
	m := NewMAC(8)
	tb, used := m.BuildTB([][]byte{bytes.Repeat([]byte{1}, 50)})
	if used != 0 || tb.Bytes != 0 {
		t.Error("oversized PDU should not be packed")
	}
}

func TestMACHARQ(t *testing.T) {
	m := NewMAC(64)
	tb1, _ := m.BuildTB(nil)
	tb2, _ := m.BuildTB(nil)
	if tb1.HARQ == tb2.HARQ {
		t.Error("HARQ processes should rotate")
	}
	// The ninth block wraps back onto the first block's process.
	var tb TransportBlock
	for i := 2; i < m.Processes+1; i++ {
		tb, _ = m.BuildTB(nil)
	}
	if tb.HARQ != tb1.HARQ {
		t.Errorf("block %d took process %d, want %d after %d processes", m.Processes+1, tb.HARQ, tb1.HARQ, m.Processes)
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != 8*len(data) {
			return false
		}
		return bytes.Equal(BitsToBytes(bits), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerRoundRobin(t *testing.T) {
	s := &Scheduler{UEs: 3, TBSBytes: 100}
	var order []int
	for i := 0; i < 6; i++ {
		ue, tbs := s.NextGrant()
		if tbs != 100 {
			t.Fatal("bad grant size")
		}
		order = append(order, ue)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v", order)
		}
	}
	empty := &Scheduler{}
	if ue, _ := empty.NextGrant(); ue != -1 {
		t.Error("empty scheduler should return -1")
	}
}
