package simd

import (
	"testing"
	"testing/quick"

	"vransim/internal/trace"
)

func TestPSraW(t *testing.T) {
	e := newTestEngine(W128)
	a, d := e.NewVec(), e.NewVec()
	a.SetLanes16([]int16{-8, 8, -1, 1, -32768, 32767, 0, -100})
	e.PSraW(d, a, 1)
	want := []int16{-4, 4, -1, 0, -16384, 16383, 0, -50}
	for i, w := range want {
		if got := d.Lane16(i); got != w {
			t.Errorf("lane %d: %d>>1 = %d, want %d", i, a.Lane16(i), got, w)
		}
	}
	e.PSraW(d, a, 15)
	for i := 0; i < 8; i++ {
		want := int16(0)
		if a.Lane16(i) < 0 {
			want = -1
		}
		if d.Lane16(i) != want {
			t.Errorf("lane %d: >>15 sign fill wrong", i)
		}
	}
}

// Property: PSraW agrees with Go's arithmetic shift on every lane.
func TestPSraWProperty(t *testing.T) {
	f := func(x int16, shRaw uint8) bool {
		sh := uint(shRaw % 16)
		e := NewEngine(W128, NewMemory(64), nil)
		a, d := e.NewVec(), e.NewVec()
		a.SetLane16(3, x)
		e.PSraW(d, a, sh)
		return d.Lane16(3) == x>>sh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetImmEmitsConstantLoad(t *testing.T) {
	e := newTestEngine(W256)
	v := e.NewVec()
	e.SetImm(v, []int16{1, -1, 2})
	insts := e.Recorder().Insts()
	in := insts[len(insts)-1]
	if in.Class != trace.Load || in.Mnemonic != "vmovdqa.const" || in.Bytes != 32 {
		t.Errorf("SetImm emitted %v %q %dB", in.Class, in.Mnemonic, in.Bytes)
	}
	if v.Lane16(1) != -1 || v.Lane16(3) != 0 {
		t.Error("SetImm lane contents wrong")
	}
}
