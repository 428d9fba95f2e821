package program

import (
	"testing"

	"vransim/internal/simd"
)

// TestEmitLowersWholeWhenALiveOutNeedsIt: on the native kernel Emit lowers
// SegFirst before SegSteady exists. That is what lowering the program whole
// gives only while no write SegFirst leaves at its end is read first by
// SegSteady, which the live-out rule makes live. Here one is: the sum an
// extrinsic group computes on the way, dead within SegFirst, is the first
// thing SegSteady reads. Emit must notice once SegSteady is built and lower
// the program whole — the group then writes its intermediate, as its Go
// body — and the replay must store the sum on both kernels.
func TestEmitLowersWholeWhenALiveOutNeedsIt(t *testing.T) {
	walk := func(e *Emitter) {
		var r [7]Reg // d s la t half lim nlim
		for i := range r {
			r[i] = Reg(i)
			e.Clear(r[i])
		}
		e.BcastImm(r[5], 100)
		e.BcastImm(r[6], -100)
		e.ExtVec(&r, 1, [3]int64{0, 64, 128}, 192)
		e.Steady()
		e.Store(256, r[3])
	}
	eachKernel(t, func(t *testing.T) {
		p, err := Emit(simd.W512, walk)
		if err != nil {
			t.Fatal(err)
		}
		mem := simd.NewMemory(320)
		for i := 0; i < 32; i++ {
			mem.WriteI16(int64(64+2*i), int16(10*i))
			mem.WriteI16(int64(128+2*i), int16(i-7))
		}
		x := p.NewExec(mem, 0)
		p.Run(x, SegFirst)
		p.Run(x, SegSteady)
		for i := 0; i < 32; i++ {
			if got, want := mem.ReadI16(int64(256+2*i)), int16(11*i-7); got != want {
				t.Fatalf("lane %d: SegSteady stored %d, the sum SegFirst computed is %d", i, got, want)
			}
		}
		if p.Kernel() == "avx512bw" && !p.GoForm() {
			t.Error("a native program whose live intermediate runs as a Go body holds no Go form")
		}
	})
}
