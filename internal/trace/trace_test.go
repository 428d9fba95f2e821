package trace

import (
	"testing"
	"testing/quick"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(4)
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	i0 := r.Emit(Inst{Class: Load, Mnemonic: "mov", Bytes: 8, Deps: Deps3()})
	i1 := r.Emit(Inst{Class: Store, Mnemonic: "mov", Bytes: 8, Deps: Deps3(i0)})
	if i0 != 0 || i1 != 1 || r.Len() != 2 {
		t.Fatal("emit indices wrong")
	}
	if r.Insts()[1].Deps[0] != 0 {
		t.Fatal("dependency lost")
	}
}

func TestDeps3(t *testing.T) {
	d := Deps3()
	if d != [3]int32{NoDep, NoDep, NoDep} {
		t.Errorf("empty deps = %v", d)
	}
	d = Deps3(5, -1, 7)
	if d[0] != 5 || d[1] != NoDep || d[2] != 7 {
		t.Errorf("deps = %v", d)
	}
	d = Deps3(1, 2, 3, 4) // extra ignored
	if d[2] != 3 {
		t.Errorf("deps = %v", d)
	}
}

func TestMixAccounting(t *testing.T) {
	insts := []Inst{
		{Class: Load, Bytes: 16},
		{Class: Store, Bytes: 2},
		{Class: Store, Bytes: 2},
		{Class: VecALU},
		{Class: Branch},
	}
	m := MixOf(insts)
	if m.Total != 5 || m.Count[Store] != 2 || m.LoadBytes != 16 || m.StoreBytes != 4 {
		t.Errorf("mix = %+v", m)
	}
	if m.String() == "" {
		t.Error("empty mix string")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ScalarALU: "scalar-alu", VecALU: "vec-alu", VecShuffle: "vec-shuffle",
		Load: "load", Store: "store", Branch: "branch", Nop: "nop",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(200).String() == "" {
		t.Error("out-of-range class should still format")
	}
}

func TestWindowRebasesDeps(t *testing.T) {
	insts := []Inst{
		{Class: Load, Deps: Deps3()},
		{Class: VecALU, Deps: Deps3(0)},
		{Class: VecALU, Deps: Deps3(1, 0)},
		{Class: Store, Deps: Deps3(2)},
	}
	w := Window(insts, 2, 4)
	if len(w) != 2 {
		t.Fatalf("window length %d", len(w))
	}
	// inst 2's deps (1, 0) both precede the window: dropped.
	if w[0].Deps[0] != NoDep || w[0].Deps[1] != NoDep {
		t.Errorf("pre-window deps not dropped: %v", w[0].Deps)
	}
	// inst 3's dep on 2 becomes 0.
	if w[1].Deps[0] != 0 {
		t.Errorf("in-window dep not rebased: %v", w[1].Deps)
	}
	// Original slice untouched.
	if insts[3].Deps[0] != 2 {
		t.Error("Window mutated its input")
	}
}

// Property: windowed deps always point inside the window and before the
// instruction itself.
func TestWindowProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			raw = []uint8{0}
		}
		insts := make([]Inst, len(raw)+2)
		for i := range insts {
			d := int(raw[i%len(raw)])%(i+1) - 1 // in [-1, i-1]
			insts[i] = Inst{Class: ScalarALU, Deps: Deps3(d)}
		}
		lo, hi := len(insts)/3, len(insts)
		w := Window(insts, lo, hi)
		for i := range w {
			for _, d := range w[i].Deps {
				if d != NoDep && (d < 0 || int(d) >= i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
