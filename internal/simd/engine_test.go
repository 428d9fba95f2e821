package simd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vransim/internal/trace"
)

func newTestEngine(w Width) *Engine {
	return NewEngine(w, NewMemory(1<<16), trace.NewRecorder(1024))
}

func TestPAddSWLanes(t *testing.T) {
	for _, w := range Widths {
		e := newTestEngine(w)
		a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
		n := w.Lanes16()
		for i := 0; i < n; i++ {
			a.SetLane16(i, int16(i*100))
			b.SetLane16(i, int16(-i*50))
		}
		e.PAddSW(d, a, b)
		for i := 0; i < n; i++ {
			want := satAddI16(int16(i*100), int16(-i*50))
			if got := d.Lane16(i); got != want {
				t.Errorf("%v lane %d = %d, want %d", w, i, got, want)
			}
		}
	}
}

func TestPMaxSW(t *testing.T) {
	e := newTestEngine(W128)
	a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
	a.SetLanes16([]int16{1, -1, 100, -100, 32767, -32768, 0, 7})
	b.SetLanes16([]int16{2, -2, -100, 100, -32768, 32767, 0, 6})
	e.PMaxSW(d, a, b)
	want := []int16{2, -1, 100, 100, 32767, 32767, 0, 7}
	for i, wv := range want {
		if got := d.Lane16(i); got != wv {
			t.Errorf("lane %d = %d, want %d", i, got, wv)
		}
	}
}

func TestLogicalOps(t *testing.T) {
	e := newTestEngine(W256)
	a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < int(W256); i++ {
		a.b[i] = byte(rng.Intn(256))
		b.b[i] = byte(rng.Intn(256))
	}
	e.PAnd(d, a, b)
	for i := 0; i < int(W256); i++ {
		if d.b[i] != a.b[i]&b.b[i] {
			t.Fatalf("and byte %d wrong", i)
		}
	}
	e.POr(d, a, b)
	for i := 0; i < int(W256); i++ {
		if d.b[i] != a.b[i]|b.b[i] {
			t.Fatalf("or byte %d wrong", i)
		}
	}
	e.PXor(d, a, b)
	for i := 0; i < int(W256); i++ {
		if d.b[i] != a.b[i]^b.b[i] {
			t.Fatalf("xor byte %d wrong", i)
		}
	}
}

func TestAndOrMnemonicsByWidth(t *testing.T) {
	for _, tc := range []struct {
		w       Width
		wantAnd string
		wantOr  string
	}{{W128, "vpand", "vpor"}, {W256, "vpand", "vpor"}, {W512, "vpandd", "vpord"}} {
		e := newTestEngine(tc.w)
		a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
		e.PAnd(d, a, b)
		e.POr(d, a, b)
		insts := e.Recorder().Insts()
		if insts[0].Mnemonic != tc.wantAnd {
			t.Errorf("%v and mnemonic = %q, want %q", tc.w, insts[0].Mnemonic, tc.wantAnd)
		}
		if insts[1].Mnemonic != tc.wantOr {
			t.Errorf("%v or mnemonic = %q, want %q", tc.w, insts[1].Mnemonic, tc.wantOr)
		}
	}
}

func TestBroadcastAndPermute(t *testing.T) {
	e := newTestEngine(W128)
	v, d := e.NewVec(), e.NewVec()
	e.Broadcast16(v, -42)
	for i := 0; i < 8; i++ {
		if v.Lane16(i) != -42 {
			t.Fatalf("broadcast lane %d = %d", i, v.Lane16(i))
		}
	}
	v.SetLanes16([]int16{10, 11, 12, 13, 14, 15, 16, 17})
	e.PermuteW(d, v, []int{7, 6, 5, 4, 3, 2, 1, 0})
	for i := 0; i < 8; i++ {
		if got := d.Lane16(i); got != int16(17-i) {
			t.Errorf("permute lane %d = %d, want %d", i, got, 17-i)
		}
	}
}

func TestRotateLanesLeft(t *testing.T) {
	for _, w := range Widths {
		e := newTestEngine(w)
		n := w.Lanes16()
		v, d := e.NewVec(), e.NewVec()
		for i := 0; i < n; i++ {
			v.SetLane16(i, int16(i))
		}
		for _, k := range []int{0, 1, 2, n - 1, n, n + 3} {
			e.RotateLanesLeft(d, v, k)
			for i := 0; i < n; i++ {
				want := int16((i + k) % n)
				if got := d.Lane16(i); got != want {
					t.Errorf("%v rot %d lane %d = %d, want %d", w, k, i, got, want)
				}
			}
		}
	}
}

func TestVExtractI128(t *testing.T) {
	e := newTestEngine(W256)
	a, d := e.NewVec(), e.NewVec()
	for i := 0; i < 16; i++ {
		a.SetLane16(i, int16(100+i))
	}
	e.VExtractI128(d, a, 1)
	for i := 0; i < 8; i++ {
		if got := d.Lane16(i); got != int16(108+i) {
			t.Errorf("upper half lane %d = %d, want %d", i, got, 108+i)
		}
	}
	for i := 8; i < 32; i++ {
		if d.Lane16(i) != 0 {
			t.Errorf("lane %d not zeroed", i)
		}
	}
	e.VExtractI128(d, a, 0)
	for i := 0; i < 8; i++ {
		if got := d.Lane16(i); got != int16(100+i) {
			t.Errorf("lower half lane %d = %d, want %d", i, got, 100+i)
		}
	}
}

func TestVExtractI32x8DestroysUpper(t *testing.T) {
	e := newTestEngine(W512)
	a, d := e.NewVec(), e.NewVec()
	for i := 0; i < 32; i++ {
		a.SetLane16(i, int16(i))
		d.SetLane16(i, int16(1000+i))
	}
	e.VExtractI32x8(d, a, 0)
	for i := 0; i < 16; i++ {
		if got := d.Lane16(i); got != int16(i) {
			t.Errorf("low lane %d = %d, want %d", i, got, i)
		}
	}
	for i := 16; i < 32; i++ {
		if d.Lane16(i) != 0 {
			t.Errorf("upper lane %d = %d, want 0 (vextracti32x8 zeroes the rest)", i, d.Lane16(i))
		}
	}
	e.VExtractI32x8(d, a, 1)
	for i := 0; i < 16; i++ {
		if got := d.Lane16(i); got != int16(16+i) {
			t.Errorf("sel=1 lane %d = %d, want %d", i, got, 16+i)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	for _, w := range Widths {
		e := newTestEngine(w)
		addr := e.Mem.Alloc(int(w), 64)
		src := e.NewVec()
		n := w.Lanes16()
		for i := 0; i < n; i++ {
			src.SetLane16(i, int16(-i*3))
		}
		e.StoreVec(addr, src)
		dst := e.NewVec()
		e.LoadVec(dst, addr)
		for i := 0; i < n; i++ {
			if dst.Lane16(i) != src.Lane16(i) {
				t.Errorf("%v lane %d mismatch after roundtrip", w, i)
			}
		}
	}
}

func TestPExtrWToMem(t *testing.T) {
	e := newTestEngine(W128)
	addr := e.Mem.Alloc(16, 16)
	v := e.NewVec()
	v.SetLanes16([]int16{5, -6, 7, -8, 9, -10, 11, -12})
	for i := 0; i < 8; i++ {
		e.PExtrWToMem(addr+int64(2*i), v, i)
	}
	got := e.Mem.ReadI16s(addr, 8)
	for i, want := range []int16{5, -6, 7, -8, 9, -10, 11, -12} {
		if got[i] != want {
			t.Errorf("mem[%d] = %d, want %d", i, got[i], want)
		}
	}
	// Each pextrw must be a 2-byte store µop.
	m := trace.MixOf(e.Recorder().Insts())
	if m.Count[trace.Store] != 8 {
		t.Errorf("store count = %d, want 8", m.Count[trace.Store])
	}
	if m.StoreBytes != 16 {
		t.Errorf("store bytes = %d, want 16", m.StoreBytes)
	}
}

func TestStoreLoadDependency(t *testing.T) {
	e := newTestEngine(W128)
	addr := e.Mem.Alloc(64, 64)
	v := e.NewVec()
	e.Broadcast16(v, 9)
	e.StoreVec(addr, v)
	d := e.NewVec()
	e.LoadVec(d, addr)
	insts := e.Recorder().Insts()
	load := insts[len(insts)-1]
	if load.Class != trace.Load {
		t.Fatalf("last inst class = %v, want load", load.Class)
	}
	storeIdx := int32(len(insts) - 2)
	if load.Deps[0] != storeIdx && load.Deps[1] != storeIdx {
		t.Errorf("load deps %v do not include store at %d", load.Deps, storeIdx)
	}
}

// A narrow load from memory a vector store just wrote (the way kernels
// fetch one broadcast operand) sees the stored value and depends on the
// store.
func TestBroadcastFromMemSeesRecentStore(t *testing.T) {
	e := newTestEngine(W128)
	addr := e.Mem.Alloc(64, 64)
	v := e.NewVec()
	e.Broadcast16(v, 42)
	e.StoreVec(addr, v)
	if e.Mem.ReadI16(addr+2) != 42 {
		t.Fatal("functional store->load failed")
	}
	e.EmitScalarLoad("movzx", addr+2, 2)
	insts := e.Recorder().Insts()
	last := insts[len(insts)-1]
	storeIdx := int32(len(insts) - 2)
	if last.Deps[0] != storeIdx && last.Deps[1] != storeIdx {
		t.Errorf("2-byte load deps %v missing store %d", last.Deps, storeIdx)
	}
}

func TestRegisterDataflowDeps(t *testing.T) {
	e := newTestEngine(W128)
	a, b, c, d := e.NewVec(), e.NewVec(), e.NewVec(), e.NewVec()
	e.Broadcast16(a, 1) // idx 0
	e.Broadcast16(b, 2) // idx 1
	e.PAddSW(c, a, b)   // idx 2, deps {0,1}
	e.PMaxSW(d, c, a)   // idx 3, deps {2,0}
	insts := e.Recorder().Insts()
	if insts[2].Deps[0] != 0 || insts[2].Deps[1] != 1 {
		t.Errorf("padds deps = %v, want {0,1,-1}", insts[2].Deps)
	}
	if insts[3].Deps[0] != 2 || insts[3].Deps[1] != 0 {
		t.Errorf("pmax deps = %v, want {2,0,-1}", insts[3].Deps)
	}
}

func TestScalarEmission(t *testing.T) {
	e := newTestEngine(W128)
	e.EmitScalar("add", 5)
	e.EmitBranch("jnz")
	m := trace.MixOf(e.Recorder().Insts())
	if m.Count[trace.ScalarALU] != 5 {
		t.Errorf("scalar count = %d, want 5", m.Count[trace.ScalarALU])
	}
	if m.Count[trace.Branch] != 1 {
		t.Errorf("branch count = %d, want 1", m.Count[trace.Branch])
	}
}

func TestMemoryAlloc(t *testing.T) {
	m := NewMemory(1024)
	a := m.Alloc(10, 64)
	if a != 0 {
		t.Errorf("first alloc = %d, want 0", a)
	}
	b := m.Alloc(10, 64)
	if b != 64 {
		t.Errorf("second alloc = %d, want 64", b)
	}
	c := m.Alloc(4, 4)
	if c != 76 {
		t.Errorf("third alloc = %d, want 76", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	m.Alloc(2048, 1)
}

func TestMemoryI16Helpers(t *testing.T) {
	m := NewMemory(256)
	xs := []int16{0, 1, -1, 32767, -32768, 42}
	for i, x := range xs {
		m.WriteI16(8+int64(2*i), x)
	}
	got := m.ReadI16s(8, len(xs))
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("i16[%d] = %d, want %d", i, got[i], xs[i])
		}
	}
}

// Property: for any lane data, PAddSW/PSubSW on the engine agree with the
// scalar saturating reference in every active lane, at every width.
func TestEngineArithMatchesScalarReference(t *testing.T) {
	for _, w := range Widths {
		w := w
		f := func(raw []int16) bool {
			e := NewEngine(w, NewMemory(256), nil)
			n := w.Lanes16()
			a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
			for i := 0; i < n; i++ {
				var x, y int16
				if 2*i < len(raw) {
					x = raw[2*i]
				}
				if 2*i+1 < len(raw) {
					y = raw[2*i+1]
				}
				a.SetLane16(i, x)
				b.SetLane16(i, y)
			}
			e.PAddSW(d, a, b)
			for i := 0; i < n; i++ {
				if d.Lane16(i) != satAddI16(a.Lane16(i), b.Lane16(i)) {
					return false
				}
			}
			e.PSubSW(d, a, b)
			for i := 0; i < n; i++ {
				if d.Lane16(i) != satSubI16(a.Lane16(i), b.Lane16(i)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", w, err)
		}
	}
}

func TestTraceMixString(t *testing.T) {
	e := newTestEngine(W128)
	a, b, d := e.NewVec(), e.NewVec(), e.NewVec()
	e.PAddSW(d, a, b)
	e.EmitScalar("add", 2)
	m := trace.MixOf(e.Recorder().Insts())
	if m.Total != 3 {
		t.Fatalf("total = %d, want 3", m.Total)
	}
	if m.Count[trace.VecALU] != 1 {
		t.Errorf("vec count = %d, want 1", m.Count[trace.VecALU])
	}
	if s := m.String(); s == "" {
		t.Error("empty mix string")
	}
}
