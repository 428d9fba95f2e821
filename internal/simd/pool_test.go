package simd

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestAcquireVecSemantics: a recycled register must be indistinguishable
// from a fresh one — zero lanes, no dependency — even when released dirty.
func TestAcquireVecSemantics(t *testing.T) {
	e := NewEngine(W512, NewMemory(1<<12), nil)
	v := e.AcquireVec()
	e.Broadcast16(v, 77)
	e.ReleaseVec(v)
	if e.FreeVecs() != 1 {
		t.Fatalf("free list holds %d, want 1", e.FreeVecs())
	}
	got := e.AcquireVec()
	if got != v {
		t.Error("AcquireVec did not reuse the released register")
	}
	for i := 0; i < W512.Lanes16(); i++ {
		if got.Lane16(i) != 0 {
			t.Fatalf("recycled register not cleared: lane %d = %d", i, got.Lane16(i))
		}
	}
	if e.FreeVecs() != 0 {
		t.Errorf("free list holds %d after acquire, want 0", e.FreeVecs())
	}
	// Empty pool falls back to a fresh register.
	fresh := e.AcquireVec()
	if fresh == got {
		t.Error("empty pool handed out an in-use register")
	}
}

// TestEngineOpsNoAlloc: the emulated ops a steady-state decode leans on
// must be allocation-free on an untraced engine — PermuteW's index
// scratch and RotateLanesLeft's tables were the per-op offenders.
func TestEngineOpsNoAlloc(t *testing.T) {
	e := NewEngine(W512, NewMemory(1<<12), nil)
	a, b, dst := e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	e.Broadcast16(a, 3)
	e.Broadcast16(b, 9)
	idx := make([]int, W512.Lanes16())
	for i := range idx {
		idx[i] = (i + 5) % len(idx)
	}
	e.RotateLanesLeft(dst, a, 1) // warm the rotation table cache
	avg := testing.AllocsPerRun(100, func() {
		e.PermuteW(dst, a, idx)
		e.PAddSW(dst, dst, b)
		e.PMaxSW(dst, dst, a)
		e.RotateLanesLeft(dst, dst, 1)
		e.SetImm(dst, nil)
		v := e.AcquireVec()
		e.ReleaseVec(v)
	})
	if avg != 0 {
		t.Errorf("untraced engine ops allocate %.1f objects/op, want 0", avg)
	}
}

// TestReleaseVecBounded: the free-list must stop growing at
// maxFreeVecs — a kernel that leaks releases (more ReleaseVec than
// AcquireVec) must not pin an unbounded pile of dead registers. Dropped
// registers simply fall to the garbage collector; acquires past the
// stored depth fall back to fresh allocation and stay correct.
func TestReleaseVecBounded(t *testing.T) {
	e := NewEngine(W512, NewMemory(1<<12), nil)
	for i := 0; i < 3*maxFreeVecs; i++ {
		e.ReleaseVec(&Vec{})
	}
	if got := e.FreeVecs(); got != maxFreeVecs {
		t.Fatalf("free list holds %d after %d releases, want cap %d",
			got, 3*maxFreeVecs, maxFreeVecs)
	}
	// A batched release straddling the cap keeps the prefix and drops
	// the rest.
	e2 := NewEngine(W512, NewMemory(1<<12), nil)
	vs := make([]*Vec, maxFreeVecs+10)
	for i := range vs {
		vs[i] = &Vec{}
	}
	e2.ReleaseVec(vs...)
	if got := e2.FreeVecs(); got != maxFreeVecs {
		t.Fatalf("batched release stored %d, want cap %d", got, maxFreeVecs)
	}
	// The capped pool still recycles: acquire drains it LIFO and every
	// register comes back clean.
	seen := make(map[*Vec]bool)
	for i := 0; i < maxFreeVecs; i++ {
		v := e2.AcquireVec()
		if seen[v] {
			t.Fatal("free list handed out the same register twice")
		}
		seen[v] = true
	}
	if e2.FreeVecs() != 0 {
		t.Fatalf("pool not drained: %d left", e2.FreeVecs())
	}
	if v := e2.AcquireVec(); seen[v] {
		t.Error("empty pool reissued a live register")
	}
}

// TestNewMemoryAligned: every memory starts on a cache line, whatever its
// size and whatever the allocator handed out before it.
func TestNewMemoryAligned(t *testing.T) {
	var keep []any
	for _, size := range []int{0, 1, 10, 48, 100, 1000, 10048, 1 << 16} {
		for range 8 {
			m := NewMemory(size)
			if m.Size() != size {
				t.Fatalf("NewMemory(%d) holds %d bytes", size, m.Size())
			}
			if size > 0 {
				if at := uintptr(unsafe.Pointer(&m.data[0])) % lineBytes; at != 0 {
					t.Errorf("NewMemory(%d) starts %d bytes into a line", size, at)
				}
			}
			keep = append(keep, m, make([]byte, 1+size%7)) // the next one starts off a line
		}
	}
	runtime.KeepAlive(keep)
}
