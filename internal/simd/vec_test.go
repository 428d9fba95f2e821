package simd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWidthProperties(t *testing.T) {
	cases := []struct {
		w     Width
		bits  int
		lanes int
		name  string
	}{
		{W128, 128, 8, "SSE128"},
		{W256, 256, 16, "AVX256"},
		{W512, 512, 32, "AVX512"},
	}
	for _, c := range cases {
		if got := c.w.Bits(); got != c.bits {
			t.Errorf("%v.Bits() = %d, want %d", c.w, got, c.bits)
		}
		if got := c.w.Lanes16(); got != c.lanes {
			t.Errorf("%v.Lanes16() = %d, want %d", c.w, got, c.lanes)
		}
		if got := c.w.String(); got != c.name {
			t.Errorf("Width.String() = %q, want %q", got, c.name)
		}
	}
}

func TestLaneRoundTrip(t *testing.T) {
	var v Vec
	vals := []int16{0, 1, -1, 32767, -32768, 12345, -12345, 255}
	v.SetLanes16(vals)
	for i, want := range vals {
		if got := v.Lane16(i); got != want {
			t.Errorf("lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestSatAddI16(t *testing.T) {
	cases := []struct{ a, b, want int16 }{
		{1, 2, 3},
		{32767, 1, 32767},
		{-32768, -1, -32768},
		{32000, 1000, 32767},
		{-32000, -1000, -32768},
		{-5, 5, 0},
	}
	for _, c := range cases {
		if got := satAddI16(c.a, c.b); got != c.want {
			t.Errorf("satAddI16(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSatSubI16(t *testing.T) {
	cases := []struct{ a, b, want int16 }{
		{3, 2, 1},
		{-32768, 1, -32768},
		{32767, -1, 32767},
		{0, -32768, 32767},
		{10, 10, 0},
	}
	for _, c := range cases {
		if got := satSubI16(c.a, c.b); got != c.want {
			t.Errorf("satSubI16(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: saturated add always equals the clamped wide-integer sum.
func TestSatAddMatchesClampedSum(t *testing.T) {
	f := func(a, b int16) bool {
		s := int32(a) + int32(b)
		if s > math.MaxInt16 {
			s = math.MaxInt16
		}
		if s < math.MinInt16 {
			s = math.MinInt16
		}
		return satAddI16(a, b) == int16(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: saturated ops are monotone in their first argument.
func TestSatAddMonotone(t *testing.T) {
	f := func(a1, a2, b int16) bool {
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		return satAddI16(a1, b) <= satAddI16(a2, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMinI16(t *testing.T) {
	f := func(a, b int16) bool {
		mx, mn := maxI16(a, b), minI16(a, b)
		return mx >= mn && (mx == a || mx == b) && (mn == a || mn == b) &&
			int32(mx)+int32(mn) == int32(a)+int32(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
