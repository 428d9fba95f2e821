package turbo

import (
	"math/rand"
	"reflect"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// TestLaneTablesFromFirstPrinciples checks the recursion tables against
// the trellis and the lane layout directly, at every width, and that the
// packed plan's interpreter tables carry exactly those tables.
func TestLaneTablesFromFirstPrinciples(t *testing.T) {
	tr := NewTrellis()
	c, err := NewCode(40)
	if err != nil {
		t.Fatal(err)
	}
	ar := core.ByStrategy(core.StrategyAPCM)
	rng := rand.New(rand.NewSource(1))
	for _, w := range simd.Widths {
		nb, lanes := BlocksPerRegister(w), w.Lanes16()
		lt := newLaneTables(tr, w, nb)

		for b := 0; b < nb; b++ {
			for s := 0; s < NumStates; s++ {
				l := b*NumStates + s
				for _, tc := range []struct {
					name      string
					got, want int
				}{
					{"prevIdx0", lt.prevIdx0[l], b*NumStates + tr.Prev[s][0]},
					{"prevIdx1", lt.prevIdx1[l], b*NumStates + tr.Prev[s][1]},
					{"nextIdx0", lt.nextIdx0[l], b*NumStates + tr.Next[s][0]},
					{"nextIdx1", lt.nextIdx1[l], b*NumStates + tr.Next[s][1]},
					{"lane0Idx", lt.lane0Idx[l], b * NumStates},
				} {
					if tc.got != tc.want {
						t.Errorf("%v %s[%d] = %d, want %d", w, tc.name, l, tc.got, tc.want)
					}
				}
			}
		}

		for r, idx := range lt.hmaxIdx {
			for l, src := range idx {
				if src/NumStates != l/NumStates {
					t.Errorf("%v hmax round %d: lane %d reads lane %d of another block", w, r, l, src)
				}
			}
		}
		// The three rounds, run on the engine, leave each block's maximum in
		// every lane of that block and nothing of its neighbours'.
		e := simd.NewEngine(w, simd.NewMemory(1<<10), nil)
		v, dst, tmp := e.NewVec(), e.NewVec(), e.NewVec()
		in := make([]int16, lanes)
		for trial := 0; trial < 20; trial++ {
			for l := range in {
				in[l] = int16(rng.Intn(1<<16) - 1<<15)
			}
			v.SetLanes16(in)
			lt.hmax(e, v, dst, tmp)
			for b := 0; b < nb; b++ {
				want := in[b*NumStates]
				for _, x := range in[b*NumStates:][:NumStates] {
					want = max(want, x)
				}
				for s := 0; s < NumStates; s++ {
					if got := dst.Lane16(b*NumStates + s); got != want {
						t.Fatalf("%v hmax block %d lane %d = %d, want the block's max %d", w, b, s, got, want)
					}
				}
			}
		}

		zeros := 0
		for l, x := range lt.negInfInit {
			switch {
			case x == 0 && l%NumStates == 0:
				zeros++
			case x != negInf16:
				t.Errorf("%v negInfInit[%d] = %d, want %d", w, l, x, negInf16)
			}
		}
		if zeros != nb {
			t.Errorf("%v negInfInit has %d reachable lanes, want one per block (%d)", w, zeros, nb)
		}

		if pl := newPackedPlan(c, ar.Layout(w), w, nb); !reflect.DeepEqual(pl.interpreterTables().laneTables, lt) {
			t.Errorf("%v: packedPlan's lane tables drifted from newLaneTables", w)
		}
	}
}
