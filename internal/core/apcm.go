package core

import "vransim/internal/simd"

// APCMArranger implements the Arithmetic Ports Consciousness Mechanism
// (Section 5.1, Figures 10-12). Per group of 3 input registers it emits:
//
//   - 3 full-register loads of the interleaved stream;
//   - 9 vpand (sampling: select each cluster's lanes in each register)
//     and 6 vpor (congregation: merge the three samples per cluster) —
//     15 µops that execute on the vector ALU ports 0-2, which the
//     original mechanism leaves idle;
//   - the alignment step of Figure 10 step 4: yparity1 must be rotated
//     left one lane and yparity2 two lanes. x86 has no SIMD lane-rotate,
//     so the default configuration uses the paper's Figure 12 mimic —
//     store the congregated register unrotated, duplicate its first
//     lane(s) after the block, and let consumers read at a +1/+2 lane
//     offset;
//   - 3 full-register stores (one per cluster).
//
// With the two rotation steps the batching costs the 17 instructions the
// paper counts, and the stores move a whole register per µop instead of
// 16 bits — the source of the 4X-16X bandwidth gain.
type APCMArranger struct {
	// NaturalOrder restores natural element order with one vpermw per
	// congregated register (an ablation: on AVX-512 hardware vpermw is
	// available and subsumes the rotation).
	NaturalOrder bool
	// ExplicitRotate performs the alignment with a hypothetical SIMD
	// lane-rotate instruction instead of the offset-read mimic (an
	// ablation quantifying what the missing instruction would buy).
	ExplicitRotate bool
}

// Name implements Arranger.
func (a APCMArranger) Name() string { return a.Strategy().String() }

// Strategy implements Arranger.
func (a APCMArranger) Strategy() Strategy {
	switch {
	case a.NaturalOrder:
		return StrategyAPCMShuffle
	case a.ExplicitRotate:
		return StrategyAPCMRotate
	default:
		return StrategyAPCM
	}
}

// apcmLanePos returns, for a group of L lanes, the rotated-view lane
// index of each natural element: element jj of any cluster sits at lane
// LanePos[jj] once the cluster's rotation is applied. The alignment
// property — all three clusters share this map — is what Figure 10 step 4
// achieves and what TestAPCMClustersLaneAligned verifies.
func apcmLanePos(L int) []int {
	if t, ok := apcmTablesByL[L]; ok {
		return t.lanePos
	}
	return buildAPCMLanePos(L)
}

func buildAPCMLanePos(L int) []int {
	pos := make([]int, L)
	for i := 0; i < L; i++ {
		for r := 0; r < 3; r++ {
			if (L*r+i)%3 == 0 {
				pos[(L*r+i)/3] = i
				break
			}
		}
	}
	return pos
}

// apcmTables holds the width-dependent constant tables of the mechanism:
// the rotated-view lane map, the three sampling mask patterns (lane l
// selected when l%3 == d), and the NaturalOrder ablation's restore
// permutations. Pure functions of the lane count, built once per
// supported width at init and shared read-only across engines, so a
// steady-state Arrange call allocates nothing.
type apcmTables struct {
	lanePos []int
	masks   [3][]int16
	natural [3][]int
}

var apcmTablesByL = func() map[int]*apcmTables {
	m := make(map[int]*apcmTables, len(simd.Widths))
	for _, w := range simd.Widths {
		m[w.Lanes16()] = buildAPCMTables(w.Lanes16())
	}
	return m
}()

func buildAPCMTables(L int) *apcmTables {
	t := &apcmTables{lanePos: buildAPCMLanePos(L)}
	for d := 0; d < 3; d++ {
		pattern := make([]int16, L)
		for l := 0; l < L; l++ {
			if l%3 == d {
				pattern[l] = -1 // 0xFFFF
			}
		}
		t.masks[d] = pattern
	}
	for c := 0; c < 3; c++ {
		idx := make([]int, L)
		for i := 0; i < L; i++ {
			idx[i] = (t.lanePos[i] + c) % L
		}
		t.natural[c] = idx
	}
	return t
}

func apcmTablesFor(L int) *apcmTables {
	if t, ok := apcmTablesByL[L]; ok {
		return t
	}
	return buildAPCMTables(L)
}

// Layout implements Arranger.
func (a APCMArranger) Layout(w simd.Width) Layout {
	if a.NaturalOrder {
		return identityLayout(w)
	}
	L := w.Lanes16()
	lay := Layout{
		GroupLanes:  L,
		StrideLanes: L,
		LanePos:     apcmLanePos(L),
	}
	if !a.ExplicitRotate {
		// Rotate-mimic: blocks are stored unrotated with two lanes of
		// duplicated padding; consumers read at a per-cluster offset.
		lay.StrideLanes = L + 2
		lay.Rot = [3]int{0, 1, 2}
	}
	return lay
}

// Arrange implements Arranger.
func (a APCMArranger) Arrange(e *simd.Engine, src int64, dst Dest, n int) {
	L := e.W.Lanes16()
	groups := n / L
	lay := a.Layout(e.W)

	if groups > 0 {
		tables := apcmTablesFor(L)
		// The three sampling masks: mask[d] keeps lanes l with l%3 == d.
		// Constants, loaded once per call into pooled registers.
		var masks [3]*simd.Vec
		for d := 0; d < 3; d++ {
			masks[d] = e.AcquireVec()
			e.SetImm(masks[d], tables.masks[d])
		}

		in := [3]*simd.Vec{e.AcquireVec(), e.AcquireVec(), e.AcquireVec()}
		acc := [3]*simd.Vec{e.AcquireVec(), e.AcquireVec(), e.AcquireVec()}
		tmp := e.AcquireVec()
		rot := e.AcquireVec()

		for g := 0; g < groups; g++ {
			baseLane := 3 * g * L
			for r := 0; r < 3; r++ {
				e.LoadVec(in[r], src+int64(2*(baseLane+r*L)))
			}
			// Sampling + congregation: 9 vpand, 6 vpor.
			for c := 0; c < 3; c++ {
				for r := 0; r < 3; r++ {
					d := ((c-L*r)%3 + 3) % 3
					if r == 0 {
						e.PAnd(acc[c], in[r], masks[d])
						continue
					}
					e.PAnd(tmp, in[r], masks[d])
					e.POr(acc[c], acc[c], tmp)
				}
			}
			// Alignment + store, per configured variant.
			for c := 0; c < 3; c++ {
				blockAddr := dst.Base(Cluster(c)) + 2*int64(g*lay.StrideLanes)
				switch {
				case a.NaturalOrder:
					// One vpermw restores natural order (and subsumes
					// the rotation).
					e.PermuteW(rot, acc[c], tables.natural[c])
					e.StoreVec(blockAddr, rot)
				case a.ExplicitRotate:
					if c == 0 {
						e.StoreVec(blockAddr, acc[c])
					} else {
						e.RotateLanesLeft(rot, acc[c], c)
						e.StoreVec(blockAddr, rot)
					}
				default:
					// Figure 12 rotate-mimic: store unrotated, then
					// duplicate the block's first c lanes after it so
					// a +c-lane read sees the rotated view.
					e.StoreVec(blockAddr, acc[c])
					for x := 0; x < c; x++ {
						e.PExtrWToMem(blockAddr+2*int64(L+x), acc[c], x)
					}
				}
			}
			e.EmitScalar("add", 1)
			e.EmitBranch("jnz")
		}
		e.ReleaseVec(masks[0], masks[1], masks[2], in[0], in[1], in[2],
			acc[0], acc[1], acc[2], tmp, rot)
	}
	scalarTail(e, src, dst, lay, groups*L, n)
}
