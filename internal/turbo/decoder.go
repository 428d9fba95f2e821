package turbo

import "fmt"

// negInf is the metric used for impossible states. Small enough to never
// overflow int32 when a handful of branch metrics are added.
const negInf = int32(-1 << 24)

// extClamp bounds extrinsic values so iterated feedback stays inside the
// int16 dynamic range the SIMD decoder uses.
const extClamp = 8192

// clampExt saturates x into [-extClamp, extClamp].
func clampExt(x int32) int16 {
	if x > extClamp {
		return extClamp
	}
	if x < -extClamp {
		return -extClamp
	}
	return int16(x)
}

// branchMetric returns the unscaled max-log branch metric
// su·(Ls+La) + sp·Lp with sign +1 for bit 0. Every decoder build in this
// package (scalar and SIMD) uses exactly this formula so their outputs
// are bit-identical.
func branchMetric(u, p int, sysPlusApriori, par int32) int32 {
	m := sysPlusApriori
	if u == 1 {
		m = -m
	}
	if p == 1 {
		m -= par
	} else {
		m += par
	}
	return m
}

// maxLogMAP runs one constituent (half-iteration) max-log-MAP pass.
//
// sys/par/apriori have length K (in the constituent's own bit order).
// If terminated, tailSys/tailPar carry the three termination steps and
// the backward recursion starts from state 0; otherwise it starts
// equiprobable. ext receives the extrinsic output, post the full
// posterior LLR (>0 ⇒ bit 0).
func maxLogMAP(tr *Trellis, sys, par, apriori []int16, tailSys, tailPar []int16, terminated bool, ext []int16, post []int32) {
	k := len(sys)
	steps := k
	if terminated {
		steps += len(tailSys)
	}

	// Branch inputs per step: Ls+La and Lp (tail steps have no
	// a-priori and are not information-bearing).
	sa := make([]int32, steps)
	pp := make([]int32, steps)
	for i := 0; i < k; i++ {
		sa[i] = int32(sys[i]) + int32(apriori[i])
		pp[i] = int32(par[i])
	}
	for i := k; i < steps; i++ {
		sa[i] = int32(tailSys[i-k])
		pp[i] = int32(tailPar[i-k])
	}

	// Forward recursion with per-step max-normalization (the scalar
	// reference mirrors the SIMD build's normalization exactly).
	alpha := make([]int32, (steps+1)*NumStates)
	for s := 1; s < NumStates; s++ {
		alpha[s] = negInf
	}
	for i := 0; i < steps; i++ {
		cur := alpha[i*NumStates : (i+1)*NumStates]
		nxt := alpha[(i+1)*NumStates : (i+2)*NumStates]
		for s := 0; s < NumStates; s++ {
			nxt[s] = negInf
		}
		for s := 0; s < NumStates; s++ {
			if cur[s] <= negInf {
				continue
			}
			for u := 0; u < 2; u++ {
				m := cur[s] + branchMetric(u, tr.Parity[s][u], sa[i], pp[i])
				n := tr.Next[s][u]
				if m > nxt[n] {
					nxt[n] = m
				}
			}
		}
		normalize(nxt)
	}

	// Backward recursion.
	beta := make([]int32, (steps+1)*NumStates)
	last := beta[steps*NumStates:]
	if terminated {
		for s := 1; s < NumStates; s++ {
			last[s] = negInf
		}
	}
	for i := steps - 1; i >= 0; i-- {
		cur := beta[i*NumStates : (i+1)*NumStates]
		nxt := beta[(i+1)*NumStates : (i+2)*NumStates]
		for s := 0; s < NumStates; s++ {
			cur[s] = negInf
			for u := 0; u < 2; u++ {
				b := nxt[tr.Next[s][u]]
				if b <= negInf {
					continue
				}
				m := b + branchMetric(u, tr.Parity[s][u], sa[i], pp[i])
				if m > cur[s] {
					cur[s] = m
				}
			}
		}
		normalize(cur)
	}

	// Extrinsic / posterior for the K information steps.
	for i := 0; i < k; i++ {
		a := alpha[i*NumStates : (i+1)*NumStates]
		b := beta[(i+1)*NumStates : (i+2)*NumStates]
		max0, max1 := negInf, negInf
		for s := 0; s < NumStates; s++ {
			if a[s] <= negInf {
				continue
			}
			for u := 0; u < 2; u++ {
				m := a[s] + branchMetric(u, tr.Parity[s][u], sa[i], pp[i]) + b[tr.Next[s][u]]
				if u == 0 {
					if m > max0 {
						max0 = m
					}
				} else if m > max1 {
					max1 = m
				}
			}
		}
		d := max0 - max1 // = 2·(Ls + La + Le) in this unscaled metric
		if post != nil {
			post[i] = d
		}
		if ext != nil {
			ext[i] = clampExt(d>>1 - sa[i])
		}
	}
}

// normalize subtracts the state-0 metric from every state, bounding the
// dynamic range with exactly the rule the SIMD build applies (a lane-0
// broadcast and subtract). State 0 is always reachable in both
// recursions, so v[0] is never the unreachable marker.
func normalize(v []int32) {
	m := v[0]
	for i := range v {
		if v[i] > negInf {
			v[i] -= m
		}
	}
}

// Decoder is the iterative scalar turbo decoder, the functional
// reference for the SIMD build.
type Decoder struct {
	code *Code
	// MaxIters bounds the number of full iterations (default 6).
	MaxIters int
	// EarlyExit stops, from the second iteration on, when the hard
	// decisions are stable across a full iteration or Accept passes them.
	EarlyExit bool
	// Accept is the second stop test, as BatchDecoder.Accept; it is
	// called with block 0.
	Accept func(block int, bits []byte) bool
}

// NewDecoder builds a decoder for code c.
func NewDecoder(c *Code) *Decoder {
	return &Decoder{code: c, MaxIters: 6, EarlyExit: true}
}

// Decode runs iterative decoding and returns the hard-decision bits and
// the number of full iterations performed.
func (d *Decoder) Decode(w *LLRWord) ([]byte, int, error) {
	k := d.code.K
	if len(w.Sys) != k || len(w.P1) != k || len(w.P2) != k {
		return nil, 0, fmt.Errorf("turbo: LLR word length mismatch (K=%d)", k)
	}
	qpp := d.code.qpp
	tr := d.code.trellis

	la1 := make([]int16, k)
	la2 := make([]int16, k)
	ext1 := make([]int16, k)
	ext2 := make([]int16, k)
	sysPerm := make([]int16, k)
	qpp.Interleave(sysPerm, w.Sys)
	post := make([]int32, k)
	tailSys := []int16{w.TailSys[0], w.TailSys[1], w.TailSys[2]}
	tailP1 := []int16{w.TailP1[0], w.TailP1[1], w.TailP1[2]}

	bits := make([]byte, k)
	prev := make([]byte, k)
	iters := 0
	for it := 0; it < d.MaxIters; it++ {
		iters++
		maxLogMAP(tr, w.Sys, w.P1, la1, tailSys, tailP1, true, ext1, nil)
		qpp.Interleave(la2, ext1)
		maxLogMAP(tr, sysPerm, w.P2, la2, nil, nil, false, ext2, post)
		qpp.Deinterleave(la1, ext2)

		for i := 0; i < k; i++ {
			if post[i] < 0 {
				bits[qpp.Perm(i)] = 1
			} else {
				bits[qpp.Perm(i)] = 0
			}
		}
		if d.EarlyExit && it > 0 && (equalBits(bits, prev) || d.Accept != nil && d.Accept(0, bits)) {
			break
		}
		copy(prev, bits)
	}
	return bits, iters, nil
}

func equalBits(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
