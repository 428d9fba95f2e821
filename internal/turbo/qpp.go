package turbo

import (
	"fmt"
	"sort"
)

// QPP is a quadratic permutation polynomial interleaver:
// Π(i) = (f1·i + f2·i²) mod K.
//
// 3GPP 36.212 fixes (f1, f2) per block size in a table this offline
// build cannot consult, so parameters are instead found by a
// deterministic search over odd f1 and even f2, validated for
// bijectivity (see DESIGN.md: any valid QPP exercises the same decoder
// data flow). The search is reproducible: the same K always yields the
// same polynomial.
type QPP struct {
	K      int
	F1, F2 int
	fwd    []int // fwd[i] = Π(i)
	inv    []int // inv[Π(i)] = i
}

// BlockSizes lists the supported information block lengths, following
// the 3GPP granularity: 40..512 step 8, 528..1024 step 16, 1056..2048
// step 32, 2112..6144 step 64.
var BlockSizes = buildBlockSizes()

func buildBlockSizes() []int {
	var ks []int
	for k := 40; k <= 512; k += 8 {
		ks = append(ks, k)
	}
	for k := 528; k <= 1024; k += 16 {
		ks = append(ks, k)
	}
	for k := 1056; k <= 2048; k += 32 {
		ks = append(ks, k)
	}
	for k := 2112; k <= 6144; k += 64 {
		ks = append(ks, k)
	}
	return ks
}

// ValidBlockSize reports whether k is a supported block length.
func ValidBlockSize(k int) bool {
	i := sort.SearchInts(BlockSizes, k)
	return i < len(BlockSizes) && BlockSizes[i] == k
}

// NearestBlockSize returns the smallest supported block length >= k, or
// the largest size if k exceeds it.
func NearestBlockSize(k int) int {
	i := sort.SearchInts(BlockSizes, k)
	if i >= len(BlockSizes) {
		return BlockSizes[len(BlockSizes)-1]
	}
	return BlockSizes[i]
}

// NewQPP finds a valid interleaver for block size k.
func NewQPP(k int) (*QPP, error) {
	if k < 8 {
		return nil, fmt.Errorf("turbo: block size %d too small", k)
	}
	// Search order favors small coefficients away from degenerate
	// identity-like permutations (f1=1, f2=0 would be no interleaving;
	// spread is what gives the turbo code its distance).
	primes := primeFactors(k)
	for _, f2 := range candidateF2(k) {
		for f1 := 3; f1 < k; f1 += 2 {
			if !permutes(primes, f1, f2) {
				continue
			}
			q := &QPP{K: k, F1: f1, F2: f2}
			if q.build() {
				return q, nil
			}
		}
	}
	return nil, fmt.Errorf("turbo: no QPP found for K=%d", k)
}

// primeFactors returns the distinct primes dividing k.
func primeFactors(k int) []int {
	var ps []int
	for p := 2; p*p <= k; p++ {
		if k%p == 0 {
			ps = append(ps, p)
			for k%p == 0 {
				k /= p
			}
		}
	}
	if k > 1 {
		ps = append(ps, k)
	}
	return ps
}

// permutes reports whether f1·x + f2·x² permutes the integers mod a K
// whose distinct prime factors are primes and which 4 divides (every LTE
// size is a multiple of 8), with f1 odd and f2 even as the search draws
// them: exactly when no prime of K divides f1 and every odd prime of K
// divides f2 (Sun and Takeshita's criterion). It spares the search a
// K-long build of every candidate it rejects; build still checks the one
// it keeps.
func permutes(primes []int, f1, f2 int) bool {
	for _, p := range primes {
		if f1%p == 0 || p != 2 && f2%p != 0 {
			return false
		}
	}
	return true
}

// candidateF2 yields even quadratic coefficients to try, starting near
// K/8 for good spreading: base, base+2, base-2, base+4, … within (0, K).
func candidateF2(k int) []int {
	base := k / 8
	if base%2 == 1 {
		base++
	}
	out := make([]int, 0, k/2)
	add := func(v int) {
		if v > 0 && v < k {
			out = append(out, v)
		}
	}
	add(base)
	for d := 2; d <= k; d += 2 {
		add(base + d)
		add(base - d)
	}
	return out
}

// build materializes the permutation, reporting whether it is bijective.
func (q *QPP) build() bool {
	fwd := make([]int, q.K)
	seen := make([]bool, q.K)
	for i := 0; i < q.K; i++ {
		// (f1*i + f2*i*i) mod K without overflow for K <= 6144.
		p := (q.F1*i%q.K + (q.F2*i%q.K)*i%q.K) % q.K
		if seen[p] {
			return false
		}
		seen[p] = true
		fwd[i] = p
	}
	q.fwd = fwd
	q.inv = make([]int, q.K)
	for i, p := range fwd {
		q.inv[p] = i
	}
	return true
}

// Interleave writes dst[i] = src[Π(i)] for the decoder's second
// constituent, which reads the systematic stream in permuted order.
func (q *QPP) Interleave(dst, src []int16) {
	for i := 0; i < q.K; i++ {
		dst[i] = src[q.fwd[i]]
	}
}

// Deinterleave is the inverse: dst[Π(i)] = src[i].
func (q *QPP) Deinterleave(dst, src []int16) {
	for i := 0; i < q.K; i++ {
		dst[q.fwd[i]] = src[i]
	}
}

// InterleaveBits permutes a bit sequence: out[i] = src[Π(i)].
func (q *QPP) InterleaveBits(src []byte) []byte {
	out := make([]byte, q.K)
	for i := 0; i < q.K; i++ {
		out[i] = src[q.fwd[i]]
	}
	return out
}

// Perm returns Π(i).
func (q *QPP) Perm(i int) int { return q.fwd[i] }

// InvPerm returns Π⁻¹(i).
func (q *QPP) InvPerm(i int) int { return q.inv[i] }
