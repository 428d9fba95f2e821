package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"vransim/internal/core"
	"vransim/internal/phy"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

// pool is a set of received words of one block size and noise level,
// with the payload bits each must decode to.
type pool struct {
	k     int
	words []*turbo.LLRWord
	truth [][]byte
	// replaced counts draws that did not decode to their payload within
	// the iteration budget and were drawn again.
	replaced int
}

// pools holds every pool of a run: clean words of each grid size, and
// noisy K=512 words.
type pools struct {
	hi map[int]*pool
	lo *pool
}

// get returns the pool a workload draws block size k from.
func (p *pools) get(k int, loSNR bool) *pool {
	if loSNR && k == p.lo.k {
		return p.lo
	}
	return p.hi[k]
}

func newDecoder() *turbo.BatchDecoder {
	bd := turbo.NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
	bd.MaxIters = maxIters
	return bd
}

// buildPools draws every pool from the seed and verifies each word.
func buildPools(seed int64) (*pools, error) {
	rng := rand.New(rand.NewSource(seed*1000003 + 1))
	bd := newDecoder()
	ps := &pools{hi: make(map[int]*pool)}
	for _, k := range gridSizes {
		p, err := buildPool(k, poolWords[k], hiSNRSigma, rng, bd)
		if err != nil {
			return nil, err
		}
		ps.hi[k] = p
	}
	lo, err := buildPool(embbSmallK, poolWords[embbSmallK], loSNRSigma, rng, bd)
	if err != nil {
		return nil, err
	}
	ps.lo = lo
	return ps, nil
}

// drawWord makes one word: random payload with a CRC24B suffix, turbo
// encoded, amplitude llrAmplitude, Gaussian noise of deviation sigma.
func drawWord(code *turbo.Code, sigma float64, rng *rand.Rand) (*turbo.LLRWord, []byte, error) {
	msg := make([]byte, code.K-24)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	bits := phy.AppendCRC(msg, phy.CRC24BPoly, 24)
	cw, err := code.Encode(bits)
	if err != nil {
		return nil, nil, err
	}
	w := turbo.NewLLRWord(code.K)
	w.FromHard(cw, llrAmplitude)
	noise := func(v int16) int16 {
		x := math.Round(float64(v) + rng.NormFloat64()*sigma)
		return int16(math.Max(-llrClamp, math.Min(llrClamp, x)))
	}
	for _, s := range [][]int16{w.Sys, w.P1, w.P2, w.TailSys[:], w.TailP1[:]} {
		for i := range s {
			s[i] = noise(s[i])
		}
	}
	return w, bits, nil
}

// buildPool draws n words and decodes each once through bd, the same
// decoder build and iteration budget the runtime uses. A word that does
// not decode to its payload is drawn again, so no workload ever takes
// the HARQ path and the failure count of a run is 0 by construction.
func buildPool(k, n int, sigma float64, rng *rand.Rand, bd *turbo.BatchDecoder) (*pool, error) {
	code, err := bd.Code(k)
	if err != nil {
		return nil, err
	}
	p := &pool{k: k, words: make([]*turbo.LLRWord, n), truth: make([][]byte, n)}
	bad := make([]int, n)
	for i := range bad {
		bad[i] = i
	}
	for round := 0; len(bad) > 0; round++ {
		if round == 16 {
			return nil, fmt.Errorf("pool K=%d sigma=%g: %d words still fail after %d draws", k, sigma, len(bad), round)
		}
		for _, i := range bad {
			if p.words[i], p.truth[i], err = drawWord(code, sigma, rng); err != nil {
				return nil, err
			}
		}
		if bad, err = p.failing(bd, bad); err != nil {
			return nil, err
		}
		p.replaced += len(bad)
	}
	return p, nil
}

// failing decodes the words at idx in full-lane batches and returns the
// indices whose decisions differ from their payload.
func (p *pool) failing(bd *turbo.BatchDecoder, idx []int) ([]int, error) {
	var bad []int
	batch := make([]*turbo.LLRWord, 0, lanes)
	for lo := 0; lo < len(idx); lo += lanes {
		hi := min(lo+lanes, len(idx))
		batch = batch[:0]
		for _, i := range idx[lo:hi] {
			batch = append(batch, p.words[i])
		}
		bits, _, err := bd.Decode(p.k, batch)
		if err != nil {
			return nil, err
		}
		for j, i := range idx[lo:hi] {
			if !bytes.Equal(bits[j], p.truth[i]) {
				bad = append(bad, i)
			}
		}
	}
	return bad, nil
}
