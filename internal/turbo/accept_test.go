package turbo_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/phy"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/turbo"
)

// acceptIters is the iteration budget of these tests, the serving
// runtime's default.
const acceptIters = 4

// crcWords draws n words as the serving benchmark draws its pools: a
// random payload and its CRC24B, encoded at amplitude 24, then Gaussian
// noise of deviation sigma (none at 0) clamped to ±127. It returns the
// words and their payloads.
func crcWords(t *testing.T, c *turbo.Code, n int, sigma float64, seed int64) ([]*turbo.LLRWord, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := make([]*turbo.LLRWord, n)
	truth := make([][]byte, n)
	for i := range words {
		msg := make([]byte, c.K-24)
		for j := range msg {
			msg[j] = byte(rng.Intn(2))
		}
		truth[i] = phy.AppendCRC(msg, phy.CRC24BPoly, 24)
		cw, err := c.Encode(truth[i])
		if err != nil {
			t.Fatal(err)
		}
		w := turbo.NewLLRWord(c.K)
		w.FromHard(cw, 24)
		for _, s := range [][]int16{w.Sys, w.P1, w.P2, w.TailSys[:], w.TailP1[:]} {
			for j := range s {
				x := math.Round(float64(s[j]) + rng.NormFloat64()*sigma)
				s[j] = int16(math.Max(-127, math.Min(127, x)))
			}
		}
		words[i] = w
	}
	return words, truth
}

// scalarBits decodes w on the scalar decoder for exactly iters iterations.
func scalarBits(t *testing.T, c *turbo.Code, w *turbo.LLRWord, iters int) []byte {
	t.Helper()
	d := turbo.NewDecoder(c)
	d.MaxIters, d.EarlyExit = iters, false
	bits, _, err := d.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	return bits
}

// pathResult is one decode path's decisions and per-block iterations.
type pathResult struct {
	name  string
	bits  [][]byte
	iters []int
}

// decodeFourWays decodes words with stop test accept on the scalar oracle
// (one word at a time), the packed interpreter, and the emitted program on
// the Go executor and, where the host has it, the native one; every
// batch decoder decodes twice and reports its second decode, from a state
// that has been through one, as a serving worker's has.
func decodeFourWays(t *testing.T, k int, words []*turbo.LLRWord, accept func(int, []byte) bool) []pathResult {
	t.Helper()
	c, err := turbo.NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	sc := pathResult{name: "scalar"}
	for _, w := range words {
		d := turbo.NewDecoder(c)
		d.MaxIters, d.Accept = acceptIters, accept
		bits, iters, err := d.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		sc.bits, sc.iters = append(sc.bits, bits), append(sc.iters, iters)
	}
	out := []pathResult{sc}
	batch := func(name string, compile bool) {
		bd := turbo.NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
		bd.MaxIters, bd.Compile, bd.Accept = acceptIters, compile, accept
		var bits [][]byte
		for i := 0; i < 2; i++ {
			if bits, _, err = bd.Decode(k, words); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := bd.ProgramStats().CompiledPlans; (got == 1) != compile {
			t.Fatalf("%s: %d compiled plans", name, got)
		}
		out = append(out, pathResult{name, bits, append([]int(nil), bd.BlockIters()...)})
	}
	batch("interpreter", false)
	for _, native := range []bool{false, true} {
		was := program.UseNativeKernel(native)
		if native && program.Kernel() == "go" {
			t.Log("no AVX-512BW kernel on this host: the native executor is not exercised")
		} else {
			batch("program/"+program.Kernel(), true)
		}
		program.UseNativeKernel(was)
	}
	for _, p := range out[1:] {
		for b := range words {
			if !bytes.Equal(p.bits[b], sc.bits[b]) || p.iters[b] != sc.iters[b] {
				t.Errorf("%s block %d: decisions or iterations (%d) differ from the scalar oracle's (%d)",
					p.name, b, p.iters[b], sc.iters[b])
			}
		}
	}
	return out
}

func crc24b(_ int, bits []byte) bool { return phy.CheckCRC(bits, phy.CRC24BPoly, 24) }

// TestAcceptStopsAtFirstPassingIteration: lo-SNR K=512 words whose
// decisions move at iteration 2 but are right there stop at iteration 2
// when the CRC24B check is the second stop test; on the repeat test alone
// they run a third iteration to see them repeat. It holds at full fill and
// at fill 1, with every path's decisions and per-block iterations those
// of the scalar oracle; a batch of lo-SNR words drawn as they come, some
// of which take more, agrees across the paths too.
func TestAcceptStopsAtFirstPassingIteration(t *testing.T) {
	const k, lanes = 512, 4
	c, err := turbo.NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := crcWords(t, c, 32, 22, 1)
	var moved []*turbo.LLRWord
	for i, w := range words {
		second := scalarBits(t, c, w, 2)
		if bytes.Equal(second, truth[i]) && !bytes.Equal(scalarBits(t, c, w, 1), second) {
			moved = append(moved, w)
		}
	}
	if len(moved) < lanes {
		t.Fatalf("%d of %d lo-SNR words are first right at iteration 2, want at least %d", len(moved), len(words), lanes)
	}
	for _, batch := range [][]*turbo.LLRWord{moved[:lanes], moved[:1]} {
		without := decodeFourWays(t, k, batch, nil)
		with := decodeFourWays(t, k, batch, crc24b)
		for b := range batch {
			if got := without[0].iters[b]; got < 3 {
				t.Errorf("fill %d block %d: the repeat test alone stops at iteration %d, want 3 or more", len(batch), b, got)
			}
			for _, p := range with {
				if p.iters[b] != 2 {
					t.Errorf("fill %d block %d: %s stops at iteration %d with the CRC test, want 2", len(batch), b, p.name, p.iters[b])
				}
			}
		}
	}
	decodeFourWays(t, k, words[:lanes], crc24b)
}

// TestAcceptKeepsTheFloor: a clean word whose decisions pass the CRC after
// one iteration still runs two, and the stop test is never asked: the
// decisions repeat at iteration 2, which is checked first.
func TestAcceptKeepsTheFloor(t *testing.T) {
	const k = 512
	c, err := turbo.NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := crcWords(t, c, 4, 0, 2)
	for i, w := range words {
		if !bytes.Equal(scalarBits(t, c, w, 1), truth[i]) {
			t.Fatalf("clean word %d is not right after one iteration", i)
		}
	}
	calls := 0
	counting := func(b int, bits []byte) bool { calls++; return crc24b(b, bits) }
	for _, batch := range [][]*turbo.LLRWord{words, words[:1]} {
		for _, p := range decodeFourWays(t, k, batch, counting) {
			for b := range batch {
				if p.iters[b] != 2 {
					t.Errorf("fill %d block %d: %s stops at iteration %d, want 2", len(batch), b, p.name, p.iters[b])
				}
			}
		}
	}
	if calls != 0 {
		t.Errorf("the stop test was asked %d times of blocks whose decisions repeated", calls)
	}
}
