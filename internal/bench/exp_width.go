package bench

import (
	"fmt"
	"io"
	"math/rand"

	"vransim/internal/cache"
	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
	"vransim/internal/turbo"
	"vransim/internal/uarch"
)

// Phases holds per-decoder-phase attributed times.
type Phases struct {
	order []string
	us    map[string]float64
	// Total is the whole-decode simulation.
	Total uarch.Result
}

// Us returns the attributed time of a phase in microseconds.
func (p *Phases) Us(name string) float64 { return p.us[name] }

// TotalUs sums every attributed phase.
func (p *Phases) TotalUs() float64 {
	var t float64
	for _, n := range p.order {
		t += p.us[n]
	}
	return t
}

// DecodePhases runs one lane-parallel SIMD turbo decode (arrangement
// included; BlocksPerRegister(w) blocks fill the lanes, and every
// attribution is divided by the block count) on noiseless blocks of size
// k and attributes cycles per decoder phase on the wimpy platform. The
// decode is the packed one the serving decoder runs, interpreted on a
// traced engine.
func DecodePhases(s core.Strategy, w simd.Width, k, iters int) (*Phases, error) {
	return decodePhasesPolicy(s, w, k, iters, true)
}

// decodePhasesPolicy is DecodePhases with an explicit rearrangement
// policy (the abl-rearrange experiment).
func decodePhasesPolicy(s core.Strategy, w simd.Width, k, iters int, rearrange bool) (*Phases, error) {
	c, err := turbo.NewCode(k)
	if err != nil {
		return nil, err
	}
	nb := turbo.BlocksPerRegister(w)
	rng := rand.New(rand.NewSource(int64(k) + int64(w)))
	words := make([]*turbo.LLRWord, nb)
	for b := 0; b < nb; b++ {
		bits := make([]byte, k)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		cw, err := c.Encode(bits)
		if err != nil {
			return nil, err
		}
		words[b] = turbo.NewLLRWord(k)
		words[b].FromHard(cw, 32)
	}

	// Decode decodes over a memory of its own: the engine gives it the
	// width and the recorder.
	e := simd.NewEngine(w, nil, trace.NewRecorder(1<<18))
	d := turbo.NewMultiSIMDDecoder(c)
	d.MaxIters = iters
	d.EarlyExit = false
	d.RearrangePerHalfIter = rearrange
	if _, _, err := d.Decode(e, core.ByStrategy(s), words); err != nil {
		return nil, err
	}

	p := uarch.WimpyPlatform()
	insts := e.Recorder().Insts()
	ph := &Phases{us: map[string]float64{}}
	inv := 1.0 / float64(nb)
	for _, m := range d.Marks {
		if m.Hi <= m.Lo {
			continue
		}
		win := trace.Window(insts, m.Lo, m.Hi)
		r := uarch.NewSimulator(p.Core, cache.NewHierarchy(p.Caches)).Run(win)
		if _, ok := ph.us[m.Name]; !ok {
			ph.order = append(ph.order, m.Name)
		}
		ph.us[m.Name] += r.Microseconds() * inv
	}
	ph.Total = uarch.NewSimulator(p.Core, cache.NewHierarchy(p.Caches)).Run(insts)
	return ph, nil
}

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "SIMD decoder submodule processing time under SSE128/AVX256/AVX512 (Figure 9)",
		Run: func(w io.Writer, o Options) error {
			k, iters := 2048, 1
			if o.Quick {
				k = 512
			}
			t := newTable("width", "mechanism", "arrangement", "gamma", "alpha", "beta+ext", "ext", "interleave", "arr share")
			for _, s := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM} {
				for _, width := range simd.Widths {
					ph, err := DecodePhases(s, width, k, iters)
					if err != nil {
						return err
					}
					tot := ph.TotalUs()
					cell := func(name string) string {
						return fmt.Sprintf("%.1fus", ph.Us(name))
					}
					t.add(width.String(), core.ByStrategy(s).Name(),
						cell("arrangement"), cell("gamma"), cell("alpha"),
						cell("beta+ext"), cell("ext"), cell("interleave"),
						pct(ph.Us("arrangement")/tot))
				}
			}
			t.write(w)
			fmt.Fprintln(w, "  (paper: arrangement share 13/17/19.5% original -> 4.7/3.4/1.8% APCM;")
			fmt.Fprintln(w, "   note: every phase of our decode packs width/128 blocks, so the calculation")
			fmt.Fprintln(w, "   halves with each width doubling, as APCM's arrangement does: the original")
			fmt.Fprintln(w, "   share grows faster than the paper's and APCM's stays flat — see EXPERIMENTS.md)")
			return nil
		},
	})
}
