package bench

import (
	"fmt"
	"io"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/uarch"
)

// arrangeN picks the arrangement-kernel workload size.
func arrangeN(o Options) int {
	if o.Quick {
		return 2048
	}
	return 8192
}

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Register<->L1 memory bandwidth utilization of the data arrangement (Figure 8b)",
		Run: func(w io.Writer, o Options) error {
			n := arrangeN(o)
			p := uarch.WimpyPlatform()
			t := newTable("width", "mechanism", "store BW (bits/cyc)", "peak (bits)", "utilization", "gain vs original")
			for _, width := range simd.Widths {
				var base float64
				for _, s := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM} {
					r := SimKernel(ArrangeWorkload(s, width, n), p)
					bw := r.StoreBitsPerCycle()
					gain := "1.0x"
					if s == core.StrategyExtract {
						base = bw
					} else if base > 0 {
						gain = fmt.Sprintf("%.1fx", bw/base)
					}
					t.add(width.String(), core.ByStrategy(s).Name(),
						fmt.Sprintf("%.1f", bw), fmt.Sprintf("%d", width.Bits()),
						pct(r.BandwidthUtilization(width.Bits())), gain)
				}
			}
			t.write(w)
			fmt.Fprintln(w, "  (paper: ~16 bits/cycle original at every width; 67/134/270 bits/cycle under APCM => 4X-16X)")
			return nil
		},
	})

	register(Experiment{
		ID:    "fig15",
		Title: "Micro-architecture breakdown and IPC of the arrangement, original vs APCM (Figure 15)",
		Run: func(w io.Writer, o Options) error {
			n := arrangeN(o)
			p := uarch.WimpyPlatform()
			t := newTable("width", "mechanism", "IPC", "retiring", "backend", "core-bound", "mem-bound")
			for _, width := range simd.Widths {
				for _, s := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM} {
					r := SimKernel(ArrangeWorkload(s, width, n), p)
					t.add(width.String(), core.ByStrategy(s).Name(),
						fmt.Sprintf("%.2f", r.IPC()), pct(r.TopDown.Retiring),
						pct(r.TopDown.BackendBound), pct(r.TopDown.CoreBound),
						pct(r.TopDown.MemoryBound))
				}
			}
			t.write(w)
			fmt.Fprintln(w, "  (paper: retiring 55.6/52/48% -> 97/96/95%; backend 44.4/48.2/52% -> 3/4/5%; IPC 1.2/1.1/1.05 -> 3.6/3.5/3.3)")
			return nil
		},
	})

	register(Experiment{
		ID:    "fig14",
		Title: "Arrangement vs calculation processing time at the 1500B workload (Figure 14)",
		Run: func(w io.Writer, o Options) error {
			k, iters := 6144, 1
			if o.Quick {
				k = 1024
			}
			t := newTable("width", "mechanism", "arrangement us", "calculation us", "arr share", "arr vs SSE128-orig")
			var baseArr [2]float64 // per mechanism at W128
			// Each traced decode is deterministic: the summary reads the
			// table's arrangement times rather than decoding again.
			arr := make(map[simd.Width][2]float64)
			for _, width := range simd.Widths {
				for mi, s := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM} {
					phases, err := DecodePhases(s, width, k, iters)
					if err != nil {
						return err
					}
					arrUs := phases.Us("arrangement")
					a := arr[width]
					a[mi] = arrUs
					arr[width] = a
					calcUs := phases.Us("gamma") + phases.Us("alpha") + phases.Us("beta+ext") + phases.Us("ext")
					if width == simd.W128 {
						baseArr[mi] = arrUs
					}
					rel := "1.00x"
					if baseArr[mi] > 0 {
						rel = fmt.Sprintf("%.2fx", arrUs/baseArr[mi])
					}
					t.add(width.String(), core.ByStrategy(s).Name(),
						fmt.Sprintf("%.1f", arrUs), fmt.Sprintf("%.1f", calcUs),
						pct(arrUs/(arrUs+calcUs)), rel)
				}
			}
			t.write(w)
			fmt.Fprintln(w, "  (paper: APCM cuts arrangement time 67/82/92%; original *degrades* +2.2% on ymm, +6.4% on zmm; APCM scales -49%/-51%)")
			// Direct reduction summary.
			for _, width := range simd.Widths {
				fmt.Fprintf(w, "  %s: arrangement CPU time reduction %.0f%%\n",
					width, 100*(1-arr[width][1]/arr[width][0]))
			}
			return nil
		},
	})
}
