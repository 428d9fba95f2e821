package main

import (
	"math/rand"
	"sort"
	"time"

	"vransim/internal/ran"
)

// arrival is one block of the open-loop schedule.
type arrival struct {
	due  int64 // ns after the start of the run
	cell int
	k    int
	word int // index into the pool of size k
}

// buildSchedule draws one arrival stream per cell from the seed and
// merges them by due time. URLLC cells share urllcBlocksPerSec of K=40
// blocks, eMBB cells share embbBlocksPerSec of K=512/2048 blocks.
//
// Each stream is a Poisson process conditioned on its count: the span is
// cut into strata, and a stratum holds exactly rate x length arrivals at
// independent uniform times. At the scale of a batch window that is a
// Poisson process; at the scale of a sub-window every seed offers the
// same number of blocks and bits, so goodput and load do not move with
// the seed, only with what the system does.
func buildSchedule(seed int64, span, stratum time.Duration, classes []ran.Class) []arrival {
	perClass := map[ran.Class]int{}
	for _, c := range classes {
		perClass[c]++
	}
	var out []arrival
	for cell, class := range classes {
		rng := rand.New(rand.NewSource(seed*1000003 + 2 + int64(cell)))
		rate := embbBlocksPerSec
		if class == ran.ClassURLLC {
			rate = urllcBlocksPerSec
		}
		rate /= float64(perClass[class])
		sent := 0
		for lo := time.Duration(0); lo < span; lo += stratum {
			width := min(stratum, span-lo)
			// Round on the running total so fractional counts carry over.
			n := int(rate*(lo+width).Seconds()+0.5) - sent
			first := len(out)
			for i := 0; i < n; i++ {
				out = append(out, arrival{due: int64(lo) + rng.Int63n(int64(width)), cell: cell})
			}
			mine := out[first:]
			sort.Slice(mine, func(i, j int) bool { return mine[i].due < mine[j].due })
			for i := range mine {
				k := urllcK
				if class != ran.ClassURLLC {
					k = embbSmallK
					// Exactly embbLargeShare of a cell's blocks, evenly spread.
					if j := sent + i; int(float64(j+1)*embbLargeShare) > int(float64(j)*embbLargeShare) {
						k = embbLargeK
					}
				}
				mine[i].k, mine[i].word = k, rng.Intn(poolWords[k])
			}
			sent += n
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}
