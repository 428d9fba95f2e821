package pipeline

import "math"

// TTIConfig is the analytic queueing model vranserve cross-checks its
// measured run against: transport blocks arrive every TTI and a pool of
// identical cores processes them FIFO; a block missing its HARQ deadline
// is lost.
type TTIConfig struct {
	// TTIUs is the transmission time interval (LTE: 1000 µs).
	TTIUs float64
	// ProcUs is the per-transport-block processing time on one core
	// (vranserve feeds its measured decode cost per block).
	ProcUs float64
	// TBBits is the information payload per transport block.
	TBBits int
	// DeadlineUs is the processing deadline (the HARQ round-trip
	// budget; LTE uplink leaves ~3 ms for eNB processing).
	DeadlineUs float64
	// Cores is the pool size.
	Cores int
}

// SimulateArrivals runs one TTI per entry of arrivals — arrivals[t]
// blocks arrive at the start of TTI t, so bursts and silences are what
// the serving runtime's synthetic traffic actually produces — processed
// FIFO by the core pool, and returns the fraction of blocks that met the
// deadline and the achieved goodput in Mbps.
func (c TTIConfig) SimulateArrivals(arrivals []int) (delivered float64, mbps float64) {
	if len(arrivals) == 0 || c.Cores <= 0 {
		return 0, 0
	}
	// coreFree[i] is when core i next becomes idle (µs).
	coreFree := make([]float64, c.Cores)
	total := 0
	ok := 0
	for tti, n := range arrivals {
		arrive := float64(tti) * c.TTIUs
		for j := 0; j < n; j++ {
			total++
			// Earliest-free core.
			best := 0
			for i := 1; i < c.Cores; i++ {
				if coreFree[i] < coreFree[best] {
					best = i
				}
			}
			start := math.Max(arrive, coreFree[best])
			finish := start + c.ProcUs
			coreFree[best] = finish
			if c.DeadlineUs > 0 && finish-arrive <= c.DeadlineUs {
				ok++
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	delivered = float64(ok) / float64(total)
	horizon := float64(len(arrivals)) * c.TTIUs
	mbps = float64(ok) * float64(c.TBBits) / horizon // bits/µs = Mbps
	return delivered, mbps
}
