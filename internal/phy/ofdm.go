package phy

import (
	"fmt"
	"math"
	"math/bits"

	"vransim/internal/simd"
)

// OFDM implements the multicarrier modulation stage over an iterative
// radix-2 FFT. The paper's profile runs this module with scalar
// instructions ("do OFDM"), where it reaches near-ideal IPC; the
// optional engine hook emits a matching scalar µop stream.
type OFDM struct {
	// FFTSize is the transform length (power of two).
	FFTSize int
	// UsedCarriers is the number of occupied subcarriers, centered
	// around DC (DC itself unused), e.g. 300 for 5 MHz LTE.
	UsedCarriers int
	// CPLen is the cyclic-prefix length in samples.
	CPLen int
	// Eng, when set, receives ~10 scalar µops per butterfly.
	Eng *simd.Engine

	twRe, twIm []float64 // twiddle factors for the forward transform
}

// NewOFDM builds an OFDM modem. Typical 5 MHz LTE geometry:
// NewOFDM(512, 300, 36).
func NewOFDM(fftSize, used, cp int) (*OFDM, error) {
	if fftSize <= 0 || fftSize&(fftSize-1) != 0 {
		return nil, fmt.Errorf("phy: FFT size %d is not a power of two", fftSize)
	}
	if used >= fftSize {
		return nil, fmt.Errorf("phy: %d used carriers exceed FFT size %d", used, fftSize)
	}
	o := &OFDM{FFTSize: fftSize, UsedCarriers: used, CPLen: cp}
	o.twRe = make([]float64, fftSize/2)
	o.twIm = make([]float64, fftSize/2)
	for i := range o.twRe {
		ang := -2 * math.Pi * float64(i) / float64(fftSize)
		o.twRe[i] = math.Cos(ang)
		o.twIm[i] = math.Sin(ang)
	}
	return o, nil
}

// fft computes an in-place iterative radix-2 DIT transform. invert
// selects the inverse transform (without 1/N normalization; callers
// normalize).
func (o *OFDM) fft(re, im []float64, invert bool) {
	n := len(re)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	butterflies := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			for k := 0; k < half; k++ {
				tr, ti := o.twRe[k*step], o.twIm[k*step]
				if invert {
					ti = -ti
				}
				i, j := base+k, base+k+half
				xr := re[j]*tr - im[j]*ti
				xi := re[j]*ti + im[j]*tr
				re[j] = re[i] - xr
				im[j] = im[i] - xi
				re[i] += xr
				im[i] += xi
				butterflies++
			}
		}
	}
	if o.Eng != nil {
		// ~10 scalar FLOP/mem µops per butterfly, loop branch per 8.
		for b := 0; b < butterflies; b++ {
			o.Eng.EmitScalar("fmul", 4)
			o.Eng.EmitScalar("fadd", 4)
			o.Eng.EmitScalarLoad("mov", int64(b*16%4096), 8)
			o.Eng.EmitScalarStore("mov", int64(b*16%4096), 8)
			if b%8 == 7 {
				o.Eng.EmitBranch("jnz")
			}
		}
	}
}

// carrierIndex maps used-subcarrier slot u (0-based) to an FFT bin,
// splitting the band around DC.
func (o *OFDM) carrierIndex(u int) int {
	half := o.UsedCarriers / 2
	if u < half {
		return o.FFTSize - half + u // negative frequencies
	}
	return u - half + 1 // positive frequencies, skipping DC
}

// Modulate maps UsedCarriers QAM symbols onto the grid, runs the IFFT
// and prepends the cyclic prefix, returning FFTSize+CPLen time samples.
func (o *OFDM) Modulate(syms []IQ) ([]IQ, error) {
	if len(syms) != o.UsedCarriers {
		return nil, fmt.Errorf("phy: got %d symbols, grid holds %d", len(syms), o.UsedCarriers)
	}
	re := make([]float64, o.FFTSize)
	im := make([]float64, o.FFTSize)
	for u, s := range syms {
		b := o.carrierIndex(u)
		re[b], im[b] = s.I, s.Q
	}
	o.fft(re, im, true)
	// Normalize so the time-domain signal has unit average power per
	// sample (with unit-energy constellation symbols), keeping the
	// channel's SNR definition meaningful at the sample level.
	scale := 1 / math.Sqrt(float64(o.UsedCarriers))
	out := make([]IQ, 0, o.CPLen+o.FFTSize)
	for i := o.FFTSize - o.CPLen; i < o.FFTSize; i++ {
		out = append(out, IQ{re[i] * scale, im[i] * scale})
	}
	for i := 0; i < o.FFTSize; i++ {
		out = append(out, IQ{re[i] * scale, im[i] * scale})
	}
	return out, nil
}

// Demodulate strips the cyclic prefix, runs the forward FFT and returns
// the UsedCarriers received symbols.
func (o *OFDM) Demodulate(samples []IQ) ([]IQ, error) {
	if len(samples) != o.FFTSize+o.CPLen {
		return nil, fmt.Errorf("phy: got %d samples, symbol is %d", len(samples), o.FFTSize+o.CPLen)
	}
	re := make([]float64, o.FFTSize)
	im := make([]float64, o.FFTSize)
	for i := 0; i < o.FFTSize; i++ {
		re[i] = samples[o.CPLen+i].I
		im[i] = samples[o.CPLen+i].Q
	}
	o.fft(re, im, false)
	inv := math.Sqrt(float64(o.UsedCarriers)) / float64(o.FFTSize)
	out := make([]IQ, o.UsedCarriers)
	for u := range out {
		b := o.carrierIndex(u)
		out[u] = IQ{re[b] * inv, im[b] * inv}
	}
	return out, nil
}

// SubcarrierNoiseVar converts the channel's per-sample noise variance to
// the per-subcarrier variance seen after Demodulate's FFT and scaling:
// var · UsedCarriers / FFTSize.
func (o *OFDM) SubcarrierNoiseVar(sampleVar float64) float64 {
	return sampleVar * float64(o.UsedCarriers) / float64(o.FFTSize)
}
