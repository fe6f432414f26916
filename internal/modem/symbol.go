package modem

import (
	"math/cmplx"
	"slices"

	"repro/internal/dsp"
)

// pilotPolarity is the 127-element pseudorandom pilot polarity sequence
// (+1/-1), generated once from the 802.11 scrambler with the all-ones seed.
var pilotPolarity = buildPilotPolarity()

func buildPilotPolarity() []float64 {
	s := NewScrambler(0x7f)
	out := make([]float64, 127)
	for i := range out {
		if s.Next() == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// PilotValue returns the reference value of pilot bin index p (position in
// PilotBins()) during data symbol symIdx.
func (c *Config) PilotValue(p, symIdx int) complex128 {
	pol := pilotPolarity[symIdx%len(pilotPolarity)]
	return complex(pol, 0)
}

// AppendSymbol appends one time-domain OFDM symbol (cyclic prefix cp,
// then NFFT samples) carrying NumData constellation points to dst and
// returns the extended slice. symIdx selects the pilot polarity; pilots
// false leaves the pilot bins silent, as SourceSync senders do in the
// symbols they do not own (paper §5's shared pilots). The symbol's bins
// are written into dst's new tail and transformed there in place.
func (c *Config) AppendSymbol(dst, data []complex128, symIdx, cp int, pilots bool) []complex128 {
	if len(data) != c.NumData() {
		panic("modem: AppendSymbol wrong number of data points")
	}
	n := len(dst)
	dst = slices.Grow(dst, cp+c.NFFT)[:n+cp+c.NFFT]
	sym := dst[n+cp:]
	clear(sym)
	for i, k := range c.dataBins {
		sym[c.Bin(k)] = data[i]
	}
	if pilots {
		for p, k := range c.pilotBins {
			sym[c.Bin(k)] = c.PilotValue(p, symIdx)
		}
	}
	dsp.IFFTInto(sym, sym)
	copy(dst[n:n+cp], sym[c.NFFT-cp:])
	return dst
}

// SymbolBins runs an FFT over the NFFT samples starting at the beginning of
// the useful (post-CP) part of a received symbol.
func (c *Config) SymbolBins(samples []complex128) []complex128 {
	if len(samples) < c.NFFT {
		panic("modem: SymbolBins needs NFFT samples")
	}
	return dsp.FFT(samples[:c.NFFT])
}

// PilotPhase measures the common phase error of a received symbol's bins
// relative to channel estimate h (indexed by FFT bin) from the pilot bins
// of data symbol symIdx: the phase of the pilots' correlation with their
// reference values through h. ok is false when the correlation is zero,
// as when h carries no pilot energy.
func (c *Config) PilotPhase(bins, h []complex128, symIdx int) (phase float64, ok bool) {
	var acc complex128
	for p, k := range c.pilotBins {
		b := c.Bin(k)
		ref := h[b] * c.PilotValue(p, symIdx)
		acc += bins[b] * cmplx.Conj(ref)
	}
	if acc == 0 {
		return 0, false
	}
	return cmplx.Phase(acc), true
}

// EqualizeData corrects a received symbol's bins by the common phase error
// and the channel, returning the NumData equalized constellation points.
func (c *Config) EqualizeData(bins, h []complex128, phase float64) []complex128 {
	rot := cmplx.Exp(complex(0, -phase))
	out := make([]complex128, len(c.dataBins))
	for i, k := range c.dataBins {
		b := c.Bin(k)
		hv := h[b]
		if hv == 0 {
			out[i] = 0
			continue
		}
		out[i] = bins[b] * rot / hv
	}
	return out
}

// EstimateChannelLTS estimates the per-bin channel from two received LTS
// symbols (each NFFT samples, CP already skipped). Averaging the two halves
// suppresses noise by 3 dB.
func (c *Config) EstimateChannelLTS(lts1, lts2 []complex128) []complex128 {
	b1 := c.SymbolBins(lts1)
	b2 := c.SymbolBins(lts2)
	h := make([]complex128, c.NFFT)
	for _, k := range c.UsedBins() {
		b := c.Bin(k)
		ref := c.ltsF[b]
		if ref == 0 {
			continue
		}
		h[b] = (b1[b] + b2[b]) / (2 * ref)
	}
	return h
}
