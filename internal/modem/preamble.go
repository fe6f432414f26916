package modem

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
)

// Training sequences. The short training sequence (STS) occupies every 4th
// used subcarrier, making its time-domain form periodic with period NFFT/4;
// receivers detect packets from this periodicity and from the energy rise.
// The long training sequence (LTS) occupies every used subcarrier with a
// fixed +-1 pattern and is transmitted twice after a half-symbol guard;
// receivers derive channel estimates and fine timing from it.
//
// For the 64-FFT profile these correspond structurally to the 802.11a
// preamble; for other FFT sizes equivalent sequences are generated from a
// fixed pseudorandom pattern so the whole modem stays parametric.

// buildTraining populates the cached frequency- and time-domain training
// fields. Called once from Config.build.
func (c *Config) buildTraining() {
	// STS: every 4th used bin carries a QPSK point.
	rngS := rand.New(rand.NewSource(0x5753)) // fixed: sequences are part of the "standard"
	c.stsF = make([]complex128, c.NFFT)
	scale := 1 / math.Sqrt2
	n := 0
	for _, k := range c.UsedBins() {
		if k%4 != 0 {
			continue
		}
		re := float64(rngS.Intn(2)*2 - 1)
		im := float64(rngS.Intn(2)*2 - 1)
		c.stsF[c.Bin(k)] = complex(re*scale, im*scale)
		n++
	}
	if n > 0 {
		// Boost so the preamble's per-sample power matches a data symbol's.
		boost := math.Sqrt(float64(len(c.UsedBins())) / float64(n))
		for i := range c.stsF {
			c.stsF[i] *= complex(boost, 0)
		}
	}

	// LTS: +-1 on every used bin.
	rngL := rand.New(rand.NewSource(0x4C54))
	c.ltsF = make([]complex128, c.NFFT)
	for _, k := range c.UsedBins() {
		c.ltsF[c.Bin(k)] = complex(float64(rngL.Intn(2)*2-1), 0)
	}
	c.ltsT = dsp.IFFT(c.ltsF)
	c.stsT = dsp.IFFT(c.stsF)
	lts := c.LongTraining()
	c.ltsTemplate = dsp.NewTemplate(lts, (fineSearchBefore+fineSearchAfter)*c.STSPeriod()+len(lts))
}

// LTSReference returns the frequency-domain LTS values indexed by FFT bin;
// receivers divide received LTS bins by these to estimate the channel. The
// returned slice is shared and must not be modified.
func (c *Config) LTSReference() []complex128 { return c.ltsF }

// LTSTime returns the time-domain LTS symbol (no guard). Shared; read-only.
func (c *Config) LTSTime() []complex128 { return c.ltsT }

// ShortTraining returns the time-domain short training field: 10 repetitions
// of the NFFT/4-sample period.
func (c *Config) ShortTraining() []complex128 {
	period := c.NFFT / 4
	out := make([]complex128, 0, 10*period)
	for i := 0; i < 10; i++ {
		out = append(out, c.stsT[:period]...)
	}
	return out
}

// LongTraining returns the time-domain long training field: a guard interval
// of NFFT/2 samples (cyclic extension) followed by two full LTS symbols.
func (c *Config) LongTraining() []complex128 {
	out := make([]complex128, 0, c.NFFT/2+2*c.NFFT)
	out = append(out, c.ltsT[c.NFFT/2:]...)
	out = append(out, c.ltsT...)
	out = append(out, c.ltsT...)
	return out
}

// Preamble returns the full training preamble (STS then LTS).
func (c *Config) Preamble() []complex128 {
	out := c.ShortTraining()
	return append(out, c.LongTraining()...)
}

// PreambleLen returns len(Preamble()) without building it.
func (c *Config) PreambleLen() int {
	return 10*(c.NFFT/4) + c.NFFT/2 + 2*c.NFFT
}

// LTSOffset returns the offset in samples from the start of the preamble to
// the first sample of the first full LTS symbol.
func (c *Config) LTSOffset() int {
	return 10*(c.NFFT/4) + c.NFFT/2
}

// STSPeriod returns the periodicity of the short training field in samples.
func (c *Config) STSPeriod() int { return c.NFFT / 4 }
