// Package modem implements an 802.11a-style OFDM physical layer on complex
// baseband samples: scrambling, convolutional coding with puncturing and
// Viterbi decoding, interleaving, BPSK/QPSK/16-QAM/64-QAM mapping, pilot
// tracking, training preambles, packet detection and channel estimation.
//
// The modem is parametric over an OFDM configuration so the same code runs
// both a standard 20 MHz / 64-subcarrier 802.11a profile and a WiGLAN-like
// 128 MHz / 128-subcarrier profile (1 us symbols) matching the radio used in
// the SourceSync paper.
package modem

import (
	"fmt"

	"repro/internal/dsp"
)

// Config describes one OFDM PHY profile. All times derive from SampleRateHz.
type Config struct {
	Name         string
	SampleRateHz float64 // complex baseband sample rate
	NFFT         int     // FFT size (power of two)
	CPLen        int     // cyclic prefix length in samples (default; may be raised per frame)
	UsedHalf     int     // subcarriers -UsedHalf..-1 and 1..UsedHalf carry energy
	Pilots       []int   // signed pilot subcarrier indices (subset of used)

	dataBins  []int // signed indices of data subcarriers, ascending
	pilotBins []int // signed indices of pilots, ascending

	// Cached training fields, computed by build.
	stsF, ltsF []complex128 // frequency domain, indexed by FFT bin
	stsT, ltsT []complex128 // time domain, one NFFT period each

	// ltsTemplate is LongTraining prepared for DetectPacket's fine-timing
	// correlation, its FFT sized for the widest search.
	ltsTemplate *dsp.Template
}

// Profile80211 returns the standard 802.11a/g 20 MHz profile: 64-point FFT,
// 48 data subcarriers, 4 pilots, 800 ns cyclic prefix, 4 us symbols.
func Profile80211() *Config {
	c := &Config{
		Name:         "802.11a-20MHz",
		SampleRateHz: 20e6,
		NFFT:         64,
		CPLen:        16,
		UsedHalf:     26,
		Pilots:       []int{-21, -7, 7, 21},
	}
	c.build()
	return c
}

// ProfileWiGLAN returns a profile modeled on the WiGLAN radio used by the
// paper: 128 MHz sample clock, 128-point FFT (1 us symbols, 1 MHz subcarrier
// spacing) occupying 20 MHz of bandwidth (subcarriers -10..10).
func ProfileWiGLAN() *Config {
	c := &Config{
		Name:         "WiGLAN-128MHz",
		SampleRateHz: 128e6,
		NFFT:         128,
		CPLen:        16,
		UsedHalf:     10,
		Pilots:       []int{-8, -3, 3, 8},
	}
	c.build()
	return c
}

func (c *Config) build() {
	if c.NFFT <= 0 || c.NFFT&(c.NFFT-1) != 0 {
		panic("modem: NFFT must be a power of two")
	}
	if c.UsedHalf >= c.NFFT/2 {
		panic("modem: UsedHalf must be < NFFT/2")
	}
	pilotSet := map[int]bool{}
	for _, p := range c.Pilots {
		if p == 0 || p < -c.UsedHalf || p > c.UsedHalf {
			panic(fmt.Sprintf("modem: pilot %d outside used band", p))
		}
		pilotSet[p] = true
	}
	c.dataBins = c.dataBins[:0]
	c.pilotBins = c.pilotBins[:0]
	for k := -c.UsedHalf; k <= c.UsedHalf; k++ {
		if k == 0 {
			continue
		}
		if pilotSet[k] {
			c.pilotBins = append(c.pilotBins, k)
		} else {
			c.dataBins = append(c.dataBins, k)
		}
	}
	c.buildTraining()
}

// DataBins returns the signed indices of data subcarriers in ascending order.
func (c *Config) DataBins() []int { return c.dataBins }

// PilotBins returns the signed indices of pilot subcarriers ascending.
func (c *Config) PilotBins() []int { return c.pilotBins }

// UsedBins returns all used signed subcarrier indices (data+pilots),
// ascending.
func (c *Config) UsedBins() []int {
	out := make([]int, 0, len(c.dataBins)+len(c.pilotBins))
	for k := -c.UsedHalf; k <= c.UsedHalf; k++ {
		if k == 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// NumData returns the number of data subcarriers per symbol.
func (c *Config) NumData() int { return len(c.dataBins) }

// SymbolDuration returns the duration in seconds of a symbol with the given
// cyclic prefix length.
func (c *Config) SymbolDuration(cp int) float64 {
	return float64(c.NFFT+cp) / c.SampleRateHz
}

// Bin converts a signed subcarrier index to an FFT array index.
func (c *Config) Bin(k int) int {
	if k >= 0 {
		return k
	}
	return c.NFFT + k
}

// SubcarrierSpacingHz returns the subcarrier spacing in Hz.
func (c *Config) SubcarrierSpacingHz() float64 {
	return c.SampleRateHz / float64(c.NFFT)
}
