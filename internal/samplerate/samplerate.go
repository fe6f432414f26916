// Package samplerate implements Bicket's SampleRate bit-rate adaptation
// algorithm, the rate controller the paper runs at the lead AP (§7.1,
// §8.3): pick the rate with the lowest average per-packet transmission time
// (including retries), and periodically sample other rates that could
// plausibly do better.
package samplerate

import (
	"math/rand"

	"repro/internal/modem"
)

// rateStats tracks the running estimate for one rate.
type rateStats struct {
	avgTxTime    float64 // EWMA of per-packet medium time, seconds
	samples      int
	consecFails  int
	lossyDisable int // packets remaining before the rate may be probed again
}

// probeInterval is how often, in packets, a non-current rate is sampled;
// Bicket samples every 10th packet.
const probeInterval = 10

// alpha is the EWMA smoothing of the per-rate transmission times.
const alpha = 0.25

// SampleRate adapts the transmission rate per destination.
type SampleRate struct {
	rates   []modem.Rate
	stats   []rateStats
	current int
	counter int
	// baseline per-rate lossless frame time, used to bound which rates
	// could possibly beat the current one.
	frameTime []float64
}

// New creates a SampleRate controller over the standard rate set. frameTime
// must give the lossless single-attempt airtime of the workload's packets
// at each rate (same indexing as modem.StandardRates).
func New(frameTime []float64) *SampleRate {
	rates := modem.StandardRates()
	if len(frameTime) != len(rates) {
		panic("samplerate: need one frame time per standard rate")
	}
	s := &SampleRate{
		rates:     rates,
		stats:     make([]rateStats, len(rates)),
		current:   0, // start at the most robust rate
		frameTime: frameTime,
	}
	for i := range s.stats {
		s.stats[i].avgTxTime = frameTime[i] // optimistic prior
	}
	return s
}

// Current returns the index of the current best rate.
func (s *SampleRate) Current() int { return s.current }

// Pick returns the rate index to use for the next packet and whether this
// is a probe of a non-current rate.
func (s *SampleRate) Pick(rng *rand.Rand) (idx int, probe bool) {
	s.counter++
	if s.counter%probeInterval == 0 {
		if c := s.probeCandidates(); len(c) > 0 {
			return c[rng.Intn(len(c))], true
		}
	}
	return s.current, false
}

// probeCandidates lists rates other than the current one whose lossless
// frame time beats the current rate's average tx time (i.e. rates that
// could plausibly be faster), excluding recently-failed ones. It is a pure
// read: lockout bookkeeping happens in Update, once per packet.
func (s *SampleRate) probeCandidates() []int {
	cur := s.stats[s.current].avgTxTime
	var out []int
	for i := range s.rates {
		if i == s.current || s.stats[i].lossyDisable > 0 {
			continue
		}
		if s.frameTime[i] < cur {
			out = append(out, i)
		}
	}
	return out
}

// Update records the outcome of one packet at rate idx: the total medium
// time it consumed (including retries) and whether it was delivered.
func (s *SampleRate) Update(idx int, success bool, txTime float64) {
	// Every packet ages the lossy lockouts, so a disabled rate really comes
	// back after ~50 packets (Bicket's 10 s at typical packet rates).
	for i := range s.stats {
		if s.stats[i].lossyDisable > 0 {
			s.stats[i].lossyDisable--
		}
	}
	st := &s.stats[idx]
	st.samples++
	if success {
		st.consecFails = 0
		st.avgTxTime += alpha * (txTime - st.avgTxTime)
	} else {
		st.consecFails++
		// Charge a failed packet its full (retry-limit) cost.
		st.avgTxTime += alpha * (txTime*2 - st.avgTxTime)
		if st.consecFails >= 4 {
			// Bicket: stop sampling a rate after four successive failures.
			st.lossyDisable = 50
		}
	}
	// Re-elect the best rate among those with data, skipping lossy-disabled
	// rates — including the current one, which is demoted to the best
	// still-eligible rate when its own lockout triggers.
	best := -1
	for i := range s.stats {
		if s.stats[i].lossyDisable > 0 {
			continue
		}
		if s.stats[i].samples == 0 && i != s.current {
			continue
		}
		if best < 0 || s.stats[i].avgTxTime < s.stats[best].avgTxTime {
			best = i
		}
	}
	if best < 0 {
		// The current rate is locked out and no other rate has data yet:
		// fall back to the most robust rate that is still eligible.
		for i := range s.stats {
			if s.stats[i].lossyDisable == 0 {
				best = i
				break
			}
		}
	}
	if best >= 0 {
		s.current = best
	}
}

// Rate returns the modem rate at index idx.
func (s *SampleRate) Rate(idx int) modem.Rate { return s.rates[idx] }
