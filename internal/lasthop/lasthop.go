// Package lasthop implements the paper's WLAN downlink experiments (§7.1,
// §8.3): clients associated with multiple APs, downlink data forwarded to
// all of them by a wired-side controller, per-client SampleRate at the lead
// AP, and either a single AP transmitting (selective diversity baseline) or
// all APs transmitting jointly with SourceSync.
//
// Two scenario shapes are provided, both thin layers over internal/netsim
// (which owns the clock, DCF contention, and delivery draws):
//
//   - Config — the paper's single client: one downlink, no contention,
//     RunSingleAP / RunBestSingleAP / RunJoint per serving mode.
//   - Cell — N clients with backlogged downlinks contending as DCF
//     stations. With its spatial fields set (AP and client positions, a
//     carrier-sense range, an optional interference model) the clients may
//     span several cells of a building, and downlinks out of carrier-sense
//     range of each other reuse the medium concurrently — the geometry the
//     cellsweep experiment sweeps. A nil model means no interference is
//     modeled; callers wanting the binary capture gate pass
//     netsim.LegacyThreshold.
package lasthop

import (
	"math/rand"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/samplerate"
	"repro/internal/testbed"
)

// Config describes one client's downlink scenario.
type Config struct {
	Mac          mac.Params
	PayloadBytes int
	// APLinks are the AP->client links; index 0 need not be the best.
	APLinks []testbed.Link
	// DataCPIncrease is the extra cyclic prefix (samples) the joint mode
	// spends to absorb residual misalignment (from the SLS LP; typically
	// 0-2 samples indoors).
	DataCPIncrease int
	// Packets is how many downlink packets to simulate.
	Packets int
}

// Result summarizes one simulated run.
type Result struct {
	ThroughputBps float64
	Delivered     int
	RateHistogram map[int]int // packets per rate index
}

// frameTimes computes per-rate lossless airtimes for SampleRate.
func frameTimes(m mac.Params, payload int, joint bool, numCo, dataCP int) []float64 {
	out := make([]float64, 0, 8)
	for _, r := range modem.StandardRates() {
		if joint {
			out = append(out, m.JointFrameDuration(r, payload, numCo, dataCP))
		} else {
			out = append(out, m.FrameDuration(r, payload))
		}
	}
	return out
}

// RunSingleAP simulates the downlink using only the AP at index ap.
func (c Config) RunSingleAP(rng *rand.Rand, ap int) Result {
	link := c.APLinks[ap]
	ft := frameTimes(c.Mac, c.PayloadBytes, false, 0, 0)
	sr := samplerate.New(ft)
	return c.run(rng, sr, ft, func(rng *rand.Rand, rate modem.Rate) bool {
		return netsim.LinkDeliver(rng, link, rate, c.PayloadBytes)
	})
}

// RunBestSingleAP simulates every AP alone and returns the best result —
// the paper's "selective diversity / single best AP" baseline.
func (c Config) RunBestSingleAP(rng *rand.Rand) Result {
	var best Result
	for ap := range c.APLinks {
		r := c.RunSingleAP(rand.New(rand.NewSource(rng.Int63())), ap) //sslint:allow detrand per-AP child RNG bridged from the caller's stream; one parent draw per AP is part of the contracted draw order
		if r.ThroughputBps > best.ThroughputBps {
			best = r
		}
	}
	return best
}

// RunJoint simulates all APs transmitting simultaneously with SourceSync:
// the per-packet delivery probability comes from the sum of the APs'
// per-subcarrier SNRs (power + diversity gain), and every frame pays the
// joint overhead (sync gap, CE slots, CP increase).
func (c Config) RunJoint(rng *rand.Rand) Result {
	numCo := len(c.APLinks) - 1
	dataCP := c.Mac.Cfg.CPLen + c.DataCPIncrease
	ft := frameTimes(c.Mac, c.PayloadBytes, true, numCo, dataCP)
	sr := samplerate.New(ft)
	return c.run(rng, sr, ft, func(rng *rand.Rand, rate modem.Rate) bool {
		return netsim.JointLinkDeliver(rng, c.APLinks, rate, c.PayloadBytes)
	})
}

// run drives c.Packets downlink packets as one netsim flow (no contention:
// a single station owns the cell). SampleRate picks each packet's rate and
// is fed back the medium time the packet really consumed.
func (c Config) run(rng *rand.Rand, sr *samplerate.SampleRate, ft []float64, succeeds func(rng *rand.Rand, rate modem.Rate) bool) Result {
	res := Result{RateHistogram: map[int]int{}}
	sim := netsim.New(c.Mac, rng)
	remaining := c.Packets
	flow := sim.AddFlow(&netsim.Flow{
		Acked:      true,
		HasTraffic: func() bool { return remaining > 0 },
		Prepare: func(rng *rand.Rand) int {
			idx, _ := sr.Pick(rng)
			res.RateHistogram[idx]++
			return idx
		},
		FrameTime: func(i int) float64 { return ft[i] },
		Deliver: func(rng *rand.Rand, i int, _ netsim.Interference) bool {
			// A lone downlink is never interfered; the context stays clean.
			return succeeds(rng, sr.Rate(i))
		},
		Done: func(i int, delivered bool, air float64) {
			remaining--
			sr.Update(i, delivered, air)
		},
	})
	sim.Run()
	res.Delivered = flow.Delivered
	if t := sim.Now(); t > 0 {
		res.ThroughputBps = float64(res.Delivered*c.PayloadBytes*8) / t
	}
	return res
}
