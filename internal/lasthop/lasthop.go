// Package lasthop implements the paper's WLAN downlink experiments (§7.1,
// §8.3): clients associated with multiple APs, downlink data forwarded to
// all of them by a wired-side controller, per-client SampleRate at the lead
// AP, and either a single AP transmitting (selective diversity baseline) or
// all APs transmitting jointly with SourceSync.
//
// Cell is the package's one runner, a thin layer over internal/netsim
// (which owns the clock, DCF contention, and delivery draws): N clients
// with backlogged downlinks contending as DCF stations, each served
// jointly by its APs (RunJoint) or by its best AP alone (RunBestSingleAP).
// One client with its APs is the paper's Fig. 17 case. With its spatial
// fields set (AP and client positions, a carrier-sense range, an optional
// interference model) the clients may span several cells of a building,
// and downlinks out of carrier-sense range of each other reuse the medium
// concurrently — the geometry the cellsweep experiment sweeps. A nil model
// means no interference is modeled.
package lasthop

import (
	"repro/internal/mac"
	"repro/internal/modem"
)

// frameTimes computes per-rate lossless airtimes for SampleRate. Joint
// frames carry the profile's cyclic prefix.
func frameTimes(m mac.Params, payload int, joint bool, numCo int) []float64 {
	out := make([]float64, 0, 8)
	for _, r := range modem.StandardRates() {
		if joint {
			out = append(out, m.JointFrameDuration(r, payload, numCo, m.Cfg.CPLen))
		} else {
			out = append(out, m.FrameDuration(r, payload))
		}
	}
	return out
}
