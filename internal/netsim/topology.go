package netsim

import (
	"math/rand"

	"repro/internal/modem"
	"repro/internal/permodel"
	"repro/internal/testbed"
)

// Topology is a set of placed nodes with static pairwise links, the shared
// substrate of every packet-level scenario. Reception draws flow through
// the empirical PER model, so scenario packages never touch permodel
// directly.
type Topology struct {
	Positions []testbed.Point
	Links     [][]testbed.Link // directed: Links[i][j] is i -> j
	Env       *testbed.Testbed
}

// NewTopology places the given points in an environment and draws every
// directed link once (static shadowing).
func NewTopology(rng *rand.Rand, env *testbed.Testbed, pts []testbed.Point) *Topology {
	n := len(pts)
	links := make([][]testbed.Link, n)
	for i := 0; i < n; i++ {
		links[i] = make([]testbed.Link, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			links[i][j] = env.NewLink(rng, pts[i], pts[j])
		}
	}
	// Make links reciprocal in average SNR (same shadowing both ways), as
	// physical channels are.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links[j][i] = links[i][j]
		}
	}
	return &Topology{Positions: pts, Links: links, Env: env}
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Positions) }

// Deliver draws one reception of a single-sender transmission i -> j.
func (t *Topology) Deliver(rng *rand.Rand, i, j int, rate modem.Rate, payload int) bool {
	return LinkDeliver(rng, t.Links[i][j], rate, payload)
}

// DeliverJoint draws one reception at node `to` of a joint transmission by
// the sender group: the receiver sees the summed per-subcarrier SNR of all
// senders (power + frequency diversity, §5).
func (t *Topology) DeliverJoint(rng *rand.Rand, senders []int, to int, rate modem.Rate, payload int) bool {
	if len(senders) == 1 {
		return t.Deliver(rng, senders[0], to, rate, payload)
	}
	links := make([]testbed.Link, len(senders))
	for i, u := range senders {
		links[i] = t.Links[u][to]
	}
	return JointLinkDeliver(rng, links, rate, payload)
}

// DeliveryProb estimates the delivery probability of link i->j at the given
// rate and payload by Monte-Carlo over fading draws — the "measurement
// phase" every scheme runs before routing.
func (t *Topology) DeliveryProb(rng *rand.Rand, i, j int, rate modem.Rate, payload, probes int) float64 {
	if i == j {
		return 1
	}
	ok := 0
	for p := 0; p < probes; p++ {
		if t.Deliver(rng, i, j, rate, payload) {
			ok++
		}
	}
	return float64(ok) / float64(probes)
}

// LinkDeliver draws one reception over a single link at the given rate.
func LinkDeliver(rng *rand.Rand, link testbed.Link, rate modem.Rate, payload int) bool {
	return LinkDeliverScaled(rng, link, rate, payload, 1)
}

// maxStackBins is how many data subcarriers a delivery draw keeps on its
// stack; it covers both shipped profiles (48 and 16 data bins, NFFT <=
// 128). Larger configurations still work, through a heap slice.
const maxStackBins = 128

// LinkDeliverScaled draws one reception over a single link with the
// per-subcarrier SNRs scaled by snrScale — the effective-SNR degradation
// an interference model charges a partially overlapped frame
// (Interference.SNRScale). A scale of 1 is exactly LinkDeliver: the same
// randomness is consumed either way, so degrading a draw never perturbs
// the deterministic stream.
func LinkDeliverScaled(rng *rand.Rand, link testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	var buf [maxStackBins]float64
	bins := link.AppendSubcarrierSNRs(buf[:0], rng)
	scaleBins(bins, snrScale)
	per := permodel.PER(rate, payload, bins)
	return rng.Float64() >= per
}

// JointLinkDeliver draws one reception of a joint transmission arriving
// over several links at once (one per sender in the group).
func JointLinkDeliver(rng *rand.Rand, links []testbed.Link, rate modem.Rate, payload int) bool {
	return JointLinkDeliverScaled(rng, links, rate, payload, 1)
}

// JointLinkDeliverScaled is JointLinkDeliver with the post-combiner
// per-subcarrier SNRs scaled by snrScale (interference degrades the summed
// signal and the individual ones identically — the interferer is additive
// noise at the one receiver).
//
// Each sender's SNRs are added into the joint sum as soon as they are
// drawn (permodel.AccumulateSNR, in permodel.JointSNR's order), so the
// draw keeps one sender's bins and the sum, both on the stack.
func JointLinkDeliverScaled(rng *rand.Rand, links []testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	var sumBuf, drawBuf [maxStackBins]float64
	var bins []float64
	for i, l := range links {
		sender := l.AppendSubcarrierSNRs(drawBuf[:0], rng)
		if i == 0 {
			// A zeroed sum as long as the first sender's draw.
			if len(sender) <= len(sumBuf) {
				bins = sumBuf[:len(sender)]
			} else {
				bins = make([]float64, len(sender))
			}
		}
		permodel.AccumulateSNR(bins, sender)
	}
	scaleBins(bins, snrScale)
	return rng.Float64() >= permodel.PER(rate, payload, bins)
}

// scaleBins multiplies every bin by scale, skipping the multiply at the
// identity so an undegraded draw is bit-identical to the historical path.
func scaleBins(bins []float64, scale float64) {
	if scale == 1 {
		return
	}
	for i := range bins {
		bins[i] *= scale
	}
}
