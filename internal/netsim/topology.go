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
	return DrawDelivery(rng, t.Links[i][j:j+1], rate, payload, 1)
}

// maxJointSenders is how many senders DeliverJoint gathers on its stack:
// SourceSync's space-time codes cover at most 8 (stbc.ForSenders). Larger
// groups still work, through a heap slice.
const maxJointSenders = 8

// DeliverJoint draws one reception at node `to` of a joint transmission by
// the sender group: the receiver sees the summed per-subcarrier SNR of all
// senders (power + frequency diversity, §5).
func (t *Topology) DeliverJoint(rng *rand.Rand, senders []int, to int, rate modem.Rate, payload int) bool {
	var buf [maxJointSenders]testbed.Link
	links := buf[:0]
	if len(senders) > len(buf) {
		links = make([]testbed.Link, 0, len(senders))
	}
	for _, u := range senders {
		links = append(links, t.Links[u][to])
	}
	return DrawDelivery(rng, links, rate, payload, 1)
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

// maxStackBins is how many data subcarriers a delivery draw keeps on its
// stack: the most data bins of any profile modem builds (802.11 has 48,
// WiGLAN 16). Larger configurations still work, through a heap slice.
const maxStackBins = 48

// DrawDelivery draws one reception of a transmission arriving over the
// given links at once, one per sender: a single link is a one-sender
// draw, and no links never deliver. Each sender gets a fresh multipath
// realization from its environment's fading profile, built once with the
// environment (testbed.Link.AppendSubcarrierSNRs); the receiver sees the
// per-subcarrier sum of the senders' SNRs (SourceSync's joint
// transmission) scaled by snrScale, the effective-SNR degradation an
// interference model charges a partially overlapped frame
// (Interference.SNRScale; 1 means undegraded). One uniform u then
// decides it: delivered iff u >= PER (permodel.Delivered).
//
// The first sender is drawn straight into the sum, which equals adding it
// to zero; each later sender is added right after its draw, so only one
// sender's bins and the sum are kept, both on the stack. Go zeroes a
// stack array at its declaration, so the per-sender array is declared
// where a joint draw needs it and a one-sender draw never clears it. The
// RNG is consumed by the senders' realizations in turn, then u.
func DrawDelivery(rng *rand.Rand, links []testbed.Link, rate modem.Rate, payload int, snrScale float64) bool {
	var sumBuf [maxStackBins]float64
	var bins []float64
	for i, l := range links {
		if i == 0 {
			bins = l.AppendSubcarrierSNRs(sumBuf[:0], rng)
			continue
		}
		var drawBuf [maxStackBins]float64
		permodel.AccumulateSNR(bins, l.AppendSubcarrierSNRs(drawBuf[:0], rng))
	}
	scaleBins(bins, snrScale)
	return permodel.Delivered(rate, payload, bins, rng.Float64())
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
