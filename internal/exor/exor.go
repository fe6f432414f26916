// Package exor implements opportunistic routing in the style of ExOR
// (Biswas & Morris) and its SourceSync extension (paper §7.2): batch-based
// forwarding where any node that overhears a packet may forward it, ordered
// by ETX distance to the destination; with SourceSync, every co-forwarder
// that overheard both the packet and the lead forwarder's sync header joins
// the transmission, adding sender diversity on the hop toward the
// destination. A traditional single-path scheme over the same links serves
// as the baseline.
//
// The package is a thin scenario layer: topology, delivery draws, and all
// medium accounting (DCF timing, ARQ, the virtual clock) live in
// internal/netsim — each routing scheme is expressed as a netsim flow, so
// runs can share the medium with cross-traffic flows (RunWithCross). Cross
// flows adapt their rate with SampleRate and carry their endpoints'
// testbed positions; with Sim.CSRangeM set they contend only within
// carrier-sense range of each other (and, with an interference Model set,
// can corrupt each other as hidden terminals when their concurrent frames
// overlap at a receiver), while the routed flow — whose transmitter moves
// hop by hop — stays unplaced and contends with everyone. An ExOR packet
// is declared lost after 40 transmissions.
package exor

import (
	"math/rand"

	"repro/internal/etx"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/samplerate"
	"repro/internal/sls"
	"repro/internal/testbed"
)

// Topology is a set of placed nodes with static pairwise links. Node 0 is
// the source; node N-1 the destination. The link and delivery model is
// netsim's; this wrapper adds the routing measurement phase.
type Topology struct {
	netsim.Topology
}

// NewTopology places the given points in an environment and draws every
// directed link once (static shadowing).
func NewTopology(rng *rand.Rand, env *testbed.Testbed, pts []testbed.Point) *Topology {
	return &Topology{Topology: *netsim.NewTopology(rng, env, pts)}
}

// Measured holds the link-measurement products all schemes share.
type Measured struct {
	Delivery [][]float64 // delivery probability per directed link
	Graph    *etx.Graph
	DistTo   []float64 // ETX distance to the destination per node
}

// Measure runs the measurement phase: per-link delivery probabilities, the
// ETX graph (links with delivery < minDelivery pruned), and distances to
// the destination.
func (t *Topology) Measure(rng *rand.Rand, rate modem.Rate, payload, probes int, minDelivery float64) *Measured {
	n := t.N()
	del := make([][]float64, n)
	for i := range del {
		del[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				del[i][j] = t.DeliveryProb(rng, i, j, rate, payload, probes)
			}
		}
	}
	g := etx.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if del[i][j] < minDelivery || del[j][i] < minDelivery {
				continue
			}
			g.AddLink(i, j, etx.LinkETX(del[i][j], del[j][i]))
		}
	}
	return &Measured{Delivery: del, Graph: g, DistTo: g.DistancesTo(n - 1)}
}

// Scheme selects the forwarding protocol to simulate.
type Scheme int

// Supported schemes.
const (
	SinglePath Scheme = iota
	ExOR
	ExORSourceSync
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SinglePath:
		return "single-path"
	case ExOR:
		return "ExOR"
	case ExORSourceSync:
		return "ExOR+SourceSync"
	}
	return "unknown"
}

// Sim runs packets from node 0 to node N-1 and accounts medium time.
type Sim struct {
	Topo    *Topology
	Meas    *Measured
	Mac     mac.Params
	Rate    modem.Rate
	Payload int
	// CSRangeM is the carrier-sense range between transmitters, in meters;
	// <= 0 (the default) keeps the classic single collision domain. When
	// positive, cross flows carry their endpoints' topology positions and
	// contend only with transmitters in range. The routed flow's
	// transmitter moves hop by hop, so it stays unplaced and contends with
	// everyone.
	CSRangeM float64
	// Model selects the netsim interference model settling interfered
	// frames (e.g. netsim.NewRateAware over the cross flows' rate table);
	// nil models no interference: collisions destroy every frame and
	// hidden terminals never interfere.
	Model netsim.InterferenceModel
}

// maxTxPerPacket bounds the ExOR transmissions charged to one packet
// before it is declared lost (progress safeguard).
const maxTxPerPacket = 40

// Result is the outcome of a scheme simulation.
type Result struct {
	ThroughputBps float64
	// Delivered counts end-to-end packets: for the routed flow a netsim
	// frame is one transmission or one hop, not one routed packet.
	Delivered int
	// Flow is the flow's netsim accounting: Flow.Attempts counts its
	// transmissions, and Flow.HiddenLosses the attempts corrupted by
	// concurrent out-of-range transmitters (nonzero only for placed cross
	// flows under a finite CSRangeM with an interference model).
	Flow netsim.Stats
	// RateCorruption[r] is the interference model's per-rate outcome
	// tally for this flow (rate index r of the standard rate table a cross
	// flow adapts over).
	RateCorruption []netsim.RateCorruption
	// Elapsed is the run's virtual time on the shared medium; with cross
	// traffic every flow shares it.
	Elapsed float64
}

// CrossFlow describes one contending single-hop stream riding on the same
// medium as the routed flow: Packets unicast frames From -> To at
// SampleRate-adapted rates, with normal DCF ARQ.
type CrossFlow struct {
	From, To int
	Packets  int
}

// Run simulates nPackets packets under the given scheme.
func (s *Sim) Run(rng *rand.Rand, scheme Scheme, nPackets int) Result {
	res, _ := s.RunWithCross(rng, scheme, nPackets, nil)
	return res
}

// RunWithCross simulates nPackets packets under the given scheme while the
// cross flows contend for the same medium. It returns the routed flow's
// result and one result per cross flow; every throughput is measured over
// the run's shared virtual time.
func (s *Sim) RunWithCross(rng *rand.Rand, scheme Scheme, nPackets int, cross []CrossFlow) (Result, []Result) {
	sim := netsim.New(s.Mac, rng)
	sim.CSRangeM = s.CSRangeM
	sim.Model = s.Model
	sim.Env = s.Topo.Env

	// delivered counts end-to-end packets; a netsim "delivered frame" is
	// one transmission or one hop, not one routed packet.
	var primary *netsim.Flow
	var delivered *int
	switch scheme {
	case SinglePath:
		primary, delivered = s.singlePathFlow(nPackets)
	case ExOR, ExORSourceSync:
		primary, delivered = s.exorFlow(nPackets, scheme == ExORSourceSync)
	default:
		panic("exor: unknown scheme")
	}
	sim.AddFlow(primary)

	crossFlows := make([]*netsim.Flow, len(cross))
	for i, cf := range cross {
		crossFlows[i] = sim.AddFlow(s.crossFlow(cf))
	}

	sim.Run()

	elapsed := sim.Now()
	mk := func(f *netsim.Flow, deliveredPkts int) Result {
		r := Result{
			Delivered:      deliveredPkts,
			Flow:           f.Stats,
			RateCorruption: f.RateCorruption,
			Elapsed:        elapsed,
		}
		if elapsed > 0 {
			r.ThroughputBps = float64(deliveredPkts*s.Payload*8) / elapsed
		}
		return r
	}
	// The primary's delivery count is end-to-end packets, not netsim
	// frames; a cross flow's frames are its packets.
	res := mk(primary, *delivered)
	crossRes := make([]Result, len(crossFlows))
	for i, f := range crossFlows {
		crossRes[i] = mk(f, f.Delivered)
	}
	return res, crossRes
}

// crossFlow builds one contending single-hop stream: Packets unicast
// frames From -> To with normal DCF ARQ, placed at its endpoints'
// positions so spatial reuse and interference apply. The flow runs its own
// SampleRate controller over the standard rate table, so rate adaptation
// reacts to contention and interference-degraded loss.
func (s *Sim) crossFlow(cf CrossFlow) *netsim.Flow {
	links := s.Topo.Links[cf.From][cf.To : cf.To+1]
	remaining := cf.Packets
	rates := modem.StandardRates()
	ft := make([]float64, len(rates))
	for i, r := range rates {
		ft[i] = s.Mac.FrameDuration(r, s.Payload)
	}
	sr := samplerate.New(ft)
	return &netsim.Flow{
		Name:  "cross",
		Acked: true,
		Radio: &netsim.Radio{
			TxPos: s.Topo.Positions[cf.From],
			RxPos: s.Topo.Positions[cf.To],
			SNRdB: links[0].SNRdB,
		},
		HasTraffic: func() bool { return remaining > 0 },
		Prepare: func(rng *rand.Rand) int {
			idx, _ := sr.Pick(rng)
			return idx
		},
		FrameTime: func(i int) float64 { return ft[i] },
		Deliver: func(rng *rand.Rand, i int, ix netsim.Interference) bool {
			return netsim.DrawDelivery(rng, links, sr.Rate(i), s.Payload, ix.SNRScale)
		},
		Done: func(i int, delivered bool, air float64) {
			remaining--
			sr.Update(i, delivered, air)
		},
	}
}

// singlePathFlow expresses min-ETX routing with per-hop ARQ as one flow:
// each netsim frame is one hop; a hop that exhausts its retries loses the
// packet. The returned counter tracks end-to-end deliveries.
func (s *Sim) singlePathFlow(nPackets int) (*netsim.Flow, *int) {
	n := s.Topo.N()
	path, _ := s.Meas.Graph.ShortestPath(0, n-1)
	remaining := nPackets
	if path == nil {
		remaining = 0
	}
	hop := 0
	e2e := new(int)
	ft := s.Mac.FrameDuration(s.Rate, s.Payload)
	f := &netsim.Flow{
		Name:       "single-path",
		Acked:      true,
		HasTraffic: func() bool { return remaining > 0 },
		FrameTime:  func(int) float64 { return ft },
	}
	// The routed flow is unplaced (its transmitter moves hop by hop), so
	// it is never interfered: the context stays clean and is ignored.
	f.Deliver = func(rng *rand.Rand, _ int, _ netsim.Interference) bool {
		return s.Topo.Deliver(rng, path[hop], path[hop+1], s.Rate, s.Payload)
	}
	f.Done = func(_ int, delivered bool, _ float64) {
		if delivered {
			hop++
			if hop+1 >= len(path) {
				*e2e++
				remaining--
				hop = 0
			}
			return
		}
		// Hop exhausted its retries: the packet is lost.
		remaining--
		hop = 0
	}
	return f, e2e
}

// exorFlow expresses opportunistic forwarding as one unacknowledged flow:
// each netsim frame is one (possibly joint) broadcast by the holder closest
// to the destination; receptions update the holder set, and the packet
// completes when the destination holds it or the transmission cap hits.
func (s *Sim) exorFlow(nPackets int, sourceSync bool) (*netsim.Flow, *int) {
	n := s.Topo.N()
	dst := n - 1
	dist := s.Meas.DistTo
	remaining := nPackets
	if dist[0] == etx.Inf {
		remaining = 0
	}

	// Precompute the joint-frame airtime: co-forwarder count varies per
	// transmission; index by number of co-senders. The CP increase comes
	// from the multi-receiver LP over the topology's propagation delays.
	cpInc := s.cpIncrease()
	jointFT := make([]float64, n)
	jointFT[0] = s.Mac.FrameDuration(s.Rate, s.Payload)
	for k := 1; k < n; k++ {
		jointFT[k] = s.Mac.JointFrameDuration(s.Rate, s.Payload, k, s.Mac.Cfg.CPLen+cpInc)
	}

	var holders map[int]bool
	var senders []int
	tx := 0
	e2e := new(int)
	f := &netsim.Flow{
		Name:       "exor",
		Acked:      false, // broadcasts carry no ACK; progress is overheard
		HasTraffic: func() bool { return remaining > 0 },
	}
	f.Prepare = func(rng *rand.Rand) int {
		if holders == nil {
			holders = map[int]bool{0: true}
			tx = 0
		}
		lead := bestHolder(holders, dist)
		// Assemble the joint sender set. Iterate nodes in index order — map
		// order would randomize RNG consumption and break reproducibility.
		senders = senders[:0]
		senders = append(senders, lead)
		if sourceSync {
			for v := 0; v < n; v++ {
				if !holders[v] || v == lead || dist[v] == etx.Inf {
					continue
				}
				// A co-forwarder joins if it overhears the sync header
				// (short, robust: use the measured delivery probability as
				// its reception likelihood).
				if rng.Float64() < s.Meas.Delivery[lead][v] {
					senders = append(senders, v)
				}
			}
		}
		return 0
	}
	f.FrameTime = func(int) float64 { return jointFT[len(senders)-1] }
	f.Deliver = func(rng *rand.Rand, _ int, _ netsim.Interference) bool {
		lead := senders[0]
		// Receptions at every node closer to the destination than the lead
		// (the forwarder set for this transmission).
		for v := 0; v < n; v++ {
			if holders[v] || dist[v] >= dist[lead] {
				continue
			}
			if s.Topo.DeliverJoint(rng, senders, v, s.Rate, s.Payload) {
				holders[v] = true
			}
		}
		return holders[dst]
	}
	f.Done = func(_ int, delivered bool, _ float64) {
		tx++
		if delivered {
			*e2e++
			remaining--
			holders = nil
			return
		}
		if tx >= maxTxPerPacket {
			remaining--
			holders = nil
		}
	}
	return f, e2e
}

// bestHolder returns the holder with minimum ETX distance to the
// destination (excluding unreachable nodes), or -1. Ties break toward the
// lowest node index so runs are reproducible.
func bestHolder(holders map[int]bool, dist []float64) int {
	best, bestD := -1, etx.Inf
	for v := 0; v < len(dist); v++ {
		if holders[v] && dist[v] < bestD {
			best, bestD = v, dist[v]
		}
	}
	return best
}

// cpIncrease runs the SLS multi-receiver optimization over the topology's
// propagation delays, taking all relays as co-senders and all non-source
// nodes as potential receivers, and returns the worst-case CP increase in
// samples (paper §4.6). Indoors this is small (delays are sub-sample at
// 20 MHz) but it is computed, not assumed.
func (s *Sim) cpIncrease() int {
	n := s.Topo.N()
	if n < 3 {
		return 0
	}
	// Lead: source. Co-senders: all relays. Receivers: relays + dst.
	var rxs []int
	for v := 1; v < n; v++ {
		rxs = append(rxs, v)
	}
	var tLead []float64
	var tCo [][]float64
	for _, rx := range rxs {
		tLead = append(tLead, s.propDelay(0, rx))
	}
	for co := 1; co < n-1; co++ {
		row := make([]float64, len(rxs))
		for k, rx := range rxs {
			row[k] = s.propDelay(co, rx)
		}
		tCo = append(tCo, row)
	}
	_, maxMis, err := sls.MultiReceiverWaits(tLead, tCo)
	if err != nil {
		return 2 // conservative fallback
	}
	return sls.CPIncreaseSamples(maxMis)
}

func (s *Sim) propDelay(i, j int) float64 {
	if i == j {
		return 0
	}
	return s.Topo.Links[i][j].PropDelaySamples()
}
