package lasthop

import (
	"math/rand"

	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/samplerate"
	"repro/internal/testbed"
)

// Cell describes a WLAN deployment: N clients with backlogged downlink
// traffic, each served by its own set of APs, all driven as contending
// netsim flows with per-client SampleRate controllers. One client alone on
// the medium is the paper's §8.3 downlink (Fig. 17); more clients scale it
// up. With only Links set the cell is one collision domain; with the spatial
// fields set (positions, Env, CSRangeM) the clients may span several
// carrier-sense neighborhoods — e.g. multiple cells of a building — whose
// downlinks reuse the medium concurrently, each neighborhood advancing at
// its own pace on netsim's event clock. With an interference Model set,
// concurrent out-of-range downlinks can also corrupt each other at the
// receivers (hidden terminals) — those losses surface as HiddenLosses —
// and, under the rate-aware model, degrade each other's delivery draws
// (surfaced in the per-rate RateCorruption stats). A nil Model models no
// interference.
type Cell struct {
	Mac          mac.Params
	PayloadBytes int
	// Links[c][a] is the a-th serving AP -> client c link. Rows may have
	// different lengths (clients in different cells see different APs).
	Links [][]testbed.Link
	// PacketsPerClient is each client's downlink backlog.
	PacketsPerClient int

	// Spatial reuse (optional; leave zero for one collision domain).
	// APPos[c][a] is the position of client c's a-th serving AP, parallel
	// to Links; ClientPos[c] is the client's own position.
	APPos     [][]testbed.Point
	ClientPos []testbed.Point
	// CSRangeM is the carrier-sense range between transmitters (meters);
	// <= 0 keeps every flow in one collision domain.
	CSRangeM float64
	// Model selects the netsim interference model settling interfered
	// downlinks (e.g. netsim.NewRateAware over the SampleRate rate table);
	// nil models no interference: collisions destroy every frame and
	// hidden terminals never interfere.
	Model netsim.InterferenceModel
	// Env prices interference for the interference model.
	Env *testbed.Testbed
	// InterferenceRangeM bounds each settled frame's interference scan to
	// transmitters near the receiver (netsim.Sim.InterferenceRangeM).
	// <= 0 is infinite range: every flow is a candidate interferer of
	// every other, n² cached entries; city-scale deployments set it to the
	// radius beyond which interference is below noise.
	InterferenceRangeM float64

	// WindowSec switches the run to fixed-time-window saturation mode:
	// when positive, every client offers an unbounded backlog and the run
	// stops once the virtual clock reaches the window, so one starved
	// boundary client no longer gates the elapsed time. PacketsPerClient
	// is ignored in this mode.
	WindowSec float64

	// Traffic, when set, replaces client c's backlog with an arrival
	// process: the cell attaches Traffic(c) to the flow (netsim's traffic
	// layer), so the client contends exactly while packets are queued and
	// is free — no airtime, no RNG draws — while idle. Requires WindowSec
	// > 0 (an arrival-driven run ends on the clock, not on a drained
	// backlog); PacketsPerClient is ignored. Each call must return a fresh
	// TrafficConfig (arrival processes carry per-flow state).
	Traffic func(client int) netsim.TrafficConfig
	// MobilityEpochSec, with MoveClients, drifts the deployment: every
	// epoch the cell calls MoveClients (which mutates ClientPos, Links,
	// and APPos rows in place and returns how many clients changed
	// serving cell), rebuilds each client's serving plan and flow
	// geometry from the mutated rows, re-indexes carrier-sense
	// neighborhoods (netsim.Sim.Reindex), and wakes every flow. Epoch
	// callbacks run inside the event drain in deterministic order, so
	// mobility is as reproducible as the rest of the run. Requires
	// WindowSec > 0.
	MobilityEpochSec float64
	MoveClients      func(now float64) (handoffs int)
}

// CellResult summarizes a cell run. Its embedded Stats add up every
// client's flow counters (netsim.Sim.Stats), so Collisions counts
// colliding attempts; the medium's transmit groups are counted apart, in
// Acquisitions and CollisionRounds.
type CellResult struct {
	netsim.Stats
	Acquisitions    int // transmit groups that acquired some neighborhood
	CollisionRounds int // transmit groups that collided
	// RateCorruption[r] aggregates the interference model's outcomes for
	// rate index r across every client — the per-rate corruption-margin
	// stats (interfered / corrupted / degraded counts and summed decode
	// margins). Empty when no attempt was interfered with a model engaged.
	RateCorruption []netsim.RateCorruption
	// PerClient[c] is client c's own flow counters.
	PerClient    []netsim.Stats
	AggregateBps float64 // all delivered bits over the run's virtual time
	Elapsed      float64 // virtual seconds to drain every backlog
	// Utilization is busy time over elapsed time; under spatial reuse it
	// may exceed 1 (several neighborhoods carrying frames at once).
	Utilization float64
	// Handoffs sums MoveClients' serving-cell changes over the run's
	// mobility epochs; 0 without mobility.
	Handoffs int
}

// clientPlan is one client's serving decision: its per-attempt reception
// draw, its per-rate frame airtimes (joint service prices each client's
// own co-sender count, so tables differ when Links rows are ragged), and,
// when the cell is spatial, the geometry of its downlink flow.
type clientPlan struct {
	attempt func(*rand.Rand, int, *samplerate.SampleRate, netsim.Interference) bool
	ft      []float64
	radio   *netsim.Radio
}

// spatial reports whether the cell carries per-flow geometry.
func (c Cell) spatial() bool {
	return len(c.APPos) == len(c.Links) && len(c.ClientPos) == len(c.Links) && len(c.Links) > 0
}

// bestAP returns the index of client's highest-SNR serving AP.
func (c Cell) bestAP(client int) int {
	best := 0
	for a := range c.Links[client] {
		if c.Links[client][a].SNRdB > c.Links[client][best].SNRdB {
			best = a
		}
	}
	return best
}

// radioFor builds the netsim geometry of client's downlink when the cell is
// spatial: the transmitter is the serving AP (ap), the receiver the client,
// and the capture-signal SNR the serving link's average.
func (c Cell) radioFor(client, ap int) *netsim.Radio {
	if !c.spatial() {
		return nil
	}
	return &netsim.Radio{
		TxPos: c.APPos[client][ap],
		RxPos: c.ClientPos[client],
		SNRdB: c.Links[client][ap].SNRdB,
	}
}

// RunBestSingleAP runs the cell with selective diversity: each client is
// served by its best AP (highest average SNR), one frame in the air at a
// time per neighborhood, per-client SampleRate.
func (c Cell) RunBestSingleAP(rng *rand.Rand) CellResult {
	ft := frameTimes(c.Mac, c.PayloadBytes, false, 0)
	return c.run(rng, func(client int) clientPlan {
		best := c.bestAP(client)
		links := c.Links[client][best : best+1]
		return clientPlan{
			attempt: func(rng *rand.Rand, idx int, sr *samplerate.SampleRate, ix netsim.Interference) bool {
				return netsim.DrawDelivery(rng, links, sr.Rate(idx), c.PayloadBytes, ix.SNRScale)
			},
			ft:    ft,
			radio: c.radioFor(client, best),
		}
	})
}

// RunJoint runs the cell with SourceSync: every downlink frame is sent
// jointly by all of the client's serving APs (summed per-subcarrier SNR),
// paying the joint frame overhead. For carrier sense and capture the flow
// is anchored at the lead (best) AP.
func (c Cell) RunJoint(rng *rand.Rand) CellResult {
	// Each client pays the joint overhead of its own co-sender count, so
	// ragged Links rows (clients served by different AP sets) are priced
	// correctly. Frame-time tables are shared between clients with equal
	// counts — SampleRate is per client regardless.
	ftByCo := map[int][]float64{}
	return c.run(rng, func(client int) clientPlan {
		links := c.Links[client]
		numCo := len(links) - 1
		ft, ok := ftByCo[numCo]
		if !ok {
			ft = frameTimes(c.Mac, c.PayloadBytes, true, numCo)
			ftByCo[numCo] = ft
		}
		return clientPlan{
			attempt: func(rng *rand.Rand, idx int, sr *samplerate.SampleRate, ix netsim.Interference) bool {
				return netsim.DrawDelivery(rng, links, sr.Rate(idx), c.PayloadBytes, ix.SNRScale)
			},
			ft:    ft,
			radio: c.radioFor(client, c.bestAP(client)),
		}
	})
}

// run wires one flow per client into a shared netsim and drains the
// backlogs. plan(client) returns the client's per-attempt reception draw,
// frame-time table, and flow geometry.
func (c Cell) run(rng *rand.Rand, plan func(client int) clientPlan) CellResult {
	sim := netsim.New(c.Mac, rng)
	sim.CSRangeM = c.CSRangeM
	sim.Model = c.Model
	sim.Env = c.Env
	sim.InterferenceRangeM = c.InterferenceRangeM
	n := len(c.Links)
	flows := make([]*netsim.Flow, n)
	// Flow hooks read through plans so a mobility epoch can swap a
	// client's serving plan mid-run; without mobility the entry is written
	// once and the indirection changes nothing.
	plans := make([]clientPlan, n)
	for client := 0; client < n; client++ {
		client := client
		plans[client] = plan(client)
		sr := samplerate.New(plans[client].ft)
		remaining := c.PacketsPerClient
		hasTraffic := func() bool { return remaining > 0 }
		if c.WindowSec > 0 {
			// Fixed-window saturation: backlogs never drain; the clock,
			// not the slowest client, ends the run.
			hasTraffic = func() bool { return true }
		}
		flows[client] = sim.AddFlow(&netsim.Flow{
			Acked:      true,
			Radio:      plans[client].radio,
			HasTraffic: hasTraffic,
			Prepare: func(rng *rand.Rand) int {
				idx, _ := sr.Pick(rng)
				return idx
			},
			FrameTime: func(i int) float64 { return plans[client].ft[i] },
			Deliver: func(rng *rand.Rand, i int, ix netsim.Interference) bool {
				return plans[client].attempt(rng, i, sr, ix)
			},
			Done: func(i int, delivered bool, air float64) {
				remaining--
				sr.Update(i, delivered, air)
			},
		})
		if c.Traffic != nil {
			if c.WindowSec <= 0 {
				panic("lasthop: Cell.Traffic requires WindowSec > 0")
			}
			sim.AttachTraffic(flows[client], c.Traffic(client))
		}
	}
	handoffs := 0
	if c.MobilityEpochSec > 0 && c.MoveClients != nil {
		if c.WindowSec <= 0 {
			panic("lasthop: Cell.MoveClients requires WindowSec > 0")
		}
		var epoch func()
		epoch = func() {
			handoffs += c.MoveClients(sim.Now())
			for client := range flows {
				plans[client] = plan(client)
				flows[client].Radio = plans[client].radio
				sim.Wake(flows[client])
			}
			sim.Reindex()
			sim.ScheduleAt(sim.Now()+c.MobilityEpochSec, epoch)
		}
		sim.ScheduleAt(c.MobilityEpochSec, epoch)
	}
	if c.WindowSec > 0 {
		sim.RunUntil(c.WindowSec)
	} else {
		sim.Run()
	}

	res := CellResult{
		Stats:           sim.Stats(),
		Acquisitions:    sim.Acquisitions,
		CollisionRounds: sim.CollisionRounds,
		PerClient:       make([]netsim.Stats, n),
		Elapsed:         sim.Now(),
		Handoffs:        handoffs,
	}
	for i, f := range flows {
		res.PerClient[i] = f.Stats
		res.RateCorruption = netsim.MergeRateCorruption(res.RateCorruption, f.RateCorruption)
	}
	if res.Elapsed > 0 {
		res.AggregateBps = float64(res.Delivered*c.PayloadBytes*8) / res.Elapsed
		res.Utilization = sim.BusyTime() / res.Elapsed
	}
	return res
}
