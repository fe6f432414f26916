// Package netsim is a packet-level, virtual-time network simulator for the
// throughput experiments: traffic flows contend for the wireless medium
// under DCF, with per-flow ARQ, rate control hooks, joint-transmission
// sender groups, and — when flows carry positions — spatial reuse across
// several carrier-sense neighborhoods.
//
// The medium model is deliberately packet-level, not sample-level: the PHY
// packages settle what a frame costs (airtimes from the modem's symbol
// accounting via internal/mac) and how likely it is to be received
// (per-subcarrier SNR draws through internal/permodel); netsim owns the
// clock and the contention between transmissions.
//
// The scheduler is event-driven: every pending transmission is an event on
// one shared virtual clock, and each Step advances the clock to the
// earliest pending event — a frame hitting the air, a frame's airtime
// ending, a transmission's occupancy (ACK exchange or ACK timeout)
// ending, or a scheduled timer callback firing (ScheduleAt — the hook the
// traffic layer in traffic.go uses for packet arrivals, and scenario code
// uses for mobility epochs and churn). A transmission occupies the medium
// only within its carrier-sense
// neighborhood, so neighborhoods advance at their own pace: a short frame
// in one cell completes and the next contention there begins while a long
// frame still hangs in the air elsewhere. Under spatial reuse, utilization
// (BusyTime over Now) approaches the number of disjoint neighborhoods.
//
// Internally the scheduler is indexed so city-scale floors stay cheap:
// pending events live in a min-heap keyed by (time, phase, sequence)
// rather than being rediscovered by per-Step scans over every flow, and
// carrier-sense lookups (who does this transmission freeze, who may resume
// when it retires, who collided with whom) go through a spatial hash over
// transmitter positions (testbed.Grid, cell size CSRangeM), so the
// per-event cost is O(nearby flows), not O(all flows). The index changes
// only the access path: which flows are examined, never the order in which
// randomness is consumed — neighbor iteration is in sorted id order, and
// heap ties break exactly in the order the historical scans visited
// (air-ends before occupancy-ends before starts; transmissions in creation
// order; flows in registration order).
//
// Contention follows DCF with frozen counters:
//
//  1. Every backlogged flow holds a backoff counter in whole slots, drawn
//     from its retry-dependent contention window when it enters contention
//     or after its own transmission attempt (in flow-registration order, so
//     RNG consumption — and therefore the whole run — is deterministic for
//     a given seed). While its neighborhood is idle the flow counts the
//     counter down from DIFS onward; when an in-range transmission starts
//     first, the flow banks the idle slots that elapsed and freezes, as in
//     real DCF, resuming — not redrawing — when the neighborhood frees up.
//  2. A flow transmits when its countdown expires with the neighborhood
//     still idle. In-range flows whose countdowns expire at the same
//     instant collide; flows out of carrier-sense range of every active
//     transmitter proceed concurrently — spatial reuse.
//  3. A frame is settled when its airtime ends, against every transmission
//     that overlapped it in the air. The simulator computes the frame's
//     effective SNR — serving-link SNR over the worst simultaneous median
//     interference the frame saw at its receiver, from transmitters in
//     range or not (interference power comes from the testbed's median
//     path loss, so no randomness is consumed) — and hands it to the
//     pluggable InterferenceModel (Sim.Model). In-range overlaps are
//     colliders: a collision destroys every frame in the group unless the
//     model rules the frame captured (its effective SINR clears the
//     model's decode threshold — for RateAware, the frame's own rate's
//     decode floor). Out-of-range overlaps are hidden terminals: a frame
//     the model corrupts is lost even though its own neighborhood was
//     clean, and a frame that survives carries the model's delivery-draw
//     degradation (RateAware scales the draw's subcarrier SNRs down to the
//     effective SNR). Interference is additive only while air intervals
//     actually coincide — successive far-cell frames are not a doubled
//     interferer. With no model configured (Model nil),
//     hidden terminals are not modeled and frames fail only by collision
//     or by their own delivery draw.
//  4. A transmission occupies its neighborhood for DIFS + backoff + frame
//     airtime, plus the ACK exchange on success or the ACK timeout on
//     failure; in-range flows resume their countdowns when that occupancy
//     ends.
//
// Carrier sense is pairwise between transmitter positions (Sim.CSRangeM);
// with the zero configuration — no range, or flows without Radio info —
// every flow contends with every other and the simulator degenerates to
// one collision domain, where the event scheduler reproduces the classic
// single-medium DCF round structure exactly (a single flow's run is
// draw-for-draw and bit-for-bit identical to the historical round-based
// scheduler — the determinism contract the fig17/fig18 experiments pin).
//
// A settle walks one memoized candidate list per flow: the flows whose
// transmissions can overlap the frame, each carrying its pair price. With
// Sim.InterferenceRangeM <= 0 (the default) every registered flow is a
// candidate — infinite range, n² 16-byte entries per sim, which is at most
// 40 flows (about 25 KB) in every shipped experiment; city-scale floors
// set a range, and the candidates come from two spatial-index queries.
//
// Retries re-enter contention (as in real DCF) rather than holding the
// medium. Scenario packages (internal/lasthop, internal/exor) define flows
// over this core instead of hand-rolling DIFS/backoff/ACK arithmetic.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mac"
	"repro/internal/testbed"
)

// Radio is a flow's geometry, used for spatial reuse, capture, and
// hidden-terminal interference: where its transmitter and its receiver sit
// on the floor, and the mean SNR of the serving link at that receiver.
// Flows without Radio info contend with every other flow, never capture,
// and never suffer hidden terminals (everyone defers to them).
type Radio struct {
	TxPos testbed.Point
	RxPos testbed.Point
	// SNRdB is the serving link's average SNR at RxPos (shadowing included,
	// fading excluded) — the signal term of the capture/interference SINR.
	SNRdB float64
}

// Stats is one flow's run accounting: plain int counters only, so a copy
// is cheap to keep, sums are exact in any order, and adding a counter
// costs one field and one line of Add. Sim.Stats adds up every flow's.
// Transmit groups belong to no one flow, so their counters
// (Sim.Acquisitions, Sim.CollisionRounds) stay on Sim.
type Stats struct {
	Attempts     int // transmission attempts, including collisions
	Delivered    int // frames delivered
	Dropped      int // frames dropped (retry limit, or unacked failure)
	Collisions   int // attempts lost to collisions
	Captures     int // colliding attempts that survived by capture
	HiddenLosses int // attempts corrupted by out-of-range (hidden) interferers
	// The traffic layer's offered-load accounting; all zero unless a
	// Traffic is attached to the flow.
	Arrived   int // packets the arrival process offered
	Expired   int // packets dropped because their deadline passed before service began
	Abandoned int // packets still queued when the flow left at StopSec
}

// Add adds every counter of o to st.
func (st *Stats) Add(o Stats) {
	st.Attempts += o.Attempts
	st.Delivered += o.Delivered
	st.Dropped += o.Dropped
	st.Collisions += o.Collisions
	st.Captures += o.Captures
	st.HiddenLosses += o.HiddenLosses
	st.Arrived += o.Arrived
	st.Expired += o.Expired
	st.Abandoned += o.Abandoned
}

// Flow is one contending traffic stream. The simulator drives it frame by
// frame through the hooks; all hooks see the simulator's RNG so runs stay
// deterministic for a given seed.
type Flow struct {
	Name string
	// Acked selects unicast semantics: successful frames pay SIFS + ACK,
	// failures pay the ACK timeout and retry up to the MAC retry limit.
	// Unacknowledged flows (broadcast-style, e.g. ExOR forwarding) get
	// exactly one attempt per frame.
	Acked bool
	// Radio places the flow for spatial reuse; nil means the flow is heard
	// everywhere (single-collision-domain behavior).
	Radio *Radio

	// HasTraffic reports whether the flow wants the medium. Nil means the
	// flow never contends. The scheduler re-examines a drained flow when
	// its own Done retires a frame and whenever the whole simulator goes
	// quiescent; a predicate that turns true from some *other* flow's hook
	// (or from outside the simulator) must be announced with Sim.Wake.
	HasTraffic func() bool
	// Prepare is called once per head-of-line frame (not per attempt) and
	// returns the rate index to transmit at — from SampleRate, a fixed
	// rate, or whatever the scenario chooses. Nil means rate index 0.
	Prepare func(rng *rand.Rand) int
	// FrameTime returns the frame airtime in seconds at rate index r.
	FrameTime func(r int) float64
	// Deliver draws one reception attempt at rate index r. ix carries the
	// interference context of the attempt: a scenario prices partial
	// overlap by scaling its per-subcarrier SNR draws by ix.SNRScale
	// (DrawDelivery's snrScale); ignoring ix reproduces the historical
	// threshold-only behavior.
	Deliver func(rng *rand.Rand, r int, ix Interference) bool
	// Done is called when the head-of-line frame completes — delivered, or
	// dropped after the retry limit (acked flows) or its single attempt
	// (unacked flows) — with the medium time the flow's own attempts
	// consumed.
	Done func(r int, delivered bool, airTime float64)

	// Accounting, maintained by the simulator (and by an attached
	// Traffic's queue).
	Stats
	AirTime float64 // medium time consumed by this flow's own attempts
	// RateCorruption[r] accumulates the interference model's outcomes for
	// attempts sent at rate index r (grown on demand; nil while no attempt
	// of this flow was interfered with the model engaged).
	RateCorruption []RateCorruption

	// Head-of-line frame state (touched once per frame, not per event).
	rateIdx  int
	attempt  int
	frameAir float64

	// idx is the flow's position in Sim.Flows: its id in the spatial index
	// and its slot in the simulator's per-flow state arrays. The per-event
	// hot state itself (backoff counter, countdown, in-flight bits) lives
	// in dense arrays on Sim, indexed by idx, so the event loop walks flat
	// memory instead of chasing a pointer per neighbor.
	idx int32
}

// Per-flow state bits, kept in Sim.flags (struct-of-arrays): one byte per
// flow instead of four bools scattered across a pointer-sized struct.
const (
	fInFlight     uint8 = 1 << iota // a head-of-line frame is in service
	fCounterValid                   // counter holds a live draw (distinguishes 0 from "needs a draw")
	fWaiting                        // counting down (idleSince is valid)
	fQueued                         // already on the admission queue
)

// tx is one transmission on the air: the unit the event scheduler moves
// the clock between. base/wait/cost mirror the MAC cost arithmetic
// (DIFS + backoff, then airtime, then ACK or timeout) so a lone flow's
// clock is bit-identical to summing its per-attempt costs.
type tx struct {
	f        *Flow
	seq      int64   // creation order: heap tie-break, matching the historical scan order
	base     float64 // clock time the DIFS + countdown began
	wait     float64 // DIFS + counter·slot
	start    float64 // base + wait: the frame hits the air
	ft       float64 // frame airtime
	airEnd   float64 // base + (wait + ft): the frame leaves the air
	cost     float64 // wait + ft, plus ACK / ACK-timeout once resolved
	end      float64 // base + cost: occupancy ends, neighborhood frees up
	resolved bool    // delivery settled (airEnd passed)
}

// pastTx remembers a finished transmission's air interval and geometry so
// still-unresolved frames it overlapped can count it as interference.
type pastTx struct {
	radio         *Radio
	start, airEnd float64
}

// Event phases at one instant, in the order the historical scheduler's
// per-Step phases ran them: deliveries settle, then occupancies retire,
// then new frames hit the air.
const (
	evAirEnd = iota // a frame's airtime ends: resolve the delivery
	evOccEnd        // a transmission's occupancy ends: the neighborhood frees up
	evStart         // a countdown expires: the frame hits the air
	evTimer         // a scheduled callback fires (traffic arrivals, mobility epochs, churn)
)

// event is one entry in the scheduler's min-heap, kept at 32 bytes so
// heap moves stay cheap. Tx events carry their transmission and tie-break
// by creation sequence; start events carry the flow's index as their
// sequence, and a flow has at most one start entry in the heap (Sim.startPos
// tracks its slot). Timer events tie-break by schedule order and carry the
// slot of their callback in Sim.timerFns (the callback pointer would push
// the struct past 32 bytes for every event kind).
type event struct {
	t    float64
	seq  int64
	r    *tx
	kind uint8
	slot uint32
}

// eventLess orders the heap: time, then phase, then creation/registration
// sequence — exactly the order the historical per-Step scans processed
// simultaneous events.
func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// Sim is a shared medium with a virtual clock. With the zero spatial
// configuration it is one collision domain; with CSRangeM set and flows
// carrying Radio info, it is a floor of overlapping carrier-sense
// neighborhoods that reuse the medium concurrently, each advancing at the
// pace of its own transmissions.
type Sim struct {
	Mac   mac.Params
	Rng   *rand.Rand
	Flows []*Flow

	// CSRangeM is the carrier-sense range in meters: two flows contend only
	// when their transmitters are within it. <= 0 means every flow contends
	// with every other (one collision domain). Flows without Radio info
	// always contend with everyone. Set it before the first Step: it also
	// sizes the spatial index's buckets.
	CSRangeM float64
	// Model selects the pluggable interference model that settles
	// interfered frames (capture within collisions, decode against hidden
	// terminals, delivery-draw degradation). It requires Env and per-flow
	// Radio info. Nil means no interference model: every collision
	// destroys all frames and hidden terminals never interfere.
	Model InterferenceModel
	// Env supplies the median path loss used to price interference
	// (deterministic — the interference model consumes no randomness).
	Env *testbed.Testbed
	// InterferenceRangeM bounds the interference scan when a frame is
	// settled: only transmitters within this range of the frame's receiver
	// (or within CSRangeM of its transmitter — colliders always count) are
	// priced. <= 0, the default, means infinite range: every registered
	// flow is a candidate of every other, which costs n² 16-byte cache
	// entries — fine for the small sims of every shipped experiment (at
	// most 40 flows, about 25 KB), too much for a city. City-scale
	// scenarios set it to the radius beyond which interference is below
	// noise, turning each candidate list into an O(nearby) index query; it
	// should comfortably exceed CSRangeM plus the longest serving link.
	// Set it before the first Step and leave it fixed for the run.
	InterferenceRangeM float64

	now  float64 // virtual time, seconds
	busy float64 // time the medium carried frames (airtime, ACKs)

	Acquisitions    int // transmit groups that acquired some neighborhood
	CollisionRounds int // transmit groups that collided (>1 simultaneous in-range frame)

	// Pending events, a 4-ary min-heap ordered by eventLess: shallower
	// than a binary heap, so a pop touches fewer cache lines on the way
	// down. Every entry is live — a countdown that freezes or stops takes
	// its start entry out at once — and no two live entries share a key,
	// so eventLess is total over the heap and the processed event sequence
	// does not depend on the heap's arity or layout.
	events   []event
	txSeq    int64
	timerSeq int64 // schedule order of timer events: their heap tie-break
	txFree   []*tx // retired tx structs, recycled to keep the event path allocation-free

	// Timer callbacks parked outside the heap (events stay pointer-light):
	// a timer event's slot field addresses its callback here, recycled on
	// fire.
	timerFns  []func()
	timerFree []uint32

	// Per-flow hot state, struct-of-arrays: parallel to Flows, indexed by
	// Flow.idx, grown in AddFlow. The event loop's inner passes (carrier-
	// sense freeze, resume, blocked checks) touch only these dense arrays,
	// so a neighborhood walk reads a few cache lines instead of one Flow
	// struct per neighbor.
	flags      []uint8    // fInFlight | fCounterValid | fWaiting | fQueued
	counter    []int32    // frozen DCF backoff counter, whole slots
	idleSince  []float64  // when the current DIFS + countdown began
	startPos   []int32    // heap slot+1 of the flow's start entry; 0 while it has none
	mark       []uint32   // last markGen that visited the flow (scratch)
	starterIdx []int32    // the flow's slot in the current starter set (scratch)
	curTx      []*tx      // in-flight transmission; nil while contending or idle
	flowPast   [][]pastTx // finished air intervals, kept while they can still interfere
	// lastAirEnd is the air end of the latest frame the flow put on the
	// air (0 before its first). A flow's frames never overlap, so it bounds
	// the air end of the flow's live transmission and of every interval in
	// flowPast: a settle skips a candidate whose mark is at or before its
	// frame's start without reading the candidate's state.
	lastAirEnd []float64

	// Spatial index over transmitter positions (nil when CSRangeM <= 0 or
	// nothing is placed); unplaced flows contend with everyone and ride
	// along every neighborhood query.
	grid     *testbed.Grid
	indexed  int // prefix of Flows already in the index
	unplaced []int32
	maxFT    float64 // longest frame airtime seen: prune horizon for per-flow past intervals

	// Memoized geometry, invalidated by generation stamp: topoGen bumps
	// whenever the flow set or the placement changes (ensureIndex indexing
	// new flows, Reindex re-anchoring after mobility), so every cached
	// neighborhood list and interference price below is a pure function of
	// static geometry between those points. The caches consume no
	// randomness and change only the access path, never the visit order,
	// so runs stay byte-identical. Entries also remember the *Radio they
	// were built against: mobility installs fresh Radio values (see
	// Reindex), so a pointer mismatch detects stale geometry exactly.
	topoGen  uint32
	nbGen    []uint32   // generation nbList was built at
	nbRadio  []*Radio   // the flow's Radio when nbList was built
	nbList   [][]int32  // cached carrier-sense neighborhood (grid hits ascending, then unplaced)
	ixGen    []uint32   // generation ixCands and sigPow were built at
	ixRadio  []*Radio   // the flow's Radio when ixCands and sigPow were built
	ixCands  [][]ixCand // cached interferer candidates with per-pair prices
	sigPow   []float64  // 10^(SNRdB/10) of the serving link, built with ixCands
	allFlows []int32    // shared everyone-contends list for the no-grid path

	// Admission queue: flows that need a fresh look at the top of the next
	// Step (new frame, retry counter, carrier-sense state), processed in
	// registration order so RNG consumption is deterministic.
	admitQ []int32

	// Scratch buffers reused across Steps (the hot loop). nbufA and nbufB
	// serve the grid queries inside cache rebuilds (a rebuild holds both
	// query results at once to size its list exactly); steady-state
	// neighborhood walks read the cached per-flow lists and allocate
	// nothing.
	startFlows []*Flow
	starters   []*tx
	interf     []interferer
	edges      []edge
	grouped    []bool
	group      []int
	nbufA      []int32
	nbufB      []int32
	markGen    uint32
}

// ixCand is one memoized interferer candidate of a flow: a flow the
// settle scan can reach, priced once per topology generation
// against its current Radio. pow is the candidate transmitter's median
// interference power at the owning flow's receiver (linear; 0 when the
// pair is not priced), inCS its carrier-sense relation to the owning
// flow. The Radio the price was computed against is not stored: within a
// topology generation it is by contract the candidate's current Radio
// (Reindex invalidates every list, and in-place Radio mutation is
// unsupported), so consumers read it off the flow — and intervals sent
// under a *different* radio than the flow's current one (a past
// transmission from before a mobility epoch) fall back to direct
// computation. Keeping the struct pointer-free matters at city scale:
// 100k flows hold ~100 candidates each, and a pointer field would make
// every GC cycle mark the entire cache.
type ixCand struct {
	fi   int32
	inCS bool
	pow  float64
}

// New returns a simulator over the given MAC timing, drawing all randomness
// from rng.
func New(m mac.Params, rng *rand.Rand) *Sim {
	return &Sim{Mac: m, Rng: rng}
}

// AddFlow registers a flow and returns it (for accounting reads after Run).
func (s *Sim) AddFlow(f *Flow) *Flow {
	f.idx = int32(len(s.Flows))
	s.Flows = append(s.Flows, f)
	s.growState()
	s.enqueueAdmit(f)
	return f
}

// growState extends the per-flow state arrays to cover every registered
// flow (zero values: idle, no counter, no cached geometry).
func (s *Sim) growState() {
	for len(s.flags) < len(s.Flows) {
		s.flags = append(s.flags, 0)
		s.counter = append(s.counter, 0)
		s.idleSince = append(s.idleSince, 0)
		s.startPos = append(s.startPos, 0)
		s.mark = append(s.mark, 0)
		s.starterIdx = append(s.starterIdx, 0)
		s.curTx = append(s.curTx, nil)
		s.flowPast = append(s.flowPast, nil)
		s.lastAirEnd = append(s.lastAirEnd, 0)
		s.nbGen = append(s.nbGen, 0)
		s.nbRadio = append(s.nbRadio, nil)
		s.nbList = append(s.nbList, nil)
		s.ixGen = append(s.ixGen, 0)
		s.ixRadio = append(s.ixRadio, nil)
		s.ixCands = append(s.ixCands, nil)
		s.sigPow = append(s.sigPow, 0)
	}
}

// Wake tells the scheduler that f may have traffic again. Flows whose
// HasTraffic flips through their own Done hook (every backlogged scenario)
// are rescheduled automatically; a predicate flipped from outside the
// flow's own hooks needs a Wake so the indexed scheduler re-examines it.
func (s *Sim) Wake(f *Flow) { s.enqueueAdmit(f) }

// ScheduleAt registers fn to run when the virtual clock reaches t (in
// seconds; a t already in the past runs at the current instant's drain).
// Timer callbacks are the simulator's hook for traffic arrivals, mobility
// epochs, and churn: they fire within Step's event drain, after the
// deliveries, occupancy retirements, and countdown-expiry collection of
// the same instant, in schedule order — so their RNG consumption (they may
// draw from Sim.Rng) and their side effects (Wake, AddFlow, Reindex,
// further ScheduleAt calls) are deterministic. Frames whose countdowns
// expired at the same instant hit the air after the callbacks run.
func (s *Sim) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.timerSeq++
	var slot uint32
	if n := len(s.timerFree); n > 0 {
		slot = s.timerFree[n-1]
		s.timerFree = s.timerFree[:n-1]
		s.timerFns[slot] = fn
	} else {
		slot = uint32(len(s.timerFns))
		s.timerFns = append(s.timerFns, fn)
	}
	s.pushEvent(event{t: t, kind: evTimer, seq: s.timerSeq, slot: slot})
}

// takeTimer claims a fired timer event's callback and recycles its slot.
func (s *Sim) takeTimer(e event) func() {
	fn := s.timerFns[e.slot]
	s.timerFns[e.slot] = nil
	s.timerFree = append(s.timerFree, e.slot)
	return fn
}

// Now returns the virtual time elapsed so far, in seconds.
func (s *Sim) Now() float64 { return s.now }

// BusyTime returns the virtual time the medium spent carrying frames and
// acknowledgments, summed over concurrent neighborhoods — under spatial
// reuse it may exceed Now (utilization above 1 is the reuse win).
func (s *Sim) BusyTime() float64 { return s.busy }

// Stats adds up every registered flow's Stats.
func (s *Sim) Stats() Stats {
	var st Stats
	for _, f := range s.Flows {
		st.Add(f.Stats)
	}
	return st
}

// backoffSlots draws a backoff in whole slots for the given retry attempt.
func (s *Sim) backoffSlots(attempt int) int {
	return s.Rng.Intn(s.Mac.CW(attempt) + 1)
}

// inRange reports whether a transmitter at the given geometry is within
// f's carrier-sense range. The zero spatial configuration — no range, or
// missing geometry on either side — senses everything.
func (s *Sim) inRange(f *Flow, r *Radio) bool {
	if s.CSRangeM <= 0 || f.Radio == nil || r == nil {
		return true
	}
	return testbed.Dist(f.Radio.TxPos, r.TxPos) <= s.CSRangeM
}

// startTime returns when flow i's countdown expires: the moment its
// neighborhood went idle, plus DIFS, plus its remaining backoff slots. The
// expression is shared by the start-event push and the start processing so
// equal-countdown flows compare exactly equal (that tie is a collision).
func (s *Sim) startTime(i int32) (wait, start float64) {
	wait = s.Mac.DIFS() + float64(s.counter[i])*s.Mac.SlotTime
	return wait, s.idleSince[i] + wait
}

// interferer is one transmission overlapping a frame under resolution:
// its interference power at the frame's receiver (median path loss,
// linear) and the overlap interval, clipped to the frame's airtime.
type interferer struct {
	power    float64
	from, to float64
}

// Interference is the interference context of one delivery draw, passed
// to Flow.Deliver: how much the frame's effective SNR was degraded by the
// simultaneous transmissions its decode nevertheless survived.
type Interference struct {
	// SNRScale is the linear factor (<= 1) to apply to the serving link's
	// per-subcarrier SNRs; 1 for a clean (or undegraded) reception.
	SNRScale float64
	// SINRdB is the frame's effective SNR in dB; +Inf when nothing
	// overlapped the frame in the air.
	SINRdB float64
}

// NoInterference is the context of a clean reception.
func NoInterference() Interference {
	return Interference{SNRScale: 1, SINRdB: math.Inf(1)}
}

// effectiveSINRdB prices frame r against the given interference history:
// the serving link's SNR over the worst *simultaneous* interference power
// the frame saw at its receiver, plus noise, in dB. Interferers are
// additive only while their air intervals actually coincide — two
// successive far-cell frames are not a doubled interferer. The
// interferers' intervals are clipped to r's air interval, whose end the
// sweep takes from r. The serving power is the sigPow memo of r's flow,
// current because resolve refreshed the flow's candidate list, which
// builds it, before settling. Deterministic: no RNG is consumed.
func (s *Sim) effectiveSINRdB(r *tx, interferers []interferer) float64 {
	sinr := s.sigPow[r.f.idx] / (1 + s.worstSimultaneous(interferers, r.airEnd))
	return 10 * math.Log10(sinr)
}

// worstSimultaneous sweeps the interferers' overlap intervals, each
// clipped to a frame that leaves the air at airEnd, and returns the
// maximum concurrently-active interference power sum. Interval edges at
// equal times retire before they add (intervals are half-open), and
// additions commute, so the maximum is independent of tie order — and of
// the order interferers were accumulated in. The removals at airEnd are
// never swept: an overlap starts before the frame ends, so no addition
// lands at airEnd, and in (t, dp) order those removals follow the last
// addition, where they can only lower the running sum, never the maximum.
// The sum thus visits the all-edges sweep's float sequence minus its
// trailing removals, and the maximum keeps its bits, which
// TestWorstSimultaneousMatchesReference checks against that sweep.
func (s *Sim) worstSimultaneous(interferers []interferer, airEnd float64) float64 {
	edges := s.edges[:0]
	for _, g := range interferers {
		edges = append(edges, edge{t: g.from, dp: g.power})
		if g.to != airEnd {
			edges = append(edges, edge{t: g.to, dp: -g.power})
		}
	}
	s.edges = edges
	// The key covers both fields, so elements comparing equal are identical
	// values — any correct sort yields the same array, and the accumulation
	// below therefore visits the exact same float sequence regardless of
	// how the sort got there (float addition is order-sensitive; the sorted
	// array is not).
	sortEdges(edges)
	cur, worst := 0.0, 0.0
	for _, e := range edges {
		cur += e.dp
		if cur > worst {
			worst = cur
		}
	}
	return worst
}

// edge is one end of an interference interval in the sweep.
type edge struct {
	t  float64
	dp float64
}

// edgeLess orders sweep edges by (t, dp) ascending: removals first at
// equal times. Both keys are finite (clock times and positive powers), so
// < is a strict weak order here.
func edgeLess(a, b edge) bool { return a.t < b.t || (a.t == b.t && a.dp < b.dp) }

// sortEdges sorts the sweep edges by (t, dp) ascending with an inlined
// comparator: the sweep runs once per interfered settle, and the closure-
// call machinery of the generic sort dominated the settle profile.
// Insertion sort covers the short common case; wider settles run a
// median-of-three quicksort (recursing into the smaller half) down to the
// insertion threshold. The key is total over distinct elements, so the
// output array is unique — identical to what the generic sort produced —
// no matter which algorithm gets there.
func sortEdges(e []edge) {
	for len(e) > 32 {
		j := partitionEdges(e)
		if j < len(e)-j {
			sortEdges(e[:j])
			e = e[j:]
		} else {
			sortEdges(e[j:])
			e = e[:j]
		}
	}
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && edgeLess(x, e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

// partitionEdges Hoare-partitions e around a median-of-three pivot and
// returns the split point: e[:ret] <= pivot <= e[ret:] element-wise, with
// both sides non-empty.
func partitionEdges(e []edge) int {
	m := len(e) / 2
	n := len(e) - 1
	if edgeLess(e[m], e[0]) {
		e[m], e[0] = e[0], e[m]
	}
	if edgeLess(e[n], e[0]) {
		e[n], e[0] = e[0], e[n]
	}
	if edgeLess(e[n], e[m]) {
		e[n], e[m] = e[m], e[n]
	}
	p := e[m]
	i, j := 0, n
	for {
		for edgeLess(e[i], p) {
			i++
		}
		for edgeLess(p, e[j]) {
			j--
		}
		if i >= j {
			return j + 1
		}
		e[i], e[j] = e[j], e[i]
		i++
		j--
	}
}

// interferenceModeled reports whether the interference model applies to
// f's receptions (capture within collisions, corruption by hidden
// terminals, delivery-draw degradation).
func (s *Sim) interferenceModeled(f *Flow) bool {
	return s.Model != nil && s.Env != nil && f.Radio != nil
}

// pushEvent adds one event to the pending min-heap (4-ary).
func (s *Sim) pushEvent(e event) {
	s.events = append(s.events, e)
	s.siftUp(len(s.events)-1, e)
}

// popEvent removes and returns the earliest pending event.
func (s *Sim) popEvent() event {
	top := s.events[0]
	s.removeAt(0)
	return top
}

// removeAt deletes the heap entry at slot k: the tail entry fills the hole
// and sifts whichever way restores the heap order.
func (s *Sim) removeAt(k int) {
	h := s.events
	if h[k].kind == evStart {
		s.startPos[h[k].seq] = 0
	}
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the tx pointer
	s.events = h[:n]
	switch {
	case k == n: // the tail entry itself left: nothing to refill
	case k > 0 && eventLess(last, h[(k-1)/4]):
		s.siftUp(k, last)
	default:
		s.siftDown(k, last)
	}
}

// place writes e into heap slot i; a start entry's flow records the slot.
func (s *Sim) place(i int, e event) {
	s.events[i] = e
	if e.kind == evStart {
		s.startPos[e.seq] = int32(i + 1)
	}
}

// siftUp settles e into the hole at slot i, moving each parent that e
// precedes down a level.
func (s *Sim) siftUp(i int, e event) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(e, h[p]) {
			break
		}
		s.place(i, h[p])
		i = p
	}
	s.place(i, e)
}

// siftDown settles e into the hole at slot i, moving the least of up to
// four children up while it precedes e.
func (s *Sim) siftDown(i int, e event) {
	h := s.events
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, last := c+1, min(c+4, n); j < last; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		s.place(i, h[m])
		i = m
	}
	s.place(i, e)
}

// newTx takes a transmission from the free pool, or allocates one.
func (s *Sim) newTx() *tx {
	if n := len(s.txFree); n > 0 {
		r := s.txFree[n-1]
		s.txFree = s.txFree[:n-1]
		*r = tx{}
		return r
	}
	return &tx{}
}

// Reindex rebuilds the spatial index from the flows' current Radio
// geometry, in registration order. Scenario code that moves flows mid-run
// (mobility epochs) swaps in updated Radio values from a timer callback
// and calls Reindex from that same callback, so every subsequent
// carrier-sense and interference query sees the new positions. The
// rebuild consumes no randomness and visits flows in registration order,
// so it is deterministic at any worker count. Interference pricing of
// frames still in the air reads each flow's Radio pointer at settle time;
// mobility code MUST install a fresh *Radio value rather than mutate the
// old one in place: retired intervals keep the pointer they were sent
// under, and the geometry memos (neighbor lists, per-pair interference
// prices, serving-link powers) are keyed by (generation, *Radio), so a
// fresh pointer plus the Reindex call invalidates them exactly, while an
// in-place mutation would go unseen — by the spatial index and the memos
// alike.
func (s *Sim) Reindex() {
	s.grid = nil
	s.indexed = 0
	s.unplaced = s.unplaced[:0]
	s.topoGen++
	s.ensureIndex()
}

// ensureIndex brings the spatial index up to date with Flows: placed flows
// enter the grid under their registration index, unplaced flows join the
// everyone-contends list. Positions are static between Reindex calls.
// Indexing new flows changes neighborhoods, so it advances the topology
// generation and thereby invalidates every cached neighborhood list.
func (s *Sim) ensureIndex() {
	if s.indexed == len(s.Flows) {
		return
	}
	s.growState()
	s.topoGen++
	for ; s.indexed < len(s.Flows); s.indexed++ {
		f := s.Flows[s.indexed]
		f.idx = int32(s.indexed)
		if f.Radio == nil {
			s.unplaced = append(s.unplaced, f.idx)
			continue
		}
		if s.CSRangeM > 0 {
			if s.grid == nil {
				s.grid = testbed.NewGrid(s.CSRangeM)
			}
			s.grid.Add(s.indexed, f.Radio.TxPos)
		}
	}
}

// nearby returns the indices of every flow that shares a carrier-sense
// neighborhood with f — including f itself. Grid hits come first in
// ascending id order, then the unplaced flows in registration order, so
// iteration is deterministic. The list is memoized per flow per topology
// generation; callers must treat it as read-only and must not hold it
// across a Reindex.
func (s *Sim) nearby(f *Flow) []int32 {
	if s.grid == nil || f.Radio == nil {
		return s.allContenders()
	}
	i := f.idx
	if s.nbGen[i] == s.topoGen && s.nbRadio[i] == f.Radio {
		return s.nbList[i]
	}
	nb := s.grid.Near(f.Radio.TxPos, s.CSRangeM, s.nbList[i][:0])
	nb = append(nb, s.unplaced...)
	s.nbList[i] = nb
	s.nbRadio[i] = f.Radio
	s.nbGen[i] = s.topoGen
	return nb
}

// allContenders returns the shared everyone-contends list (the no-grid
// degenerate neighborhood), rebuilt only when flows were added.
func (s *Sim) allContenders() []int32 {
	if len(s.allFlows) != len(s.Flows) {
		s.allFlows = s.allFlows[:0]
		for i := range s.Flows {
			s.allFlows = append(s.allFlows, int32(i))
		}
	}
	return s.allFlows
}

// blocked reports whether some in-range transmission currently occupies
// f's neighborhood.
func (s *Sim) blocked(f *Flow) bool {
	i := f.idx
	for _, gi := range s.nearby(f) {
		if gi != i && s.curTx[gi] != nil {
			return true
		}
	}
	return false
}

// enqueueAdmit schedules f for the admission pass at the top of the next
// Step.
func (s *Sim) enqueueAdmit(f *Flow) {
	if s.flags[f.idx]&fQueued != 0 {
		return
	}
	s.flags[f.idx] |= fQueued
	s.admitQ = append(s.admitQ, f.idx)
}

// processAdmissions runs the admission pass over the queued flows in
// registration order — the deterministic-RNG contract: new head-of-line
// frames prepare and flows without a live counter draw one, exactly as the
// historical every-flow scan did for the flows it would have touched.
func (s *Sim) processAdmissions() {
	if len(s.admitQ) == 0 {
		return
	}
	slices.Sort(s.admitQ)
	for _, i := range s.admitQ {
		s.flags[i] &^= fQueued
		s.admit(s.Flows[i])
	}
	s.admitQ = s.admitQ[:0]
}

// admit gives one idle flow its fresh look: pull a new head-of-line frame
// (Prepare draw), draw a backoff counter if none is banked, and enter the
// countdown — immediately when the neighborhood is clear, otherwise frozen
// until an in-range occupancy ends.
func (s *Sim) admit(f *Flow) {
	i := f.idx
	if s.curTx[i] != nil {
		return
	}
	fl := s.flags[i]
	if fl&fInFlight == 0 {
		if f.HasTraffic == nil || !f.HasTraffic() {
			s.flags[i] = fl &^ fWaiting
			return
		}
		fl |= fInFlight
		s.flags[i] = fl
		f.attempt = 0
		f.frameAir = 0
		f.rateIdx = 0
		if f.Prepare != nil {
			f.rateIdx = f.Prepare(s.Rng)
		}
	}
	if fl&fCounterValid == 0 {
		s.counter[i] = int32(s.backoffSlots(f.attempt))
		fl |= fCounterValid
		s.flags[i] = fl
	}
	if s.blocked(f) {
		if fl&fWaiting != 0 {
			// Woken after a mobility epoch moved the flow into range of a
			// live transmission: its countdown stops until that ends.
			s.removeAt(int(s.startPos[i]) - 1)
		}
		s.flags[i] = fl &^ fWaiting
		return
	}
	if fl&fWaiting == 0 {
		s.flags[i] = fl | fWaiting
		s.idleSince[i] = s.now
		s.pushStart(f)
	}
}

// pushStart schedules f's countdown expiry as the flow's one start entry.
// Only a flow entering its countdown gets here, and every transition out
// of the countdown (start, freeze, blocked) removes the entry, so a live
// one is a scheduler bug.
func (s *Sim) pushStart(f *Flow) {
	i := f.idx
	if s.startPos[i] != 0 {
		panic(fmt.Sprintf("netsim: flow %d (%s) entered its countdown with a start already pending", i, f.Name))
	}
	_, st := s.startTime(i)
	s.pushEvent(event{t: st, kind: evStart, seq: int64(i)})
}

// Step advances the simulator to its next event — a frame starting,
// a frame's airtime ending (delivery settles), or a transmission's
// occupancy ending (its neighborhood frees up) — and processes every event
// scheduled at that instant. It returns false — without consuming
// randomness or advancing the clock — once no flow has traffic and nothing
// is on the air.
func (s *Sim) Step() bool {
	s.ensureIndex()

	// Admission pass: flows touched by the previous event round (new
	// frames, retry counters) take their RNG draws in registration order
	// while the clock still reads the previous event time.
	s.processAdmissions()

	if len(s.events) == 0 {
		// Quiescent: nothing on the air, no countdown pending. Re-examine
		// every flow (registration order) so traffic that appeared without
		// a Wake — the historical scheduler rescanned every Step — still
		// gets picked up, then report drained if nothing woke.
		for _, f := range s.Flows {
			if s.curTx[f.idx] == nil && s.flags[f.idx]&fQueued == 0 {
				s.admit(f)
			}
		}
		if len(s.events) == 0 {
			return false
		}
	}

	// Drain every event scheduled at the earliest pending instant, in
	// phase order: deliveries settle (creation order), occupancies retire
	// (creation order), countdown expiries collect (registration order).
	// An unacked delivery settles into an occupancy end at the same
	// instant; the heap surfaces it within this same drain.
	t := s.events[0].t
	s.now = t
	startFlows := s.startFlows[:0]
	for len(s.events) > 0 && s.events[0].t == t {
		e := s.popEvent()
		switch e.kind {
		case evAirEnd:
			s.resolve(e.r)
		case evOccEnd:
			s.retire(e.r)
		case evStart:
			startFlows = append(startFlows, s.Flows[e.seq])
		default: // evTimer
			s.takeTimer(e)()
		}
	}
	s.startFlows = startFlows

	// Starts: every countdown that expired at this instant puts its frame
	// on the air. The flows were collected first so that one starter's
	// carrier-sense freeze cannot knock out another flow starting at the
	// same instant — simultaneous in-range starts are a collision, and
	// they form collision groups below.
	if len(startFlows) > 0 {
		starters := s.starters[:0]
		for _, f := range startFlows {
			i := f.idx
			wait, st := s.startTime(i)
			r := s.newTx()
			r.f, r.seq = f, s.txSeq
			s.txSeq++
			r.base, r.wait, r.start, r.ft = s.idleSince[i], wait, st, f.FrameTime(f.rateIdx)
			r.cost = r.wait + r.ft
			r.airEnd = r.base + r.cost
			r.end = r.airEnd // provisional; finalized when the delivery settles
			s.curTx[i] = r
			s.lastAirEnd[i] = r.airEnd
			s.flags[i] &^= fWaiting | fCounterValid // the counter is consumed by this attempt
			if r.ft > s.maxFT {
				s.maxFT = r.ft
			}
			s.pushEvent(event{t: r.airEnd, kind: evAirEnd, seq: r.seq, r: r})
			starters = append(starters, r)
		}
		s.starters = starters

		// Carrier-sense freeze: every waiting flow in range of a starter
		// banks the idle slots that elapsed before the frame hit the air
		// and freezes (DCF frozen backoff), resuming — not redrawing —
		// when its neighborhood frees up.
		difs := s.Mac.DIFS()
		for _, r := range starters {
			for _, gi := range s.nearby(r.f) {
				fl := s.flags[gi]
				if s.curTx[gi] != nil || fl&(fInFlight|fWaiting) != (fInFlight|fWaiting) {
					continue
				}
				s.counter[gi] -= int32(elapsedSlots(t-s.idleSince[gi]-difs, s.Mac.SlotTime, int(s.counter[gi])))
				s.flags[gi] = fl &^ fWaiting
				s.removeAt(int(s.startPos[gi]) - 1) // the countdown's start entry goes with it
			}
		}

		s.countGroups(starters)
	}
	return true
}

// retire ends one transmission's occupancy: the flow leaves the air, the
// finished interval is remembered for interference pricing, the flow is
// queued for re-admission, and frozen in-range neighbors whose
// neighborhoods are now clear resume their countdowns.
func (s *Sim) retire(r *tx) {
	f := r.f
	i := f.idx
	s.curTx[i] = nil
	s.flags[i] &^= fWaiting
	// Keep the interval on the flow's slot, pruned against the oldest
	// instant a still-unresolved frame could have started (an unresolved
	// frame's airtime ends after now and spans at most the longest frame
	// seen).
	cutoff := s.now - s.maxFT
	kept := s.flowPast[i][:0]
	for _, p := range s.flowPast[i] {
		if p.airEnd > cutoff {
			kept = append(kept, p)
		}
	}
	s.flowPast[i] = append(kept, pastTx{radio: f.Radio, start: r.start, airEnd: r.airEnd})
	s.enqueueAdmit(f)
	s.txFree = append(s.txFree, r)

	// Resume: frozen in-range flows whose neighborhoods are now completely
	// clear restart their countdowns from this instant. Each checks its
	// own neighborhood — it may be in range of another transmission that
	// is still up. Flows queued for re-admission (their own attempt just
	// ended) are skipped: they have no banked counter yet and enter the
	// countdown through admit at the top of the next step, with the clock
	// still reading this instant — exactly like the historical scheduler's
	// admission-then-carrier-sense pass.
	for _, gi := range s.nearby(f) {
		fl := s.flags[gi]
		if gi == i || fl&(fInFlight|fCounterValid) != (fInFlight|fCounterValid) ||
			fl&(fWaiting|fQueued) != 0 || s.curTx[gi] != nil {
			continue
		}
		g := s.Flows[gi]
		if s.blocked(g) {
			continue
		}
		s.flags[gi] = fl | fWaiting
		s.idleSince[gi] = s.now
		s.pushStart(g)
	}
}

// elapsedSlots converts idle time after DIFS into whole backoff slots,
// clamped to [0, counter]. The epsilon absorbs float error from
// reconstructing slot counts out of absolute clock times.
func elapsedSlots(idle, slot float64, counter int) int {
	k := int(idle/slot + 1e-6)
	if k < 0 {
		return 0
	}
	if k > counter {
		return counter
	}
	return k
}

// countGroups tallies medium acquisitions and collisions among the
// transmissions that started simultaneously: connected components of the
// carrier-sense relation. Component counts are independent of walk order,
// so the spatial index only changes which pairs are examined.
func (s *Sim) countGroups(starters []*tx) {
	if len(starters) == 0 {
		return
	}
	if s.grid == nil || len(starters) == 1 {
		// One flow acquired its neighborhood (the common case), or there
		// is no grid — no carrier-sense range, or no placed flow — and
		// every starter senses every other: one group, which collided if
		// more than one flow started.
		s.Acquisitions++
		if len(starters) > 1 {
			s.CollisionRounds++
		}
		return
	}
	grouped := s.grouped[:0]
	for range starters {
		grouped = append(grouped, false)
	}
	group := s.group[:0]
	// Component walk over grid neighborhoods: each starter's flow is
	// stamped with its slot, and neighbors resolve through the index
	// instead of a pairwise scan over every starter.
	s.markGen++
	for i, r := range starters {
		fi := r.f.idx
		s.mark[fi] = s.markGen
		s.starterIdx[fi] = int32(i)
	}
	for i := range starters {
		if grouped[i] {
			continue
		}
		group = append(group[:0], i)
		grouped[i] = true
		for k := 0; k < len(group); k++ {
			for _, gi := range s.nearby(starters[group[k]].f) {
				if s.mark[gi] != s.markGen || grouped[s.starterIdx[gi]] {
					continue
				}
				grouped[s.starterIdx[gi]] = true
				group = append(group, int(s.starterIdx[gi]))
			}
		}
		s.Acquisitions++
		if len(group) > 1 {
			s.CollisionRounds++
		}
	}
	s.grouped, s.group = grouped, group
}

// resolve settles one frame at the end of its airtime against every
// transmission that overlapped it in the air: in-range overlaps are
// colliders (they necessarily started with it), out-of-range overlaps are
// hidden terminals at the receiver. It finalizes the transmission's
// occupancy (ACK exchange or ACK timeout) and bills the flow its attempt
// cost.
func (s *Sim) resolve(r *tx) {
	f := r.f
	f.Attempts++

	// Gather the transmissions whose frames overlapped r's from f's
	// memoized candidate list: every flow that can reach f (all of them
	// under an unbounded InterferenceRangeM), each carrying its pair price.
	// Each overlap contributes its median interference power over the
	// clipped overlap interval. The decode decision below is invariant to
	// accumulation order (collider counts and interval maxima commute, and
	// the sweep in worstSimultaneous sorts by a total key), so the list's
	// order is free. Geometry is static between Reindex calls, so a
	// steady-state settle does no path-loss arithmetic and allocates
	// nothing. A candidate whose latest frame left the air by the time r
	// started (lastAirEnd <= r.start) has nothing that overlaps r, live or
	// past, so the loop skips it before reading its state; scan would
	// reject each of its intervals at its first test, and the superseded-
	// radio prices skipped with them are pure.
	interf := s.interf[:0]
	nColliders := 0
	geometryKnown := true
	covered := r.start // air interval already billed busy by resolved colliders
	priced := s.interferenceModeled(f)
	scan := func(radio *Radio, start, airEnd float64, resolved bool, pow float64, inCS bool) {
		if airEnd <= r.start || start >= r.airEnd {
			return
		}
		if inCS {
			nColliders++
			if radio == nil {
				geometryKnown = false
			}
			if resolved && airEnd <= r.airEnd && airEnd > covered {
				covered = airEnd
			}
		}
		if radio == nil || !priced {
			return
		}
		g := interferer{power: pow, from: start, to: airEnd}
		if g.from < r.start {
			g.from = r.start
		}
		if g.to > r.airEnd {
			g.to = r.airEnd
		}
		interf = append(interf, g)
	}
	cands := s.ixCands[f.idx]
	if s.ixGen[f.idx] != s.topoGen || s.ixRadio[f.idx] != f.Radio {
		cands = s.buildIxCands(f)
	}
	for k := range cands {
		c := &cands[k]
		gi := c.fi
		if s.lastAirEnd[gi] <= r.start {
			continue
		}
		// The cached price was computed against the candidate's Radio at
		// build time, which within a topology generation is its current
		// Radio (the Reindex contract), so a live transmission always takes
		// the cached price. Past intervals recorded under a superseded
		// radio (from before a mobility epoch) are priced directly.
		cr := s.Flows[gi].Radio
		if a := s.curTx[gi]; a != nil && a != r {
			scan(cr, a.start, a.airEnd, a.resolved, c.pow, c.inCS)
		}
		for _, p := range s.flowPast[gi] {
			pow, inCS := c.pow, c.inCS
			if p.radio != cr {
				pow, inCS = s.priceInterferer(f, p.radio, priced)
			}
			scan(p.radio, p.start, p.airEnd, true, pow, inCS)
		}
	}
	s.interf = interf

	// Decode decision, delegated to the interference model. A collision
	// destroys the frame unless the model rules it captured (its effective
	// SINR clears the model's decode threshold); a clean-neighborhood
	// frame interfered by hidden terminals is corrupted when the model
	// says so, and otherwise carries the model's degradation into its
	// delivery draw.
	survives := true
	ix := NoInterference()
	settle := func(collision bool) bool {
		sinr := s.effectiveSINRdB(r, interf)
		v := s.Model.Settle(Reception{
			SINRdB:       sinr,
			ServingSNRdB: f.Radio.SNRdB,
			RateIdx:      f.rateIdx,
			Collision:    collision,
		})
		for len(f.RateCorruption) <= f.rateIdx {
			f.RateCorruption = append(f.RateCorruption, RateCorruption{})
		}
		f.RateCorruption[f.rateIdx].add(v)
		ix = Interference{SNRScale: v.SNRScale, SINRdB: sinr}
		return v.Survives
	}
	switch {
	case nColliders > 0:
		survives = s.interferenceModeled(f) && geometryKnown && settle(true)
		if survives {
			f.Captures++
		} else {
			f.Collisions++
		}
	case len(interf) > 0:
		survives = settle(false)
		if !survives {
			f.HiddenLosses++
		}
	}

	ok := false
	if survives {
		ok = f.Deliver(s.Rng, f.rateIdx, ix)
	}

	// Busy accounting: colliding frames overlap in the air, so bill only
	// the slice of this frame not already billed by an earlier-resolved
	// collider; a clean frame bills its full airtime. Hidden overlap is in
	// a different neighborhood and counts separately (BusyTime sums over
	// neighborhoods).
	busy := r.ft
	if nColliders > 0 {
		busy = r.airEnd - covered
		if busy < 0 {
			busy = 0
		}
	}
	if f.Acked {
		if ok {
			ack := s.Mac.SIFS + s.Mac.AckDuration()
			r.cost += ack
			busy += ack
		} else {
			r.cost += s.Mac.AckTimeout()
		}
	}
	r.end = r.base + r.cost
	r.resolved = true
	s.pushEvent(event{t: r.end, kind: evOccEnd, seq: r.seq, r: r})
	f.frameAir += r.cost
	f.AirTime += r.cost
	s.busy += busy
	if ok {
		s.finishFrame(f, true)
	} else {
		s.failAttempt(f)
	}
}

// buildIxCands rebuilds f's memoized interferer-candidate list. With a
// spatial index, a placed f and a finite InterferenceRangeM, the
// candidates are what two neighborhood queries reach — carrier-sense range
// around f's transmitter (every possible collider) and interference range
// around its receiver (every interferer loud enough to price) — plus the
// unplaced flows, first occurrence kept. Otherwise every registered flow
// is a candidate (infinite range). Each candidate is priced once against
// its current Radio; the list is valid until the topology generation
// advances or f's Radio is swapped. The serving link's linear SNR
// (sigPow) is a pure function of the same Radio, so it is built under the
// same stamp. Consumes no randomness.
func (s *Sim) buildIxCands(f *Flow) []ixCand {
	i := f.idx
	s.markGen++
	m := s.markGen
	priced := s.interferenceModeled(f)
	out := s.ixCands[i][:0]
	add := func(ids []int32) {
		for _, gi := range ids {
			if s.mark[gi] == m {
				continue
			}
			s.mark[gi] = m
			pow, inCS := s.priceInterferer(f, s.Flows[gi].Radio, priced)
			out = append(out, ixCand{fi: gi, inCS: inCS, pow: pow})
		}
	}
	if s.grid != nil && f.Radio != nil && s.InterferenceRangeM > 0 {
		// Both queries run before the list is assembled so it can be sized
		// in one exact allocation: at city scale these lists are the
		// largest structure in the sim, and append-doubling 100k of them
		// both churns twice the memory and leaves ~2x capacity stranded.
		csNb := s.grid.Near(f.Radio.TxPos, s.CSRangeM, s.nbufA[:0])
		ixNb := s.grid.Near(f.Radio.RxPos, s.InterferenceRangeM, s.nbufB[:0])
		if need := len(csNb) + len(ixNb) + len(s.unplaced); cap(out) < need {
			out = make([]ixCand, 0, need)
		}
		add(csNb)
		add(ixNb)
		add(s.unplaced)
		s.nbufA, s.nbufB = csNb[:0], ixNb[:0]
	} else {
		all := s.allContenders()
		if cap(out) < len(all) {
			out = make([]ixCand, 0, len(all))
		}
		add(all)
	}
	if f.Radio != nil {
		s.sigPow[i] = math.Pow(10, f.Radio.SNRdB/10)
	}
	s.ixCands[i] = out
	s.ixRadio[i] = f.Radio
	s.ixGen[i] = s.topoGen
	return out
}

// priceInterferer prices one interferer geometry against f's receiver: the
// interferer's median power at f's receiver (linear) and its carrier-sense
// relation to f. Pairs involving a nil radio are never priced (unplaced
// flows defer to everyone: inCS true, no interference term); unpriced
// flows only need the carrier-sense bit.
func (s *Sim) priceInterferer(f *Flow, radio *Radio, priced bool) (pow float64, inCS bool) {
	if radio != nil && priced {
		d := testbed.Dist(radio.TxPos, f.Radio.RxPos)
		pow = math.Pow(10, s.Env.MeanSNRdB(d)/10)
	}
	return pow, s.inRange(f, radio)
}

// failAttempt advances a flow past a failed attempt: unacked flows complete
// their single attempt; acked flows retry until the MAC retry limit.
func (s *Sim) failAttempt(f *Flow) {
	if !f.Acked {
		s.finishFrame(f, false)
		return
	}
	f.attempt++
	if f.attempt >= s.Mac.RetryLimit {
		s.finishFrame(f, false)
	}
}

// inFlight reports whether f's head-of-line frame is in service (between
// its admission draw and its Done). f must be registered with AddFlow.
func (s *Sim) inFlight(f *Flow) bool {
	return int(f.idx) < len(s.flags) && s.flags[f.idx]&fInFlight != 0
}

// finishFrame retires the head-of-line frame and notifies the flow.
func (s *Sim) finishFrame(f *Flow, delivered bool) {
	if delivered {
		f.Delivered++
	} else {
		f.Dropped++
	}
	s.flags[f.idx] &^= fInFlight
	if f.Done != nil {
		f.Done(f.rateIdx, delivered, f.frameAir)
	}
}

// maxSteps bounds a run's scheduler events, a safety net against scenario
// bugs (a flow whose backlog never drains, events that do not advance the
// clock): when it trips, the run panics rather than let an experiment
// publish tables from a silently truncated run. One frame attempt spans up
// to three events (start, frame-air end, occupancy end), so the cap sits
// well above any real workload.
const maxSteps = 1 << 26

// Run steps the simulator until every flow is drained.
func (s *Sim) Run() { s.RunUntil(math.Inf(1)) }

// RunUntil steps the simulator until the virtual clock reaches the
// deadline (in seconds) or every flow drains, whichever comes first — the
// fixed-time-window saturation mode: flows may offer unbounded backlogs
// and the run measures what the medium carried in the window, so no single
// starved flow gates the elapsed time. The clock overshoots the deadline
// by at most the final event's span; callers measure throughput over the
// actual Now().
func (s *Sim) RunUntil(deadline float64) {
	for i := 0; i < maxSteps; i++ {
		if s.now >= deadline || !s.Step() {
			return
		}
	}
	panic(fmt.Sprintf("netsim: %d flows, clock at %.6fs of %.6fs after %d scheduler events — a backlog never drains or events are not advancing the clock",
		len(s.Flows), s.now, deadline, maxSteps))
}
