package netsim

import "math/rand"

// This file is netsim's traffic layer: arrival processes that feed a
// flow's packet queue over virtual time, instead of the infinite backlog
// the classic saturation experiments assume. Backlogged saturation stays
// the degenerate case — a flow with no Traffic attached and a plain
// HasTraffic predicate behaves exactly as before, draw for draw.
//
// The layer is built entirely on ScheduleAt timer events: each attached
// Traffic keeps at most one pending arrival timer, whose callback
// enqueues the packet, wakes the flow, draws the next interarrival gap
// from the simulator's RNG, and schedules the next timer. Because timer
// callbacks fire in deterministic (time, schedule-order) heap order and
// draw from Sim.Rng single-threaded, the whole arrival history is a pure
// function of the seed. A flow whose process never offers a packet is
// never woken, never draws a backoff or rate sample, and consumes zero
// airtime and zero RNG draws — idle flows are free.

// ArrivalProcess generates one flow's packet arrivals as successive
// interarrival gaps. Implementations draw any randomness they need from
// the rng they are handed (the simulator's own, so draws interleave
// deterministically with contention draws) and must not consult any other
// source.
type ArrivalProcess interface {
	// NextGap returns the time in seconds until the next packet arrival.
	// A negative gap ends the process: no further packets arrive and no
	// further randomness is consumed.
	NextGap(rng *rand.Rand) float64
}

// Poisson is a memoryless arrival process: exponential interarrival gaps
// at RatePps packets per second. A non-positive rate offers no packets at
// all (and draws nothing — the idle flow).
type Poisson struct {
	RatePps float64
}

// NextGap draws one exponential interarrival gap.
func (p Poisson) NextGap(rng *rand.Rand) float64 {
	if p.RatePps <= 0 {
		return -1
	}
	return rng.ExpFloat64() / p.RatePps
}

// OnOff is a bursty arrival process: exponentially distributed ON periods
// (mean MeanOnSec) during which packets arrive as a Poisson stream at
// RatePps, separated by exponentially distributed silent OFF periods
// (mean MeanOffSec). The long-run offered rate is
// RatePps · MeanOnSec / (MeanOnSec + MeanOffSec).
type OnOff struct {
	RatePps    float64 // arrival rate while a burst is on
	MeanOnSec  float64 // mean burst duration
	MeanOffSec float64 // mean silence between bursts

	onLeft  float64 // time remaining in the current ON period
	started bool
}

// NextGap advances the ON/OFF renewal state until the next arrival lands
// inside an ON period, accumulating skipped silences into the gap.
func (p *OnOff) NextGap(rng *rand.Rand) float64 {
	if p.RatePps <= 0 || p.MeanOnSec <= 0 {
		return -1
	}
	gap := 0.0
	if !p.started {
		p.started = true
		p.onLeft = p.MeanOnSec * rng.ExpFloat64()
	}
	for {
		g := rng.ExpFloat64() / p.RatePps
		if g <= p.onLeft {
			p.onLeft -= g
			return gap + g
		}
		gap += p.onLeft
		if p.MeanOffSec > 0 {
			gap += p.MeanOffSec * rng.ExpFloat64()
		}
		p.onLeft = p.MeanOnSec * rng.ExpFloat64()
	}
}

// TrafficConfig attaches an arrival process to a flow.
type TrafficConfig struct {
	// Process generates the flow's arrivals. Required.
	Process ArrivalProcess
	// DeadlineSec drops a queued packet that has waited longer than this
	// before its service began (counted in the flow's Stats.Expired). 0
	// means no deadline. The packet currently in service is never expired
	// — the deadline gates service start, not completion.
	DeadlineSec float64
	// StartSec delays the first interarrival draw until this instant: the
	// flow joins the scenario mid-run (churn). 0 joins at the start.
	StartSec float64
	// StopSec makes the flow leave at this instant: arrivals cease, and
	// packets still queued are discarded (counted in the flow's
	// Stats.Abandoned — a departing client takes its queue with it). A
	// frame already on the air completes normally. 0 means the flow never
	// leaves.
	StopSec float64
}

// Traffic is one flow's attached arrival queue: FIFO arrival timestamps,
// deadline expiry, and churn. Created by Sim.AttachTraffic; it counts
// offered, expired and abandoned packets into its flow's Stats.
type Traffic struct {
	sim  *Sim
	flow *Flow
	cfg  TrafficConfig

	arrivals []float64 // arrival instant per queued packet
	head     int       // first live entry in arrivals (FIFO pop point)
	left     bool      // StopSec passed: no further arrivals or service
}

// AttachTraffic drives f's head-of-line queue from an arrival process:
// it installs the HasTraffic predicate and chains the Done hook, so the
// flow contends exactly while packets are queued and idles — consuming no
// airtime and no randomness — while its queue is empty. Call after the
// flow's other hooks are set and before the first Step. The returned
// Traffic reports the queue's backlog (Pending); its offered, expired and
// abandoned counts land in f.Stats.
func (s *Sim) AttachTraffic(f *Flow, cfg TrafficConfig) *Traffic {
	q := &Traffic{sim: s, flow: f, cfg: cfg}
	f.HasTraffic = q.hasTraffic
	done := f.Done
	f.Done = func(r int, delivered bool, airTime float64) {
		q.pop()
		if done != nil {
			done(r, delivered, airTime)
		}
	}
	// The first interarrival draw happens at StartSec, inside the timer
	// drain — not here — so attach order alone never consumes randomness
	// and a never-starting flow stays draw-free.
	s.ScheduleAt(cfg.StartSec, q.scheduleNext)
	if cfg.StopSec > 0 {
		s.ScheduleAt(cfg.StopSec, q.leave)
	}
	return q
}

// Pending returns the number of packets queued and not yet in service.
func (q *Traffic) Pending() int {
	n := len(q.arrivals) - q.head
	if q.sim.inFlight(q.flow) && n > 0 {
		n--
	}
	return n
}

// scheduleNext draws the next interarrival gap and schedules its arrival.
func (q *Traffic) scheduleNext() {
	if q.left {
		return
	}
	gap := q.cfg.Process.NextGap(q.sim.Rng)
	if gap < 0 {
		return
	}
	q.sim.ScheduleAt(q.sim.Now()+gap, q.arrive)
}

// arrive lands one packet: queue its timestamp, wake the flow, and
// schedule the next arrival.
func (q *Traffic) arrive() {
	if q.left {
		return
	}
	q.flow.Arrived++
	q.arrivals = append(q.arrivals, q.sim.Now())
	q.sim.Wake(q.flow)
	q.scheduleNext()
}

// hasTraffic is the flow's queue predicate: expire overdue heads, then
// report whether a packet is waiting. The scheduler only consults it when
// no frame is in service, so the expiry sweep never touches the packet a
// transmission is already carrying.
func (q *Traffic) hasTraffic() bool {
	if q.cfg.DeadlineSec > 0 {
		now := q.sim.Now()
		for q.head < len(q.arrivals) && now > q.arrivals[q.head]+q.cfg.DeadlineSec {
			q.head++
			q.flow.Expired++
		}
		q.compact()
	}
	return q.head < len(q.arrivals)
}

// pop retires the served head-of-line packet (chained into Flow.Done).
func (q *Traffic) pop() {
	if q.head < len(q.arrivals) {
		q.head++
	}
	q.compact()
}

// compact recycles the queue's backing array once fully drained.
func (q *Traffic) compact() {
	if q.head == len(q.arrivals) {
		q.arrivals = q.arrivals[:0]
		q.head = 0
	}
}

// leave executes the flow's departure at StopSec: pending arrivals cease
// and the queue is abandoned, except for a packet already in service,
// which completes normally.
func (q *Traffic) leave() {
	q.left = true
	keep := q.head
	if q.sim.inFlight(q.flow) && q.head < len(q.arrivals) {
		keep++ // the in-service packet rides out its transmission
	}
	q.flow.Abandoned += len(q.arrivals) - keep
	q.arrivals = q.arrivals[:keep]
	q.compact()
}
