package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// countingSource wraps a rand.Source and counts every draw, so tests can
// assert a scenario consumed exactly zero randomness.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// inService reports the packet a run left mid-transmission when its
// window closed: neither pending nor settled, so accounting checks add it.
func inService(s *Sim, f *Flow) int {
	if s.inFlight(f) {
		return 1
	}
	return 0
}

// arrivalFlow builds an acked flow ready for AttachTraffic: fixed airtime,
// fixed delivery probability, no backlog of its own.
func arrivalFlow(name string, ft, pDeliver float64) *Flow {
	return &Flow{
		Name:      name,
		Acked:     true,
		FrameTime: func(int) float64 { return ft },
		Deliver: func(rng *rand.Rand, _ int, _ Interference) bool {
			return rng.Float64() < pDeliver
		},
	}
}

func TestTimersFireInScheduleOrder(t *testing.T) {
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(1)))
	var got []int
	s.ScheduleAt(2e-3, func() { got = append(got, 2) })
	s.ScheduleAt(1e-3, func() { got = append(got, 1) })
	s.ScheduleAt(1e-3, func() { got = append(got, 10) }) // same instant: schedule order
	s.ScheduleAt(1e-3, func() {
		// Same-instant reschedule fires within the same drain.
		s.ScheduleAt(1e-3, func() { got = append(got, 11) })
	})
	runChecked(t, s, math.Inf(1))
	want := []int{1, 10, 11, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Now() != 2e-3 {
		t.Fatalf("clock %.6f, want 0.002", s.Now())
	}
}

func TestTimerInThePastRunsAtCurrentInstant(t *testing.T) {
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(1)))
	fired := -1.0
	s.ScheduleAt(1e-3, func() {
		s.ScheduleAt(0, func() { fired = s.Now() }) // in the past: clamped to now
	})
	runChecked(t, s, math.Inf(1))
	if fired != 1e-3 {
		t.Fatalf("past-dated timer fired at %.6f, want clamped to 0.001", fired)
	}
}

func TestIdleFlowZeroAirtimeZeroRNG(t *testing.T) {
	// A flow whose arrival process never offers a packet must consume zero
	// airtime and zero RNG draws: idle flows are free under the traffic
	// layer. The counting source observes every Int63 the simulator pulls.
	m := mac.Default(modem.Profile80211())
	cs := &countingSource{src: rand.NewSource(7)}
	s := New(m, rand.New(cs))
	f := s.AddFlow(arrivalFlow("idle", 1e-3, 1))
	s.AttachTraffic(f, TrafficConfig{Process: Poisson{RatePps: 0}})
	runChecked(t, s, math.Inf(1))
	if f.AirTime != 0 || f.Attempts != 0 || f.Delivered != 0 {
		t.Fatalf("idle flow transmitted: attempts=%d delivered=%d airtime=%.9f",
			f.Attempts, f.Delivered, f.AirTime)
	}
	if cs.draws != 0 {
		t.Fatalf("idle flow consumed %d RNG draws, want 0", cs.draws)
	}
	if s.Now() != 0 || s.BusyTime() != 0 {
		t.Fatalf("idle run advanced the medium: now=%.9f busy=%.9f", s.Now(), s.BusyTime())
	}
}

func TestPoissonArrivalsDrainAndAccount(t *testing.T) {
	// A lossless flow fed by a finite window of Poisson arrivals delivers
	// every packet that arrived, and the medium is idle between arrivals
	// (airtime well under the window at low load).
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(11)))
	f := s.AddFlow(arrivalFlow("poisson", 1e-3, 1))
	q := s.AttachTraffic(f, TrafficConfig{Process: Poisson{RatePps: 200}})
	const window = 0.5
	runChecked(t, s, window)
	if f.Arrived < 50 || f.Arrived > 150 {
		t.Fatalf("arrived %d packets in %.1fs at 200pps — process is off", f.Arrived, window)
	}
	if got := f.Delivered + f.Dropped + q.Pending() + inService(s, f); got != f.Arrived {
		t.Fatalf("accounting leak: delivered %d + dropped %d + pending %d != arrived %d",
			f.Delivered, f.Dropped, q.Pending(), f.Arrived)
	}
	// At 200 pps of 1 ms frames the flow is far from saturation: its own
	// airtime must be a small fraction of the window.
	if f.AirTime > 0.6*window {
		t.Fatalf("non-saturated flow burned %.3fs of a %.3fs window", f.AirTime, window)
	}
}

func TestOnOffArrivalsAreBursty(t *testing.T) {
	// The on/off process must offer roughly MeanOn/(MeanOn+MeanOff) of the
	// peak rate, and gaps must cluster: some interarrivals far exceed the
	// on-period spacing (the silences).
	rng := rand.New(rand.NewSource(5))
	p := &OnOff{RatePps: 1000, MeanOnSec: 0.02, MeanOffSec: 0.08}
	var total float64
	long := 0
	const n = 2000
	for i := 0; i < n; i++ {
		g := p.NextGap(rng)
		if g < 0 {
			t.Fatal("on/off process ended early")
		}
		total += g
		if g > 0.02 {
			long++
		}
	}
	rate := float64(n) / total
	if rate < 100 || rate > 350 {
		t.Fatalf("long-run rate %.0f pps, want near 200 (duty-cycled 1000)", rate)
	}
	if long == 0 {
		t.Fatal("no silence-spanning gaps — process is not bursty")
	}
}

func TestDeadlineExpiresStaleQueue(t *testing.T) {
	// Two flows share one medium; flow a is saturated enough that flow b's
	// tight-deadline packets often expire before service. Expired packets
	// must be counted and never delivered.
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(13)))
	hog := s.AddFlow(backloggedFlow("hog", 4000, 2e-3, 1))
	f := s.AddFlow(arrivalFlow("deadline", 1e-3, 1))
	q := s.AttachTraffic(f, TrafficConfig{
		Process:     Poisson{RatePps: 400},
		DeadlineSec: 1e-3,
	})
	runChecked(t, s, 1.0)
	if hog.Delivered == 0 || f.Arrived == 0 {
		t.Fatalf("degenerate run: hog=%d arrived=%d", hog.Delivered, f.Arrived)
	}
	if f.Expired == 0 {
		t.Fatal("tight deadline under contention expired nothing")
	}
	if got := f.Delivered + f.Dropped + f.Expired + q.Pending() + inService(s, f); got != f.Arrived {
		t.Fatalf("accounting leak: %d delivered + %d dropped + %d expired + %d pending != %d arrived",
			f.Delivered, f.Dropped, f.Expired, q.Pending(), f.Arrived)
	}
}

func TestChurnStartStopWindow(t *testing.T) {
	// A flow that joins at 0.2s and leaves at 0.4s must transmit only
	// within that window, and abandon whatever was still queued when it
	// left.
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(17)))
	f := s.AddFlow(arrivalFlow("churn", 1e-3, 1))
	q := s.AttachTraffic(f, TrafficConfig{
		Process:  Poisson{RatePps: 5000}, // saturating: a queue builds up
		StartSec: 0.2,
		StopSec:  0.4,
	})
	runChecked(t, s, 1.0)
	if f.Arrived == 0 || f.Delivered == 0 {
		t.Fatalf("flow never ran: arrived=%d delivered=%d", f.Arrived, f.Delivered)
	}
	if f.Abandoned == 0 {
		t.Fatal("saturating flow left nothing behind at StopSec")
	}
	if got := f.Delivered + f.Dropped + f.Abandoned + q.Pending() + inService(s, f); got != f.Arrived {
		t.Fatalf("accounting leak: %d delivered + %d dropped + %d abandoned + %d pending != %d arrived",
			f.Delivered, f.Dropped, f.Abandoned, q.Pending(), f.Arrived)
	}
	// All airtime fits inside [start, stop] plus at most one trailing frame.
	if s.Now() > 0.4+0.1 {
		t.Fatalf("medium active until %.3fs — flow did not leave at 0.4s", s.Now())
	}
}

func TestMidRunJoinViaTimer(t *testing.T) {
	// Churn joins: a timer adds a brand-new flow mid-run; the scheduler
	// indexes and serves it, and the result is identical to a second run
	// with the same seed.
	run := func() (int, float64) {
		m := mac.Default(modem.Profile80211())
		s := New(m, rand.New(rand.NewSource(23)))
		s.AddFlow(backloggedFlow("base", 500, 1e-3, 1))
		var late *Flow
		s.ScheduleAt(0.05, func() {
			late = s.AddFlow(backloggedFlow("late", 100, 1e-3, 1))
		})
		runChecked(t, s, math.Inf(1))
		return late.Delivered, s.Now()
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != 100 {
		t.Fatalf("late joiner delivered %d of 100", d1)
	}
	if d1 != d2 || t1 != t2 {
		t.Fatalf("mid-run join not deterministic: (%d, %.9f) vs (%d, %.9f)", d1, t1, d2, t2)
	}
}

func TestReindexMovesCarrierSenseNeighborhoods(t *testing.T) {
	// Two transmitter pairs start out-of-range (spatial reuse: both cells
	// drain concurrently). A mobility timer moves one transmitter next to
	// the other and calls Reindex; afterwards the flows contend, so total
	// elapsed time must exceed a run where they stay apart.
	elapsed := func(move bool) float64 {
		m := mac.Default(modem.Profile80211())
		s := New(m, rand.New(rand.NewSource(29)))
		s.CSRangeM = 30
		mk := func(x float64) *Flow {
			f := backloggedFlow("f", 1500, 1e-3, 1)
			f.Radio = &Radio{
				TxPos: testbed.Point{X: x, Y: 0},
				RxPos: testbed.Point{X: x, Y: 5},
				SNRdB: 30,
			}
			return f
		}
		a := mk(0)
		s.AddFlow(a)
		s.AddFlow(mk(200))
		if move {
			s.ScheduleAt(0.05, func() {
				a.Radio = &Radio{TxPos: testbed.Point{X: 199, Y: 0}, RxPos: testbed.Point{X: 199, Y: 5}, SNRdB: 30}
				s.Reindex()
				s.Wake(a)
			})
		}
		runChecked(t, s, math.Inf(1))
		return s.Now()
	}
	apart := elapsed(false)
	merged := elapsed(true)
	if merged <= apart*1.2 {
		t.Fatalf("merging neighborhoods did not slow the floor: apart %.4fs, merged %.4fs", apart, merged)
	}
	// And the merged run is reproducible.
	if m2 := elapsed(true); math.Abs(m2-merged) != 0 {
		t.Fatalf("mobility run not deterministic: %.9f vs %.9f", merged, m2)
	}
}

func TestMovedTransmitterDropsPendingCountdown(t *testing.T) {
	// Flow b counts down out of carrier-sense range of flow a, which is on
	// the air. A mobility epoch then moves b's transmitter next to a's,
	// reindexes and wakes b: b's countdown must stop, so b defers until
	// a's occupancy ends and no attempt collides. CW 0 pins every counter
	// at 0 and a 2 ms slot stretches DIFS, so the epoch lands inside b's
	// countdown.
	m := mac.Default(modem.Profile80211())
	m.CWMin, m.CWMax = 0, 0
	m.SlotTime = 2e-3
	s := New(m, rand.New(rand.NewSource(37)))
	s.CSRangeM = 30
	const ft = 10e-3
	radio := func(x float64) *Radio {
		return &Radio{TxPos: testbed.Point{X: x, Y: 0}, RxPos: testbed.Point{X: x, Y: 5}, SNRdB: 30}
	}
	a := s.AddFlow(placedFlow("a", 1, ft, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 0, Y: 5}, 30))
	aSettled := -1.0
	aDone := a.Done
	a.Done = func(r int, ok bool, air float64) {
		aDone(r, ok, air)
		aSettled = s.Now()
	}
	ready, bStart := false, -1.0
	b := s.AddFlow(&Flow{
		Name:       "b",
		Acked:      true,
		Radio:      radio(200),
		HasTraffic: func() bool { return ready },
		FrameTime: func(int) float64 {
			if bStart < 0 {
				bStart = s.Now()
			}
			return ft
		},
		Deliver: func(*rand.Rand, int, Interference) bool { return true },
		Done:    func(int, bool, float64) { ready = false },
	})
	s.ScheduleAt(5e-3, func() { // a is on the air from DIFS ≈ 4 ms
		ready = true
		s.Wake(b)
	})
	s.ScheduleAt(7e-3, func() { // b's countdown runs from 5 ms to ≈ 9 ms
		if s.curTx[a.idx] == nil || s.flags[b.idx]&fWaiting == 0 {
			t.Fatal("the epoch must find a on the air and b counting down")
		}
		b.Radio = radio(10)
		s.Reindex()
		s.Wake(b)
	})
	runChecked(t, s, math.Inf(1))

	if a.Collisions != 0 || b.Collisions != 0 || s.CollisionRounds != 0 {
		t.Fatalf("collisions: a=%d b=%d rounds=%d", a.Collisions, b.Collisions, s.CollisionRounds)
	}
	if aOccEnd := aSettled + m.SIFS + m.AckDuration(); bStart < aOccEnd {
		t.Fatalf("b started at %.6fs, inside a's occupancy (ends %.6fs)", bStart, aOccEnd)
	}
	if a.Delivered != 1 || b.Delivered != 1 {
		t.Fatalf("delivered a=%d b=%d, want 1 each", a.Delivered, b.Delivered)
	}
}
