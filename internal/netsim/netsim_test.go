package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// backloggedFlow builds an acked flow with `packets` frames of the given
// airtime and per-attempt delivery probability.
func backloggedFlow(name string, packets int, ft, pDeliver float64) *Flow {
	remaining := packets
	f := &Flow{
		Name:       name,
		Acked:      true,
		HasTraffic: func() bool { return remaining > 0 },
		FrameTime:  func(int) float64 { return ft },
	}
	f.Deliver = func(rng *rand.Rand, _ int, _ Interference) bool { return rng.Float64() < pDeliver }
	f.Done = func(_ int, _ bool, _ float64) { remaining-- }
	return f
}

// TestStatsAddCoversEveryField holds Stats to plain int counters that Add
// sums in full: every field gets a distinct value, and adding the struct
// to itself must double each one. A counter added to Stats but left out of
// Add, or a field that is not an int, fails it.
func TestStatsAddCoversEveryField(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if k := v.Field(i).Kind(); k != reflect.Int {
			t.Fatalf("Stats.%s is a %s, want a plain int counter", v.Type().Field(i).Name, k)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	st.Add(st)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("after Add, Stats.%s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}

func TestVirtualClockMatchesSingleFlowAccounting(t *testing.T) {
	// With a single flow there is no contention: the clock must advance by
	// exactly the flow's own medium time, and the busy time by exactly the
	// frames + ACKs it carried.
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(1)))
	const ft = 1e-3
	f := s.AddFlow(backloggedFlow("dl", 200, ft, 1)) // lossless
	runChecked(t, s, math.Inf(1))

	if f.Delivered != 200 || f.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d", f.Delivered, f.Dropped)
	}
	if math.Abs(s.Now()-f.AirTime) > 1e-12 {
		t.Fatalf("clock %.9f != flow airtime %.9f", s.Now(), f.AirTime)
	}
	wantBusy := 200 * (ft + m.SIFS + m.AckDuration())
	if math.Abs(s.BusyTime()-wantBusy) > 1e-9 {
		t.Fatalf("busy %.9f, want %.9f", s.BusyTime(), wantBusy)
	}
	// DIFS + backoff make Now strictly larger than busy.
	if s.Now() <= s.BusyTime() {
		t.Fatal("virtual time must include idle overhead")
	}
}

func TestClockMonotonicPerStep(t *testing.T) {
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(2)))
	s.AddFlow(backloggedFlow("a", 50, 1e-3, 0.7))
	s.AddFlow(backloggedFlow("b", 50, 5e-4, 0.7))
	prev := s.Now()
	for stepChecked(t, s) {
		if s.Now() <= prev {
			t.Fatalf("clock did not advance: %.9f -> %.9f", prev, s.Now())
		}
		prev = s.Now()
	}
	// Draining is idempotent: further steps neither run nor advance time.
	if stepChecked(t, s) || s.Now() != prev {
		t.Fatal("drained sim must stay put")
	}
}

func TestContentionSharesMediumFairly(t *testing.T) {
	// Two statistically identical flows must split deliveries roughly
	// evenly, and the shared run must take less virtual time than the two
	// flows back to back (they interleave on one medium; per-flow waits
	// overlap with the other's transmissions).
	m := mac.Default(modem.Profile80211())
	const pkts, ft = 400, 1e-3
	s := New(m, rand.New(rand.NewSource(3)))
	a := s.AddFlow(backloggedFlow("a", pkts, ft, 1))
	b := s.AddFlow(backloggedFlow("b", pkts, ft, 1))
	runChecked(t, s, math.Inf(1))

	if a.Delivered+b.Delivered != 2*pkts {
		t.Fatalf("delivered %d+%d", a.Delivered, b.Delivered)
	}
	if d := a.Delivered - b.Delivered; d > pkts/4 || d < -pkts/4 {
		t.Fatalf("unfair split: %d vs %d", a.Delivered, b.Delivered)
	}
	if s.Now() >= a.AirTime+b.AirTime {
		t.Fatalf("shared medium (%.4fs) should beat serial (%.4fs)", s.Now(), a.AirTime+b.AirTime)
	}
}

func TestCollisionsOccurAndAreAccounted(t *testing.T) {
	// Many contenders on CWMin=15 collide often. Colliding attempts must
	// fail, double the window, and show up in both per-flow and simulator
	// counters.
	m := mac.Default(modem.Profile80211())
	s := New(m, rand.New(rand.NewSource(4)))
	var flows []*Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, s.AddFlow(backloggedFlow("f", 100, 1e-3, 1)))
	}
	runChecked(t, s, math.Inf(1))
	if s.CollisionRounds == 0 {
		t.Fatal("8 contenders on CW 15 must collide at least once")
	}
	var collisions, attempts, delivered int
	for _, f := range flows {
		collisions += f.Collisions
		attempts += f.Attempts
		delivered += f.Delivered
	}
	if collisions < 2*s.CollisionRounds {
		t.Fatalf("%d collision rounds but only %d colliding attempts", s.CollisionRounds, collisions)
	}
	if attempts <= delivered {
		t.Fatal("collisions must cost extra attempts")
	}
	if delivered != 800 {
		t.Fatalf("lossless flows delivered %d/800", delivered)
	}
}

func TestUnackedFlowSingleAttempt(t *testing.T) {
	// Broadcast-style flows get exactly one attempt per frame and pay no
	// ACK time.
	m := mac.Default(modem.Profile80211())
	m.CWMin, m.CWMax = 0, 0 // deterministic: no backoff
	s := New(m, rand.New(rand.NewSource(5)))
	remaining := 10
	f := s.AddFlow(&Flow{
		Name:       "bcast",
		HasTraffic: func() bool { return remaining > 0 },
		FrameTime:  func(int) float64 { return 1e-3 },
		Deliver:    func(*rand.Rand, int, Interference) bool { return false }, // never received
		Done:       func(int, bool, float64) { remaining-- },
	})
	runChecked(t, s, math.Inf(1))
	if f.Attempts != 10 || f.Dropped != 10 || f.Delivered != 0 {
		t.Fatalf("attempts %d dropped %d delivered %d", f.Attempts, f.Dropped, f.Delivered)
	}
	want := 10 * (m.DIFS() + 1e-3)
	if math.Abs(s.Now()-want) > 1e-12 {
		t.Fatalf("clock %.9f, want %.9f (no ACK cost for unacked flows)", s.Now(), want)
	}
}

func TestAckedRetryLimitDropsFrame(t *testing.T) {
	// Every attempt over a dead link fails: the frame is dropped after
	// RetryLimit attempts, each billed the ACK timeout rather than a full
	// ACK exchange.
	m := mac.Default(modem.Profile80211())
	m.CWMin, m.CWMax = 0, 0 // deterministic: no backoff
	s := New(m, rand.New(rand.NewSource(6)))
	remaining := 1
	f := s.AddFlow(&Flow{
		Name:       "dead",
		Acked:      true,
		HasTraffic: func() bool { return remaining > 0 },
		FrameTime:  func(int) float64 { return 1e-3 },
		Deliver:    func(*rand.Rand, int, Interference) bool { return false },
		Done:       func(int, bool, float64) { remaining-- },
	})
	runChecked(t, s, math.Inf(1))
	if f.Attempts != m.RetryLimit || f.Dropped != 1 {
		t.Fatalf("attempts %d dropped %d, want %d/1", f.Attempts, f.Dropped, m.RetryLimit)
	}
	want := float64(m.RetryLimit) * (m.DIFS() + 1e-3 + m.AckTimeout())
	if math.Abs(s.Now()-want) > 1e-12 || math.Abs(f.AirTime-want) > 1e-12 {
		t.Fatalf("clock %.9f, airtime %.9f, want %.9f", s.Now(), f.AirTime, want)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() (float64, int, int) {
		m := mac.Default(modem.Profile80211())
		s := New(m, rand.New(rand.NewSource(7)))
		a := s.AddFlow(backloggedFlow("a", 120, 1e-3, 0.8))
		b := s.AddFlow(backloggedFlow("b", 120, 7e-4, 0.6))
		runChecked(t, s, math.Inf(1))
		return s.Now(), a.Delivered, b.Delivered
	}
	n1, a1, b1 := run()
	n2, a2, b2 := run()
	if n1 != n2 || a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v %d %d) vs (%v %d %d)", n1, a1, b1, n2, a2, b2)
	}
}

func TestTopologyDeliveryModel(t *testing.T) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	rng := rand.New(rand.NewSource(8))
	pts := []testbed.Point{{X: 0, Y: 0}, {X: 5, Y: 2}, {X: 28, Y: 14}}
	topo := NewTopology(rng, env, pts)
	rate, _ := modem.RateByMbps(6)

	near := topo.DeliveryProb(rng, 0, 1, rate, 500, 60)
	if near < 0.9 {
		t.Fatalf("5 m link delivery %.2f, want near 1", near)
	}
	// Reciprocal average SNR.
	if topo.Links[0][1].SNRdB != topo.Links[1][0].SNRdB {
		t.Fatal("links must be reciprocal in average SNR")
	}
	// Joint delivery from two senders must not be worse than the weaker
	// sender alone (summed subcarrier SNR).
	far := 2
	nSingle, nJoint := 0, 0
	for i := 0; i < 200; i++ {
		if topo.Deliver(rng, 0, far, rate, 500) {
			nSingle++
		}
		if topo.DeliverJoint(rng, []int{0, 1}, far, rate, 500) {
			nJoint++
		}
	}
	if nJoint < nSingle {
		t.Fatalf("joint delivery %d worse than single %d", nJoint, nSingle)
	}
}
