package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// placedFlow builds a lossless acked flow with `packets` frames of airtime
// ft, whose transmitter and receiver sit at the given positions.
func placedFlow(name string, packets int, ft float64, tx, rx testbed.Point, snrDB float64) *Flow {
	f := backloggedFlow(name, packets, ft, 1)
	f.Name = name
	f.Radio = &Radio{TxPos: tx, RxPos: rx, SNRdB: snrDB}
	return f
}

func TestFrozenBackoffPersistsAcrossLostRounds(t *testing.T) {
	// A losing contender must keep its counter — decremented by the idle
	// slots that elapsed before the winner's transmission — rather than
	// redraw, and must consume no fresh randomness on later rounds until
	// its own attempt completes.
	m := mac.Default(modem.Profile80211())
	const seed = 11
	// Replay the simulator's draw order by hand: counters are drawn in flow
	// order from CW(0)=CWMin.
	ref := rand.New(rand.NewSource(seed))
	ca := ref.Intn(m.CWMin + 1)
	cb := ref.Intn(m.CWMin + 1)
	if ca == cb {
		t.Fatalf("seed %d draws a tie (%d); pick a seed with distinct counters", seed, ca)
	}

	s := New(m, rand.New(rand.NewSource(seed)))
	a := s.AddFlow(backloggedFlow("a", 5, 1e-3, 1))
	b := s.AddFlow(backloggedFlow("b", 5, 1e-3, 1))
	winner, loser := a, b
	cWin, cLose := ca, cb
	if cb < ca {
		winner, loser = b, a
		cWin, cLose = cb, ca
	}
	// One contention round spans several scheduler events (start, frame-air
	// end, occupancy end); step until the first delivery settles.
	for winner.Delivered == 0 && loser.Delivered == 0 {
		if !stepChecked(t, s) {
			t.Fatal("drained before any delivery")
		}
	}
	if winner.Delivered != 1 || loser.Delivered != 0 {
		t.Fatalf("smaller counter (%d vs %d) must win round 1: winner=%d loser=%d delivered",
			cWin, cLose, winner.Delivered, loser.Delivered)
	}
	if s.flags[loser.idx]&fCounterValid == 0 {
		t.Fatal("loser must keep a live counter")
	}
	if got, want := int(s.counter[loser.idx]), cLose-cWin; got != want {
		t.Fatalf("loser's counter = %d, want %d (original %d minus %d elapsed idle slots)", got, want, cLose, cWin)
	}
	if s.flags[winner.idx]&fCounterValid != 0 {
		t.Fatal("winner must redraw next round")
	}
	// The frozen counter eventually wins: step until the loser delivers,
	// checking the counter never grows while frozen (it only counts down).
	prev := int(s.counter[loser.idx])
	for loser.Delivered == 0 {
		if !stepChecked(t, s) {
			t.Fatal("drained before the loser delivered")
		}
		if s.flags[loser.idx]&fCounterValid != 0 && loser.Delivered == 0 && int(s.counter[loser.idx]) > prev {
			t.Fatalf("frozen counter grew from %d to %d without an attempt", prev, s.counter[loser.idx])
		}
		if s.flags[loser.idx]&fCounterValid != 0 {
			prev = int(s.counter[loser.idx])
		}
	}
}

func TestFrozenBackoffDeterministicForSeed(t *testing.T) {
	run := func() (float64, int, int, int) {
		m := mac.Default(modem.Profile80211())
		s := New(m, rand.New(rand.NewSource(12)))
		a := s.AddFlow(backloggedFlow("a", 150, 1e-3, 0.8))
		b := s.AddFlow(backloggedFlow("b", 150, 7e-4, 0.6))
		c := s.AddFlow(backloggedFlow("c", 150, 5e-4, 0.9))
		runChecked(t, s, math.Inf(1))
		return s.Now(), a.Delivered, b.Delivered, c.Delivered
	}
	n1, a1, b1, c1 := run()
	n2, a2, b2, c2 := run()
	if n1 != n2 || a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v %d %d %d) vs (%v %d %d %d)", n1, a1, b1, c1, n2, a2, b2, c2)
	}
}

// captureSim builds a two-flow sim with forced collisions (CW pinned to 0,
// so both flows draw counter 0 every round) on the default testbed, under
// the given interference model (nil: none).
func captureSim(seed int64, a, b *Flow, model InterferenceModel) *Sim {
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	m.CWMin, m.CWMax = 0, 0
	s := New(m, rand.New(rand.NewSource(seed)))
	s.Model = model
	s.Env = testbed.Default(cfg)
	s.AddFlow(a)
	s.AddFlow(b)
	return s
}

func TestCaptureStrongFrameSurvivesCollision(t *testing.T) {
	// Flow a: strong serving link, receiver far from b's transmitter — its
	// SINR clears the threshold, so its frames survive every collision.
	// Flow b: receiver right next to a's transmitter — swamped, always dies.
	a := placedFlow("strong", 20, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 2, Y: 0}, 30)
	b := placedFlow("weak", 20, 1e-3, testbed.Point{X: 300, Y: 0}, testbed.Point{X: 8, Y: 0}, 20)
	s := captureSim(21, a, b, LegacyThreshold{CaptureDB: 10})
	// a's interference: b's transmitter is ~298 m away — negligible. b's
	// interference: a's transmitter is 8 m from b's receiver — overwhelming.
	for i := 0; i < 20 && stepChecked(t, s); i++ {
	}
	if a.Captures == 0 || a.Delivered == 0 {
		t.Fatalf("strong flow never captured: captures=%d delivered=%d collisions=%d",
			a.Captures, a.Delivered, a.Collisions)
	}
	if a.Collisions != 0 {
		t.Fatalf("strong flow lost %d attempts to collisions despite %d dB SINR headroom", a.Collisions, 30)
	}
	if b.Captures != 0 || b.Delivered != 0 {
		t.Fatalf("swamped flow should never capture: captures=%d delivered=%d", b.Captures, b.Delivered)
	}
	if b.Collisions == 0 {
		t.Fatal("swamped flow must be losing attempts to collisions")
	}
}

func TestCaptureNearEqualFramesBothDie(t *testing.T) {
	// Symmetric mid-SNR flows whose receivers each sit near the other's
	// transmitter: SINR is near 0 dB on both sides, far below threshold, so
	// the collision destroys both frames — classic behavior.
	a := placedFlow("a", 5, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 5, Y: 0}, 20)
	b := placedFlow("b", 5, 1e-3, testbed.Point{X: 10, Y: 0}, testbed.Point{X: 5, Y: 1}, 20)
	s := captureSim(22, a, b, LegacyThreshold{CaptureDB: 10})
	for i := 0; i < 5 && stepChecked(t, s); i++ {
	}
	if a.Captures != 0 || b.Captures != 0 {
		t.Fatalf("near-equal frames captured: a=%d b=%d", a.Captures, b.Captures)
	}
	if a.Delivered != 0 || b.Delivered != 0 {
		t.Fatalf("near-equal collisions delivered: a=%d b=%d", a.Delivered, b.Delivered)
	}
	if a.Collisions == 0 || b.Collisions == 0 {
		t.Fatalf("both flows must be colliding: a=%d b=%d", a.Collisions, b.Collisions)
	}
}

func TestCaptureDisabledKeepsClassicCollisions(t *testing.T) {
	// Same asymmetric geometry as the survival test, but no interference
	// model: the strong frame must die with the weak one.
	a := placedFlow("strong", 5, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 2, Y: 0}, 30)
	b := placedFlow("weak", 5, 1e-3, testbed.Point{X: 300, Y: 0}, testbed.Point{X: 8, Y: 0}, 20)
	s := captureSim(23, a, b, nil)
	for i := 0; i < 5 && stepChecked(t, s); i++ {
	}
	if a.Captures != 0 || a.Delivered != 0 {
		t.Fatalf("capture disabled but strong flow got through: captures=%d delivered=%d", a.Captures, a.Delivered)
	}
}

// runPairs drains two lossless tx/rx pairs whose transmitters sit `sep`
// meters apart under the given carrier-sense range, returning aggregate
// throughput in frames per virtual second.
func runPairs(t *testing.T, seed int64, sep, csRange float64, packets int) (aggFPS float64, collisions int) {
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	s := New(m, rand.New(rand.NewSource(seed)))
	s.CSRangeM = csRange
	s.Env = testbed.Default(cfg)
	const ft = 1e-3
	a := s.AddFlow(placedFlow("a", packets, ft, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	b := s.AddFlow(placedFlow("b", packets, ft, testbed.Point{X: sep, Y: 0}, testbed.Point{X: sep + 3, Y: 0}, 30))
	runChecked(t, s, math.Inf(1))
	return float64(a.Delivered+b.Delivered) / s.Now(), s.CollisionRounds
}

func TestSpatialReuseDoublesAggregateThroughput(t *testing.T) {
	// Two flow pairs beyond carrier-sense range of each other transmit
	// concurrently: aggregate throughput must be ~2x the same pairs forced
	// into one collision domain.
	const packets = 300
	shared, _ := runPairs(t, 31, 10, 30, packets)     // 10 m apart, 30 m CS range: contend
	reused, coll := runPairs(t, 31, 200, 30, packets) // 200 m apart: reuse
	ratio := reused / shared
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("spatial reuse gave %.2fx aggregate (shared %.1f fps, reused %.1f fps), want ~2x",
			ratio, shared, reused)
	}
	if coll != 0 {
		t.Fatalf("out-of-range pairs collided %d times", coll)
	}
}

func TestOutOfRangeFlowsNeverCollide(t *testing.T) {
	// Saturated CW=0 flows collide every round in one domain but never when
	// out of carrier-sense range.
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	m.CWMin, m.CWMax = 0, 0
	s := New(m, rand.New(rand.NewSource(32)))
	s.CSRangeM = 50
	s.AddFlow(placedFlow("a", 40, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	s.AddFlow(placedFlow("b", 40, 1e-3, testbed.Point{X: 500, Y: 0}, testbed.Point{X: 503, Y: 0}, 30))
	runChecked(t, s, math.Inf(1))
	if s.CollisionRounds != 0 {
		t.Fatalf("%d collision rounds between out-of-range transmitters", s.CollisionRounds)
	}
}

func TestFlowsWithoutRadioContendEverywhere(t *testing.T) {
	// A flow without Radio info must contend with every placed flow even
	// under a finite carrier-sense range (the single-domain fallback).
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	m.CWMin, m.CWMax = 0, 0
	s := New(m, rand.New(rand.NewSource(33)))
	s.CSRangeM = 10
	s.AddFlow(placedFlow("placed", 20, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	s.AddFlow(backloggedFlow("unplaced", 20, 1e-3, 1))
	runChecked(t, s, math.Inf(1))
	if s.CollisionRounds == 0 {
		t.Fatal("an unplaced flow must still collide with placed ones")
	}
}
