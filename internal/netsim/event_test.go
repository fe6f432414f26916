package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// The tests in this file pin the event-driven scheduler's semantics: the
// clock advances per neighborhood rather than per global round, and
// concurrent out-of-range transmissions interfere at shared receivers
// (hidden terminals).

func TestHiddenTerminalCorruptsFrames(t *testing.T) {
	// Classic hidden-terminal geometry: two senders out of carrier-sense
	// range of each other, each delivering to a receiver that sits right
	// next to the other sender. Neither defers, their frames overlap, and
	// the interference SINR at both receivers is hopeless — every
	// overlapping frame must be corrupted, with zero collision rounds (no
	// in-range simultaneous starts).
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	s := New(m, rand.New(rand.NewSource(51)))
	s.CSRangeM = 50
	s.Model = LegacyThreshold{CaptureDB: 10}
	s.Env = testbed.Default(cfg)
	a := s.AddFlow(placedFlow("a", 30, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
	b := s.AddFlow(placedFlow("b", 30, 1e-3, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
	runChecked(t, s, math.Inf(1))

	if s.CollisionRounds != 0 {
		t.Fatalf("out-of-range senders produced %d collision rounds", s.CollisionRounds)
	}
	if a.HiddenLosses == 0 || b.HiddenLosses == 0 || s.Stats().HiddenLosses == 0 {
		t.Fatalf("no hidden-terminal corruption: a=%d b=%d sim=%d",
			a.HiddenLosses, b.HiddenLosses, s.Stats().HiddenLosses)
	}
	// Saturated flows overlap most of the time (growing retry windows open
	// occasional clean gaps): the majority of attempts must die to
	// interference, not succeed.
	if hl := a.HiddenLosses + b.HiddenLosses; hl <= (a.Attempts+b.Attempts)/2 {
		t.Fatalf("only %d of %d+%d attempts corrupted by hidden terminals",
			hl, a.Attempts, b.Attempts)
	}
	if a.Delivered+b.Delivered > (a.Attempts+b.Attempts)/3 {
		t.Fatalf("hidden terminals barely hurt: %d+%d delivered of %d+%d attempts",
			a.Delivered, b.Delivered, a.Attempts, b.Attempts)
	}
}

func TestHiddenTerminalsOffWithoutCaptureModel(t *testing.T) {
	// With Model unset the interference model is off: the same hidden
	// geometry delivers everything (lossless draws, no in-range collisions).
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	s := New(m, rand.New(rand.NewSource(52)))
	s.CSRangeM = 50
	s.Env = testbed.Default(cfg)
	a := s.AddFlow(placedFlow("a", 30, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
	b := s.AddFlow(placedFlow("b", 30, 1e-3, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
	runChecked(t, s, math.Inf(1))
	if a.HiddenLosses != 0 || b.HiddenLosses != 0 || s.Stats().HiddenLosses != 0 {
		t.Fatalf("interference modeled with no Model: a=%d b=%d", a.HiddenLosses, b.HiddenLosses)
	}
	if a.Delivered != 30 || b.Delivered != 30 {
		t.Fatalf("lossless flows delivered %d/%d of 30/30", a.Delivered, b.Delivered)
	}
}

func TestPerNeighborhoodClockIndependence(t *testing.T) {
	// A cell draining short frames must not be stalled by a far-away cell
	// draining long ones: the short cell's backlog completes in about the
	// time it would take alone, not at the long cell's round pace.
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	const shortFT, longFT = 1e-4, 2e-3

	alone := New(m, rand.New(rand.NewSource(53)))
	alone.CSRangeM = 30
	alone.AddFlow(placedFlow("short", 100, shortFT, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	runChecked(t, alone, math.Inf(1))
	aloneT := alone.Now()

	s := New(m, rand.New(rand.NewSource(53)))
	s.CSRangeM = 30
	var shortDrained float64
	sf := placedFlow("short", 100, shortFT, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30)
	done := sf.Done
	sf.Done = func(r int, ok bool, air float64) {
		done(r, ok, air)
		shortDrained = s.Now()
	}
	s.AddFlow(sf)
	lf := s.AddFlow(placedFlow("long", 100, longFT, testbed.Point{X: 500, Y: 0}, testbed.Point{X: 503, Y: 0}, 30))
	runChecked(t, s, math.Inf(1))

	if lf.Delivered != 100 || sf.Delivered != 100 {
		t.Fatalf("deliveries %d/%d", sf.Delivered, lf.Delivered)
	}
	// Backoff draws differ between the runs, so allow slack — but the short
	// cell must finish at its own pace (a round-synchronized clock would
	// hold it to the long cell's ~100x2.1ms schedule, several times slower).
	if shortDrained > 1.5*aloneT {
		t.Fatalf("short cell drained at %.4fs with a long cell elsewhere vs %.4fs alone — stalled by a foreign neighborhood",
			shortDrained, aloneT)
	}
	if shortDrained > s.Now()/2 {
		t.Fatalf("short cell (%.4fs) should finish well before the whole run (%.4fs)", shortDrained, s.Now())
	}
}

func TestDisjointCellsUtilizationExceedsOneAndAHalf(t *testing.T) {
	// Two saturated out-of-range cells with different frame lengths: each
	// neighborhood stays busy at its own pace, so utilization approaches 2.
	// (The old round-synchronized clock idled the short cell out against
	// the long cell's rounds and capped this scenario below ~1.5.)
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	s := New(m, rand.New(rand.NewSource(54)))
	s.CSRangeM = 30
	a := s.AddFlow(placedFlow("a", 200, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	b := s.AddFlow(placedFlow("b", 100, 2e-3, testbed.Point{X: 500, Y: 0}, testbed.Point{X: 503, Y: 0}, 30))
	runChecked(t, s, math.Inf(1))
	if a.Delivered != 200 || b.Delivered != 100 {
		t.Fatalf("deliveries %d/%d", a.Delivered, b.Delivered)
	}
	util := s.BusyTime() / s.Now()
	if util <= 1.5 {
		t.Fatalf("utilization %.2f over two disjoint cells, want > 1.5", util)
	}
	if util >= 2 {
		t.Fatalf("utilization %.2f cannot reach the neighborhood count (DIFS+backoff overhead)", util)
	}
}

func TestEventClockNeverRunsBackward(t *testing.T) {
	// Mixed acked/unacked spatial flows: the event clock must be
	// non-decreasing across every scheduler event.
	cfg := modem.Profile80211()
	m := mac.Default(cfg)
	s := New(m, rand.New(rand.NewSource(55)))
	s.CSRangeM = 40
	s.AddFlow(placedFlow("a", 60, 1e-3, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 3, Y: 0}, 30))
	s.AddFlow(placedFlow("b", 60, 7e-4, testbed.Point{X: 10, Y: 0}, testbed.Point{X: 13, Y: 0}, 30))
	s.AddFlow(placedFlow("c", 60, 5e-4, testbed.Point{X: 200, Y: 0}, testbed.Point{X: 203, Y: 0}, 30))
	un := backloggedFlow("bcast", 40, 1e-3, 1)
	un.Acked = false
	s.AddFlow(un)
	prev := s.Now()
	for stepChecked(t, s) {
		if s.Now() < prev {
			t.Fatalf("clock ran backward: %.9f -> %.9f", prev, s.Now())
		}
		prev = s.Now()
	}
}

func TestSortEdgesMatchesReferenceSort(t *testing.T) {
	// sortEdges is a hand-rolled quicksort with an inlined comparator; its
	// output feeds an order-sensitive float accumulation, so it must agree
	// exactly with the library sort on every input — including the heavy
	// duplicate-key distributions the sweep produces (many intervals share
	// endpoints and powers). Because (t, dp) is total over distinct
	// elements, agreement is plain slice equality.
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		got := make([]edge, n)
		for i := range got {
			// Coarse value grids force long runs of equal keys.
			got[i] = edge{
				t:  float64(rng.Intn(8)) * 1e-3,
				dp: float64(rng.Intn(5)-2) * 0.5,
			}
		}
		want := append([]edge(nil), got...)
		slices.SortFunc(want, edgeCmp)
		sortEdges(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): sortEdges diverged from reference sort", trial, n)
		}
	}
}

// edgeCmp is edgeLess as a three-way comparison, for the library sort.
func edgeCmp(a, b edge) int {
	if edgeLess(a, b) {
		return -1
	}
	if edgeLess(b, a) {
		return 1
	}
	return 0
}

// referenceWorstSimultaneous is the overlap sweep over every interval
// edge: both ends of every interval, sorted by (t, dp) with the library
// sort, summed from 0 with the maximum starting at 0. worstSimultaneous
// must return its bits.
func referenceWorstSimultaneous(interferers []interferer) float64 {
	var edges []edge
	for _, g := range interferers {
		edges = append(edges, edge{t: g.from, dp: g.power}, edge{t: g.to, dp: -g.power})
	}
	slices.SortFunc(edges, edgeCmp)
	cur, worst := 0.0, 0.0
	for _, e := range edges {
		cur += e.dp
		if cur > worst {
			worst = cur
		}
	}
	return worst
}

func TestWorstSimultaneousMatchesReference(t *testing.T) {
	// worstSimultaneous drops the removals at the frame's last instant;
	// the rest of its float sequence must be the all-edges sweep's, so the
	// result must match it bit for bit. Each shape below fixes where the
	// interval ends fall; powers span eight decades, so a sum taken out of
	// order changes bits, and the coarse shape draws ends and powers from
	// small grids (equal interior times, equal powers), as
	// TestSortEdgesMatchesReferenceSort does.
	const start, ft = 0.0123456789, 1.3e-3
	airEnd := start + ft
	interior := func(rng *rand.Rand) float64 {
		for {
			if v := start + ft*rng.Float64(); v > start && v < airEnd {
				return v
			}
		}
	}
	random := func(rng *rand.Rand) (from, to float64) {
		a, b := interior(rng), interior(rng)
		return min(a, b), max(a, b)
	}
	// Grid point k of 8; point 0 is start and point 8 is airEnd exactly
	// (ft*8/8 is ft, since scaling by a power of two is exact).
	grid := func(k int) float64 { return start + ft*float64(k)/8 }
	shapes := []struct {
		name  string
		power func(rng *rand.Rand) float64
		ends  func(rng *rand.Rand) (from, to float64)
	}{
		{"mixed", nil, func(rng *rand.Rand) (float64, float64) {
			from, to := random(rng)
			if rng.Intn(2) == 0 {
				from = start
			}
			if rng.Intn(2) == 0 {
				to = airEnd
			}
			return from, to
		}},
		{"all-from-start", nil, func(rng *rand.Rand) (float64, float64) {
			_, to := random(rng)
			if rng.Intn(3) == 0 {
				to = airEnd
			}
			return start, to
		}},
		{"all-to-air-end", nil, func(rng *rand.Rand) (float64, float64) {
			from, _ := random(rng)
			if rng.Intn(3) == 0 {
				from = start
			}
			return from, airEnd
		}},
		{"whole-frame", nil, func(*rand.Rand) (float64, float64) { return start, airEnd }},
		{"interior-only", nil, random},
		{"coarse", func(rng *rand.Rand) float64 { return float64(1+rng.Intn(3)) * 0.75 },
			func(rng *rand.Rand) (float64, float64) {
				a := rng.Intn(8)
				return grid(a), grid(a + 1 + rng.Intn(8-a))
			}},
	}
	rng := rand.New(rand.NewSource(98))
	s := &Sim{}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 34; trial++ {
				n := rng.Intn(41)
				switch trial {
				case 0:
					n = 0
				case 1:
					n = 1
				}
				interf := make([]interferer, n)
				for i := range interf {
					p := math.Pow(10, 8*rng.Float64()-4)
					if sh.power != nil {
						p = sh.power(rng)
					}
					from, to := sh.ends(rng)
					interf[i] = interferer{power: p, from: from, to: to}
				}
				want := referenceWorstSimultaneous(interf)
				got := s.worstSimultaneous(interf, airEnd)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (%d interferers): sweep %v (%#x), all-edges reference %v (%#x)",
						trial, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
}
