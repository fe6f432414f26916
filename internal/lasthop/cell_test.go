package lasthop

import (
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// testCell builds an N-client, M-AP cell; snrs[c][a] gives the AP a ->
// client c average SNR.
func testCell(snrs [][]float64, packets int) Cell {
	cfg := modem.Profile80211()
	tb := testbed.Default(cfg)
	links := make([][]testbed.Link, len(snrs))
	for c, row := range snrs {
		links[c] = make([]testbed.Link, len(row))
		for a, s := range row {
			links[c][a] = tb.LinkAtSNR(s, 10)
		}
	}
	return Cell{
		Mac:              mac.Default(cfg),
		PayloadBytes:     1460,
		Links:            links,
		PacketsPerClient: packets,
	}
}

func uniformCell(clients int, snr float64, packets int) Cell {
	snrs := make([][]float64, clients)
	for c := range snrs {
		snrs[c] = []float64{snr, snr - 1}
	}
	return testCell(snrs, packets)
}

func TestCellDrainsEveryBacklog(t *testing.T) {
	c := uniformCell(4, 18, 100)
	res := c.RunBestSingleAP(rand.New(rand.NewSource(1)))
	var total int
	for _, pc := range res.PerClient {
		total += pc.Delivered + pc.Dropped
	}
	if total != 4*100 {
		t.Fatalf("cell retired %d of %d packets", total, 4*100)
	}
	if res.Delivered < 350 {
		t.Fatalf("only %d/400 delivered at 18 dB", res.Delivered)
	}
	if res.Elapsed <= 0 || res.Utilization <= 0 || res.Utilization >= 1 {
		t.Fatalf("accounting: elapsed %.4f utilization %.3f", res.Elapsed, res.Utilization)
	}
}

func TestCellStatsAddUpClients(t *testing.T) {
	// With arrival processes attached, the cell's counters are its
	// clients' flow counters added up, the traffic layer's included.
	c := uniformCell(4, 18, 0)
	c.WindowSec = 0.2
	c.Traffic = func(int) netsim.TrafficConfig {
		return netsim.TrafficConfig{Process: netsim.Poisson{RatePps: 400}, DeadlineSec: 0.005}
	}
	res := c.RunJoint(rand.New(rand.NewSource(8)))
	if len(res.PerClient) != 4 {
		t.Fatalf("%d per-client records for 4 clients", len(res.PerClient))
	}
	var sum netsim.Stats
	for _, pc := range res.PerClient {
		sum.Add(pc)
	}
	if sum != res.Stats {
		t.Fatalf("cell stats %+v, clients add up to %+v", res.Stats, sum)
	}
	if res.Arrived == 0 || res.Delivered == 0 {
		t.Fatalf("degenerate run: %+v", res.Stats)
	}
}

func TestCellContentionSplitsThroughput(t *testing.T) {
	// Doubling the client count on one medium must not double aggregate
	// throughput, and symmetric clients must see similar shares.
	four := uniformCell(4, 18, 150).RunBestSingleAP(rand.New(rand.NewSource(2)))
	eight := uniformCell(8, 18, 150).RunBestSingleAP(rand.New(rand.NewSource(3)))
	if eight.AggregateBps > four.AggregateBps*1.25 {
		t.Fatalf("8 clients (%.1f Mbps) should not out-scale 4 (%.1f Mbps) on one medium",
			eight.AggregateBps/1e6, four.AggregateBps/1e6)
	}
	// Every client's share is its deliveries over the same elapsed time,
	// so delivered frames compare shares directly.
	var min, max int
	for i, pc := range eight.PerClient {
		if i == 0 || pc.Delivered < min {
			min = pc.Delivered
		}
		if pc.Delivered > max {
			max = pc.Delivered
		}
	}
	if min <= 0 || max > 3*min {
		t.Fatalf("unfair shares: %d .. %d frames delivered", min, max)
	}
	if eight.Collisions == 0 {
		t.Fatal("8 contending clients must produce collisions")
	}
}

func TestCellJointBeatsBestSingleAtModerateSNR(t *testing.T) {
	// The paper's Fig. 17 effect must survive contention: mediocre links to
	// two APs, joint transmission wins on aggregate.
	snrs := make([][]float64, 8)
	for c := range snrs {
		snrs[c] = []float64{9, 8}
	}
	cell := testCell(snrs, 120)
	single := cell.RunBestSingleAP(rand.New(rand.NewSource(4)))
	joint := cell.RunJoint(rand.New(rand.NewSource(5)))
	if joint.AggregateBps <= single.AggregateBps {
		t.Fatalf("joint %.2f Mbps not better than best-single %.2f Mbps under contention",
			joint.AggregateBps/1e6, single.AggregateBps/1e6)
	}
}

// spatialCells builds `cells` single-client cells whose APs sit `spacing`
// meters apart, each client 10 m from its AP, as one spatial Cell.
func spatialCells(cells int, spacing, csRange float64, packets int) Cell {
	cfg := modem.Profile80211()
	tb := testbed.Default(cfg)
	links := make([][]testbed.Link, cells)
	apPos := make([][]testbed.Point, cells)
	clientPos := make([]testbed.Point, cells)
	for c := 0; c < cells; c++ {
		ap := testbed.Point{X: float64(c) * spacing, Y: 0}
		links[c] = []testbed.Link{tb.LinkAtSNR(26, 10)}
		apPos[c] = []testbed.Point{ap}
		clientPos[c] = testbed.Point{X: ap.X + 10, Y: 0}
	}
	return Cell{
		Mac:              mac.Default(cfg),
		PayloadBytes:     1460,
		Links:            links,
		PacketsPerClient: packets,
		APPos:            apPos,
		ClientPos:        clientPos,
		CSRangeM:         csRange,
		Env:              tb,
	}
}

func TestCellSpatialReuseScalesAggregate(t *testing.T) {
	// Two cells beyond carrier-sense range must drain their backlogs nearly
	// concurrently: aggregate throughput ~2x a single cell's, with the
	// medium busy more than one neighborhood at a time. SampleRate
	// trajectories are chaotic (a run that demotes early stays slow for a
	// while), so the ratio is averaged over a few seeds rather than pinned
	// to one lone/pair pairing.
	var oneSum, twoSum, utilSum float64
	const runs = 3
	for seed := int64(7); seed < 7+runs; seed++ {
		one := spatialCells(1, 0, 30, 200).RunBestSingleAP(rand.New(rand.NewSource(seed)))
		two := spatialCells(2, 100, 30, 200).RunBestSingleAP(rand.New(rand.NewSource(seed)))
		oneSum += one.AggregateBps
		twoSum += two.AggregateBps
		utilSum += two.Utilization
		if two.CollisionRounds != 0 {
			t.Fatalf("out-of-range cells collided %d times (seed %d)", two.CollisionRounds, seed)
		}
	}
	ratio := twoSum / oneSum
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("two out-of-range cells gave %.2fx one cell's aggregate, want ~2x", ratio)
	}
	if utilSum/runs <= 1 {
		t.Fatalf("mean utilization %.2f should exceed 1 under spatial reuse", utilSum/runs)
	}
	// The same two cells inside one carrier-sense range must split the
	// medium instead — averaged over the same seeds as the reuse check.
	var sharedSum float64
	for seed := int64(7); seed < 7+runs; seed++ {
		sharedSum += spatialCells(2, 10, 30, 200).RunBestSingleAP(rand.New(rand.NewSource(seed))).AggregateBps
	}
	if sharedSum > 1.25*oneSum {
		t.Fatalf("in-range cells should share, not scale: %.1f vs %.1f Mbps mean",
			sharedSum/runs/1e6, oneSum/runs/1e6)
	}
}

func TestCellDeterministicGivenSeed(t *testing.T) {
	c := uniformCell(6, 12, 80)
	a := c.RunJoint(rand.New(rand.NewSource(6)))
	b := c.RunJoint(rand.New(rand.NewSource(6)))
	if a.AggregateBps != b.AggregateBps || a.Delivered != b.Delivered || a.Collisions != b.Collisions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
