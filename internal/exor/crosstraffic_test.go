package exor

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestCrossTrafficDegradesPrimaryThroughput(t *testing.T) {
	// The routed flow shares the medium with cross flows: its throughput
	// must drop versus an uncontended run, and the cross flows must move
	// traffic of their own.
	rng := rand.New(rand.NewSource(21))
	topo := paperTopology(rng, 1)
	sim := newSim(t, rng, topo, 6)
	const pkts = 120

	alone, _ := sim.RunWithCross(rand.New(rand.NewSource(30)), SinglePath, pkts, nil)
	cross := []CrossFlow{{From: 1, To: 2, Packets: 200}, {From: 3, To: 2, Packets: 200}}
	loaded, crossRes := sim.RunWithCross(rand.New(rand.NewSource(30)), SinglePath, pkts, cross)

	if alone.Delivered == 0 || loaded.Delivered == 0 {
		t.Fatalf("deliveries alone=%d loaded=%d", alone.Delivered, loaded.Delivered)
	}
	if loaded.ThroughputBps >= alone.ThroughputBps {
		t.Fatalf("cross traffic did not cost throughput: %.0f vs %.0f bps",
			loaded.ThroughputBps, alone.ThroughputBps)
	}
	if len(crossRes) != 2 {
		t.Fatalf("got %d cross results", len(crossRes))
	}
	for i, cr := range crossRes {
		if cr.Delivered == 0 {
			t.Fatalf("cross flow %d delivered nothing", i)
		}
		if cr.Elapsed != loaded.Elapsed {
			t.Fatalf("cross flow %d elapsed %.4f != shared elapsed %.4f", i, cr.Elapsed, loaded.Elapsed)
		}
	}
}

func TestCrossTrafficDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	topo := paperTopology(rng, 1)
	sim := newSim(t, rng, topo, 6)
	cross := []CrossFlow{{From: 1, To: 3, Packets: 80}}
	run := func() (Result, []Result) {
		return sim.RunWithCross(rand.New(rand.NewSource(31)), ExORSourceSync, 60, cross)
	}
	a, ca := run()
	b, cb := run()
	// Result holds a slice (RateCorruption), so compare rendered values.
	if fmt.Sprintf("%+v%+v", a, ca[0]) != fmt.Sprintf("%+v%+v", b, cb[0]) {
		t.Fatalf("nondeterministic: %+v/%+v vs %+v/%+v", a, ca[0], b, cb[0])
	}
}
