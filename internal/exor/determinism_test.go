package exor

import (
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

func TestSimulationDeterministicGivenSeed(t *testing.T) {
	// Identical seeds must reproduce identical topologies, measurements and
	// scheme results — the experiments' reproducibility contract.
	build := func() Result {
		rng := rand.New(rand.NewSource(123))
		topo := paperTopology(rng, 1)
		sim := newSim(t, rng, topo, 6)
		return sim.Run(rand.New(rand.NewSource(9)), ExORSourceSync, 60)
	}
	a := build()
	b := build()
	if a.ThroughputBps != b.ThroughputBps || a.Flow.Attempts != b.Flow.Attempts || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMaxTxPerPacketBoundsLoss(t *testing.T) {
	// The measured distances promise a route, but the destination sits
	// 10 km away: every packet must burn exactly the per-packet
	// transmission cap and count as lost.
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(5))
	pts := []testbed.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 6, Y: 2}, {X: 4, Y: 3}, {X: 10000, Y: 0}}
	topo := NewTopology(rng, testbed.Default(cfg), pts)
	rate, _ := modem.RateByMbps(12)
	meas := topo.Measure(rng, rate, 500, 30, 0.1)
	meas.DistTo = []float64{4, 3, 2, 1, 0}
	sim := &Sim{Topo: topo, Meas: meas, Mac: mac.Default(cfg), Rate: rate, Payload: 500}
	const pkts = 30
	res := sim.Run(rng, ExOR, pkts)
	if res.Delivered != 0 || res.Flow.Attempts != pkts*maxTxPerPacket {
		t.Fatalf("delivered %d in %d transmissions, want 0 in %d", res.Delivered, res.Flow.Attempts, pkts*maxTxPerPacket)
	}
}

func TestResultAccountingConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	topo := paperTopology(rng, 1)
	sim := newSim(t, rng, topo, 6)
	res := sim.Run(rand.New(rand.NewSource(7)), SinglePath, 50)
	if res.Delivered > 50 {
		t.Fatalf("delivered %d of 50", res.Delivered)
	}
	if res.Elapsed <= 0 || res.Flow.Attempts <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
	// Throughput must equal delivered payload bits over elapsed time.
	want := float64(res.Delivered*sim.Payload*8) / res.Elapsed
	if res.ThroughputBps != want {
		t.Fatalf("throughput %.1f, want %.1f", res.ThroughputBps, want)
	}
}
