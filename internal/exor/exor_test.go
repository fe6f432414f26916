package exor

import (
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// paperTopology builds a source, three relays between, and a destination —
// the §8.4 evaluation shape — in the lossy mesh environment. Stretch scales
// the span: larger means lossier links.
func paperTopology(rng *rand.Rand, stretch float64) *Topology {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	env.Width = 50 * stretch
	pts := []testbed.Point{
		{X: 1, Y: 7},              // src
		{X: 22 * stretch, Y: 3},   // relay 1
		{X: 26 * stretch, Y: 8},   // relay 2
		{X: 24 * stretch, Y: 12},  // relay 3
		{X: 47 * stretch, Y: 7.5}, // dst
	}
	return NewTopology(rng, env, pts)
}

func newSim(t *testing.T, rng *rand.Rand, topo *Topology, mbps int) *Sim {
	t.Helper()
	rate, err := modem.RateByMbps(mbps)
	if err != nil {
		t.Fatal(err)
	}
	m := mac.Default(topo.Env.Cfg)
	meas := topo.Measure(rng, rate, 500, 60, 0.1)
	return &Sim{Topo: topo, Meas: meas, Mac: m, Rate: rate, Payload: 500}
}

func TestMeasureDeliveryProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo := paperTopology(rng, 1)
	rate, _ := modem.RateByMbps(6)
	meas := topo.Measure(rng, rate, 500, 50, 0.1)
	n := topo.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := meas.Delivery[i][j]
			if p < 0 || p > 1 {
				t.Fatalf("delivery[%d][%d] = %g", i, j, p)
			}
		}
	}
	// Destination must be reachable from the source in ETX terms.
	if meas.DistTo[0] <= 0 || meas.DistTo[topo.N()-1] != 0 {
		t.Fatalf("distances %v", meas.DistTo)
	}
}

func TestSchemesDeliverAndRank(t *testing.T) {
	// On a lossy topology: ExOR >= single path (receiver diversity), and
	// ExOR+SourceSync >= ExOR (sender diversity) — the paper's Fig. 18
	// ordering. Averaged over several topologies to suppress noise.
	var spSum, exSum, ssSum float64
	const topos = 6
	for seed := int64(0); seed < topos; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		topo := paperTopology(rng, 1.25) // stretched: lossy links
		sim := newSim(t, rng, topo, 6)
		const pkts = 120
		sp := sim.Run(rand.New(rand.NewSource(1+seed)), SinglePath, pkts)
		ex := sim.Run(rand.New(rand.NewSource(2+seed)), ExOR, pkts)
		ss := sim.Run(rand.New(rand.NewSource(3+seed)), ExORSourceSync, pkts)
		spSum += sp.ThroughputBps
		exSum += ex.ThroughputBps
		ssSum += ss.ThroughputBps
	}
	if exSum < spSum*0.95 {
		t.Fatalf("ExOR (%.0f) should not trail single path (%.0f)", exSum, spSum)
	}
	if ssSum <= exSum {
		t.Fatalf("SourceSync (%.0f) should beat ExOR (%.0f)", ssSum, exSum)
	}
	if spSum <= 0 {
		t.Fatal("single path delivered nothing")
	}
}

func TestExORUsesFewerTransmissionsThanSinglePathOnLossyLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo := paperTopology(rng, 1)
	sim := newSim(t, rng, topo, 6)
	const pkts = 150
	sp := sim.Run(rand.New(rand.NewSource(11)), SinglePath, pkts)
	ex := sim.Run(rand.New(rand.NewSource(12)), ExOR, pkts)
	if sp.Delivered == 0 || ex.Delivered == 0 {
		t.Fatalf("deliveries sp=%d ex=%d", sp.Delivered, ex.Delivered)
	}
	spPerPkt := float64(sp.Flow.Attempts) / float64(sp.Delivered)
	exPerPkt := float64(ex.Flow.Attempts) / float64(ex.Delivered)
	if exPerPkt > spPerPkt*1.1 {
		t.Fatalf("ExOR %.2f tx/pkt vs single path %.2f", exPerPkt, spPerPkt)
	}
}

func TestUnreachableDestination(t *testing.T) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	rng := rand.New(rand.NewSource(9))
	// Destination 10 km away: nothing gets through.
	pts := []testbed.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 6, Y: 2}, {X: 4, Y: 3}, {X: 10000, Y: 0}}
	topo := NewTopology(rng, env, pts)
	rate, _ := modem.RateByMbps(6)
	meas := topo.Measure(rng, rate, 500, 30, 0.1)
	sim := &Sim{Topo: topo, Meas: meas, Mac: mac.Default(cfg), Rate: rate, Payload: 500}
	for _, scheme := range []Scheme{SinglePath, ExOR, ExORSourceSync} {
		res := sim.Run(rng, scheme, 20)
		if res.Delivered != 0 {
			t.Fatalf("%v delivered %d to unreachable dst", scheme, res.Delivered)
		}
	}
}

func TestCPIncreaseSmallIndoors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	topo := paperTopology(rng, 1)
	sim := newSim(t, rng, topo, 6)
	inc := sim.cpIncrease()
	// Sub-30m room at 20 Msps: propagation deltas are well under a sample.
	if inc < 0 || inc > 2 {
		t.Fatalf("cp increase %d samples", inc)
	}
}

func TestSchemeString(t *testing.T) {
	if SinglePath.String() != "single-path" || ExOR.String() != "ExOR" || ExORSourceSync.String() != "ExOR+SourceSync" {
		t.Fatal("scheme names")
	}
}
