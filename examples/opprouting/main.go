// Opportunistic routing with sender diversity (paper §7.2): a 5-node mesh
// (source, three relays, destination) with lossy links. Compare single-path
// routing, ExOR, and ExOR+SourceSync — where relays that overheard the same
// packet jointly forward it toward the destination.
//
// Run: go run ./examples/opprouting
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/exor"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

func main() {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	rng := rand.New(rand.NewSource(11))

	pts := []testbed.Point{
		{X: 1, Y: 7},    // src
		{X: 21, Y: 3},   // relay 1
		{X: 25, Y: 8},   // relay 2
		{X: 23, Y: 12},  // relay 3
		{X: 48, Y: 7.5}, // dst
	}
	topo := exor.NewTopology(rng, env, pts)
	rate, _ := modem.RateByMbps(6)

	meas := topo.Measure(rng, rate, 1000, 100, 0.1)
	fmt.Println("delivery probabilities at 6 Mbps:")
	names := []string{"src", "r1", "r2", "r3", "dst"}
	for i := 0; i < topo.N(); i++ {
		for j := 0; j < topo.N(); j++ {
			if i != j && meas.Delivery[i][j] > 0.02 {
				fmt.Printf("  %-3s -> %-3s : %.2f (%.1f dB)\n",
					names[i], names[j], meas.Delivery[i][j], topo.Links[i][j].SNRdB)
			}
		}
	}
	path, metric := meas.Graph.ShortestPath(0, topo.N()-1)
	fmt.Printf("\nmin-ETX path: %v (metric %.2f)\n\n", path, metric)

	sim := &exor.Sim{
		Topo: topo, Meas: meas,
		Mac:  mac.Default(cfg),
		Rate: rate, Payload: 1000,
	}
	const packets = 300
	for _, scheme := range []exor.Scheme{exor.SinglePath, exor.ExOR, exor.ExORSourceSync} {
		r := sim.Run(rand.New(rand.NewSource(50)), scheme, packets)
		fmt.Printf("%-16s %6.3f Mbps  (%3d/%d delivered, %4d transmissions)\n",
			scheme, r.ThroughputBps/1e6, r.Delivered, packets, r.Flow.Attempts)
	}
}
