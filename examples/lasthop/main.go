// Last-hop sender diversity (paper §7.1): a client with mediocre links to
// two APs. A wired-side controller gives both APs the downlink data; the
// lead AP runs SampleRate and both transmit each packet jointly with
// SourceSync. Compare against using the best single AP.
//
// Run: go run ./examples/lasthop
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

func main() {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	rng := rand.New(rand.NewSource(7))

	// A client between two APs, both ~15 m away: usable but lossy links.
	client := testbed.Point{X: 25, Y: 7}
	ap1 := testbed.Point{X: 11, Y: 4}
	ap2 := testbed.Point{X: 38, Y: 11}
	links := []testbed.Link{
		env.NewLink(rng, ap1, client),
		env.NewLink(rng, ap2, client),
	}

	// A one-client cell: RunBestSingleAP serves the client from its
	// highest-SNR AP alone, RunJoint from both APs at once.
	const packets = 600
	c := lasthop.Cell{
		Mac:              mac.Default(cfg),
		PayloadBytes:     1460,
		Links:            [][]testbed.Link{links},
		PacketsPerClient: packets,
	}
	fmt.Printf("AP1->client %.1f dB, AP2->client %.1f dB\n", links[0].SNRdB, links[1].SNRdB)

	for ap, link := range links {
		alone := c
		alone.Links = [][]testbed.Link{{link}}
		r := alone.RunBestSingleAP(rand.New(rand.NewSource(100 + int64(ap))))
		fmt.Printf("AP%d alone:  %6.2f Mbps (%d/%d delivered)\n",
			ap+1, r.AggregateBps/1e6, r.Delivered, packets)
	}
	best := c.RunBestSingleAP(rand.New(rand.NewSource(200)))
	joint := c.RunJoint(rand.New(rand.NewSource(300)))
	fmt.Printf("best single AP: %6.2f Mbps\n", best.AggregateBps/1e6)
	fmt.Printf("SourceSync (both APs): %6.2f Mbps  -> gain %.2fx\n",
		joint.AggregateBps/1e6, joint.AggregateBps/best.AggregateBps)
}
