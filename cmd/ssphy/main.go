// Command ssphy runs a single SourceSync joint transmission through the
// waveform-level simulator and prints everything the receiver measured:
// detection, per-sender channels, misalignment estimate versus ground
// truth, per-subcarrier SNRs and decode status. A debugging lens into the
// PHY.
//
// Usage:
//
//	ssphy [-seed N] [-snr dB] [-co N] [-profile 80211|wiglan] [-baseline]
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/phy"
)

var (
	seed     = flag.Int64("seed", 1, "random seed")
	snr      = flag.Float64("snr", 20, "per-sender SNR at the receiver, dB")
	numCo    = flag.Int("co", 1, "number of co-senders (1-3)")
	profile  = flag.String("profile", "wiglan", "PHY profile: 80211 or wiglan")
	baseline = flag.Bool("baseline", false, "disable delay compensation (unsynchronized baseline)")
	payload  = flag.Int("bytes", 120, "payload size")
)

func main() {
	flag.Parse()
	var cfg *modem.Config
	switch *profile {
	case "80211":
		cfg = modem.Profile80211()
	case "wiglan":
		cfg = modem.ProfileWiGLAN()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}
	if *numCo < 1 || *numCo > 3 {
		fmt.Fprintln(os.Stderr, "co must be 1-3")
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	p := phy.JointFrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.QPSK, Code: modem.Rate12},
		DataCP: cfg.CPLen, PayloadLen: *payload, Seed: 0x5d,
		NumCo: *numCo, LeadID: 1, PacketID: phy.HashPacketID(0x0a000001, 0x0a000002, 99),
	}
	lts := cfg.LTSTime()
	noise := channel.NoisePowerForSNR(dsp.MeanPower(lts), *snr)
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 40, 4) }

	sim := &phy.JointSimConfig{
		P:        p,
		Lead:     phy.LeadSim{ResidCFO: channel.PPMToCFO(0.2, 5.8e9, cfg.SampleRateHz), Phase: rng.Float64() * 2 * math.Pi},
		LeadToRx: phy.Link{Gain: 1, Delay: 2 + rng.Float64()*8, Path: mk()},
		NoiseRx:  noise,
		Rng:      rng,
	}
	for i := 0; i < *numCo; i++ {
		d := 1 + rng.Float64()*8
		tRx := 1 + rng.Float64()*8
		sim.LeadToCo = append(sim.LeadToCo, phy.Link{Gain: 1, Delay: d, Path: mk()})
		sim.CoToRx = append(sim.CoToRx, phy.Link{Gain: 1, Delay: tRx, Path: mk()})
		sim.Co = append(sim.Co, phy.CoSenderSim{
			Turnaround:       500 + rng.Float64()*300,
			OscCFO:           channel.PPMToCFO((rng.Float64()*2-1)*15, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         channel.PPMToCFO((rng.Float64()*2-1)*0.3, 5.8e9, cfg.SampleRateHz),
			Phase:            rng.Float64() * 2 * math.Pi,
			EstDelayFromLead: d,
			TxOffset:         sim.LeadToRx.Delay - tRx,
			NoisePower:       noise,
			FFTBackoff:       3,
			BaselineSync:     *baseline,
			DetectJitter:     38,
		})
	}

	pay := make([]byte, *payload)
	rng.Read(pay)
	run, err := sim.Run(pay)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sim:", err)
		os.Exit(1)
	}

	fmt.Printf("profile %s, %d co-sender(s), per-sender SNR %.1f dB, baseline=%v\n",
		cfg.Name, *numCo, *snr, *baseline)
	fmt.Printf("frame: %d samples (%.1f us), overhead %.2f%%\n",
		p.TotalLen(), p.AirtimeSeconds()*1e6, p.OverheadFraction()*100)
	for i := range sim.Co {
		fmt.Printf("co %d: joined=%v arrival-est-err=%+.2f smp true-misalign=%+.3f smp (%.1f ns)\n",
			i, run.CoJoined[i], run.CoArrivalEstErr[i], run.TrueMisalign[i],
			run.TrueMisalign[i]/cfg.SampleRateHz*1e9)
	}

	rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "receive:", err)
		os.Exit(1)
	}
	fmt.Printf("\nreceiver:\n")
	fmt.Printf("  detect: coarse=%d fine=%d coarseCFO=%.2e\n",
		res.Detect.CoarseIdx, res.Detect.FineIdx, res.Detect.CoarseCFO)
	fmt.Printf("  header: %+v\n", res.Header)
	for i := range res.ActiveCo {
		fmt.Printf("  co %d: active=%v misalign-est=%+.3f smp (err vs truth %+.3f)\n",
			i, res.ActiveCo[i], res.MisalignEst[i], res.MisalignEst[i]-run.TrueMisalign[i])
	}
	lead := res.SenderSNR(0)
	comp := res.CompositeSNR()
	fmt.Printf("  lead avg SNR     %6.2f dB\n", avgDB(lead))
	for j := 1; j <= *numCo; j++ {
		fmt.Printf("  co %d avg SNR     %6.2f dB\n", j-1, avgDB(res.SenderSNR(j)))
	}
	fmt.Printf("  composite SNR    %6.2f dB\n", avgDB(comp))
	fmt.Printf("  EVM %.4f (effective SNR %.1f dB)\n", res.EVM, dsp.DB(1/res.EVM))
	fmt.Printf("  decode: ok=%v payload-match=%v\n", res.OK, res.OK && string(res.Payload) == string(pay))
}

func avgDB(snr []float64) float64 {
	if len(snr) == 0 {
		return math.Inf(-1)
	}
	return dsp.DB(dsp.Mean(snr))
}
