// Quickstart: two senders jointly transmit one packet to a receiver through
// multipath channels, and the receiver decodes the combined signal.
//
// This walks the whole SourceSync pipeline end to end on waveforms: the
// lead sender's synchronization header, the co-sender detecting it over its
// own radio channel and scheduling itself with the Symbol Level
// Synchronizer's compensation, Alamouti coding across the two senders, and
// joint channel estimation + decoding at the receiver.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/phy"
)

func main() {
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(42))

	// The joint frame: 12 Mbps, one co-sender, 256-byte payload.
	rate, _ := modem.RateByMbps(12)
	params := phy.JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 256, Seed: 0x5d, NumCo: 1,
		LeadID: 1, PacketID: phy.HashPacketID(0x0a000001, 0x0a000002, 7),
	}

	// Radio geometry: the co-sender is nearer the receiver than the lead,
	// so it must delay its transmission (w = T0 - t1 > 0) to align.
	const (
		dLeadToCo = 4.0 // samples of propagation, lead -> co-sender
		dLeadToRx = 6.0
		dCoToRx   = 2.0
	)
	mp := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 50, 3) }
	noise := 2e-4 // per-sample noise power at every radio

	sim := &phy.JointSimConfig{
		P:        params,
		LeadToCo: []phy.Link{{Gain: 1, Delay: dLeadToCo, Path: mp()}},
		LeadToRx: phy.Link{Gain: 1, Delay: dLeadToRx, Path: mp()},
		CoToRx:   []phy.Link{{Gain: 1, Delay: dCoToRx, Path: mp()}},
		Co: []phy.CoSenderSim{{
			Turnaround:       120,                 // hardware switch time, samples
			EstDelayFromLead: dLeadToCo,           // measured in the probe phase
			TxOffset:         dLeadToRx - dCoToRx, // w1 = T0 - t1
			NoisePower:       noise,
			FFTBackoff:       3,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}

	payload := make([]byte, params.PayloadLen)
	rng.Read(payload)

	run, err := sim.Run(payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-sender joined: %v\n", run.CoJoined[0])
	fmt.Printf("true misalignment at receiver: %+.3f samples (%.1f ns)\n",
		run.TrueMisalign[0], run.TrueMisalign[0]/cfg.SampleRateHz*1e9)

	rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("header decoded: lead=%d joint=%v packet=0x%04x rate=%v\n",
		res.Header.LeadID, res.Header.Joint, res.Header.PacketID,
		modem.StandardRates()[res.Header.RateIdx])
	fmt.Printf("misalignment estimate (fed back in ACK): %+.3f samples\n", res.MisalignEst[0])

	leadLin := dsp.Mean(res.SenderSNR(0))
	jointLin := dsp.Mean(res.CompositeSNR())
	fmt.Printf("lead-alone SNR %.1f dB -> joint SNR %.1f dB (gain %.1f dB)\n",
		dsp.DB(leadLin), dsp.DB(jointLin), dsp.DB(jointLin)-dsp.DB(leadLin))

	fmt.Printf("decode: crc-ok=%v payload-match=%v\n",
		res.OK, res.OK && string(res.Payload) == string(payload))
}
