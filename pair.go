package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/phy"
)

// pair is how a waveform experiment places one lead and one co-sender on
// the WiGLAN-like profile: everything about the setup that draw does not
// draw per frame.
type pair struct {
	payload          int // payload bytes
	leadID, packetID uint16
	// spreadNs and kDB are channel.NewIndoor's RMS delay spread and
	// K-factor for each of the three links.
	spreadNs, kDB float64
	// Propagation delays, in samples: lead→co-sender is delayFloor plus up
	// to leadCoSpan, and lead→rx and co→rx are delayFloor plus up to
	// rxSpan each.
	delayFloor, leadCoSpan, rxSpan float64
	leadCoGain                     float64 // lead→co-sender amplitude gain
	// The co-sender's turnaround is turnaround plus up to turnaroundSpan
	// samples; a zero span draws nothing.
	turnaround, turnaroundSpan float64
}

// fig12Pair places the pair at random (§8.1.1).
var fig12Pair = pair{
	payload: 40, leadID: 1, packetID: 0x1234,
	spreadNs: 30, kDB: 6,
	delayFloor: 1, leadCoSpan: 10, rxSpan: 12,
	leadCoGain: 1, turnaround: 600, turnaroundSpan: 400,
}

// fig13Pair is a LOS pair with identical hardware, so only propagation and
// detection timing differ between them (§8.1.2). Its channel still shows
// ~15 significant taps (117 ns) at 128 MHz, matching the paper's Fig. 14.
var fig13Pair = pair{
	payload: 60, leadID: 1, packetID: 0x13,
	spreadNs: 45, kDB: 3,
	delayFloor: 2, leadCoSpan: 6, rxSpan: 8,
	leadCoGain: 1, turnaround: 700,
}

// fig15Pair is a placed pair with a strong inter-sender link (§8.2); the
// caller sets each sender's receive gain.
var fig15Pair = pair{
	payload: 40, leadID: 2, packetID: 0x15,
	spreadNs: 30, kDB: 3,
	delayFloor: 1, leadCoSpan: 8, rxSpan: 10,
	leadCoGain: 4, turnaround: 700,
}

// draw makes one frame's placement of p, with the noise at both receivers
// snrDB below a training symbol's power and unit receive gains. Its draws
// from rng come in a fixed order: the three delays; the lead's residual
// CFO and phase; the lead→co, lead→rx and co→rx multipath; the
// turnaround's span; the co-sender's oscillator CFO, residual CFO and
// phase. The frame carries QPSK 1/2 under the profile's own cyclic prefix.
func (p pair) draw(rng *rand.Rand, cfg *modem.Config, snrDB float64) *phy.JointSimConfig {
	noise := channel.NoisePowerForSNR(dsp.MeanPower(cfg.LTSTime()), snrDB)
	dLeadCo := p.delayFloor + rng.Float64()*p.leadCoSpan
	tLeadRx := p.delayFloor + rng.Float64()*p.rxSpan
	tCoRx := p.delayFloor + rng.Float64()*p.rxSpan
	lead := phy.LeadSim{ResidCFO: smallResid(rng, cfg), Phase: rng.Float64() * 2 * math.Pi}
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, p.spreadNs, p.kDB) }
	leadCo, leadRx, coRx := mk(), mk(), mk()
	turnaround := p.turnaround
	if p.turnaroundSpan > 0 {
		turnaround += rng.Float64() * p.turnaroundSpan
	}
	return &phy.JointSimConfig{
		P: phy.JointFrameParams{
			Cfg: cfg, Rate: modem.Rate{Mod: modem.QPSK, Code: modem.Rate12},
			DataCP: cfg.CPLen, PayloadLen: p.payload, Seed: 0x5d, NumCo: 1,
			LeadID: p.leadID, PacketID: p.packetID,
		},
		Lead:     lead,
		LeadToCo: []phy.Link{{Gain: p.leadCoGain, Delay: dLeadCo, Path: leadCo}},
		LeadToRx: phy.Link{Gain: 1, Delay: tLeadRx, Path: leadRx},
		CoToRx:   []phy.Link{{Gain: 1, Delay: tCoRx, Path: coRx}},
		Co: []phy.CoSenderSim{{
			Turnaround:       turnaround,
			OscCFO:           channel.PPMToCFO((rng.Float64()*2-1)*20, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         smallResid(rng, cfg),
			Phase:            rng.Float64() * 2 * math.Pi,
			EstDelayFromLead: dLeadCo,
			TxOffset:         tLeadRx - tCoRx,
			NoisePower:       noise,
			FFTBackoff:       3,
		}},
		NoiseRx: noise,
		Rng:     rng,
	}
}

// smallResid draws a residual CFO after pre-correction: a couple percent of
// a typical crystal offset.
func smallResid(rng *rand.Rand, cfg *modem.Config) float64 {
	return channel.PPMToCFO((rng.Float64()*2-1)*0.4, 5.8e9, cfg.SampleRateHz)
}

// send runs one joint frame of a random payload drawn from sim.Rng and
// returns the receiver's stream, or nil when the exchange failed or the
// co-sender did not join.
func send(sim *phy.JointSimConfig) []complex128 {
	payload := make([]byte, sim.P.PayloadLen)
	sim.Rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil || !run.CoJoined[0] {
		return nil
	}
	return run.RxWave
}
