package phy

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/modem"
	"repro/internal/sls"
)

// Probe protocol (paper §4.2c, Eq. 2): a prober transmits a probe frame; the
// responder detects it, measures its own detection delay with the
// phase-slope method, waits out its (known) turnaround plus a fixed
// deliberate wait, and answers with a response frame carrying its measured
// detection delay. The prober counts the samples from its transmission to
// the (slope-refined) arrival of the response and solves Eq. 2 for the
// one-way propagation delay. Nodes run this during association and
// periodically afterwards to maintain their delay tables.

// probePayload carries the responder's measurements, in units of samples
// scaled by 1000 for fixed-point transport.
type probePayload struct {
	DetectRx float64 // responder's detection-delay estimate for the probe
	TurnWait float64 // responder's turnaround + deliberate wait actually used
}

func (p probePayload) bytes() []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(p.DetectRx*1000)))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(p.TurnWait*1000)))
	return b
}

func parseProbePayload(b []byte) (probePayload, error) {
	if len(b) != 16 {
		return probePayload{}, errors.New("phy: bad probe payload")
	}
	return probePayload{
		DetectRx: float64(int64(binary.LittleEndian.Uint64(b[0:]))) / 1000,
		TurnWait: float64(int64(binary.LittleEndian.Uint64(b[8:]))) / 1000,
	}, nil
}

// ProbeSimConfig wires one probe/response exchange between two nodes.
type ProbeSimConfig struct {
	Cfg *modem.Config
	// Forward and Reverse are the prober->responder and responder->prober
	// links. Physical channels are reciprocal in delay; the multipath
	// realizations may differ.
	Forward, Reverse Link
	// ResponderTurnaround is the responder's constant rx->tx switch time in
	// samples (locally measured in clock ticks, paper §4.2b).
	ResponderTurnaround float64
	// ResponderWait is the deliberate extra wait at the responder, known to
	// the prober (it guarantees Eq. 2's ordering assumption).
	ResponderWait float64
	// Oscillator offsets relative to an arbitrary common reference.
	ProberCFO, ResponderCFO float64
	NoiseProber             float64 // noise power at the prober's receiver
	NoiseResponder          float64
	Rng                     *rand.Rand
}

// probeBackoff is the FFT backoff both nodes of a probe exchange use.
const probeBackoff = 3

// ProbeResult is the outcome of one exchange.
type ProbeResult struct {
	// EstimatedOneWay is the prober's propagation-delay estimate (samples).
	EstimatedOneWay float64
	// TrueOneWay is the simulator's ground truth (the forward link delay).
	TrueOneWay float64
	// ResponderDetect is the detection-delay figure the responder reported.
	ResponderDetect float64
}

// Run simulates the full exchange on waveforms.
func (c *ProbeSimConfig) Run() (*ProbeResult, error) {
	cfg := c.Cfg
	probeFP := modem.FrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.BPSK, Code: modem.Rate12},
		CP: cfg.CPLen, PayloadLen: 16, ScramblerSeed: 0x2a,
	}

	// --- Prober transmits the probe at local time txStart. ---
	const margin = 500
	txStart := float64(margin)
	probeWave := modem.BuildFrame(probeFP, probePayload{}.bytes())

	// --- Responder receives it. ---
	respWindow := margin + len(probeWave) + int(c.Forward.Delay) + 6*cfg.NFFT
	atResponder := channel.Mix(c.Rng, respWindow, 0, c.NoiseResponder, channel.Emission{
		Wave:  probeWave,
		Start: txStart + c.Forward.Delay,
		Gain:  c.Forward.Gain,
		CFO:   c.ProberCFO - c.ResponderCFO,
		Phase: c.Rng.Float64() * 2 * math.Pi,
		Path:  c.Forward.Path,
	})
	rxB := &modem.Receiver{Cfg: cfg, FFTBackoff: probeBackoff}
	_, okB, diagB, err := rxB.Receive(probeFP, atResponder, 0)
	if err != nil || !okB {
		return nil, errors.New("phy: responder missed the probe")
	}
	// Responder's arrival estimate and detection-delay report. Its
	// "detection instant" is when the probe's frame is fully processed; the
	// useful quantity for Eq. 2 is the offset between true arrival and its
	// local time base, which the slope method supplies.
	arrivalAtB := slopeArrival(cfg, diagB.Detect, diagB.H, probeBackoff)
	detB := arrivalAtB - float64(diagB.Detect.FineIdx-probeBackoff) // slope refinement vs raw fine index

	// --- Responder replies after its turnaround + deliberate wait. ---
	turnWait := c.ResponderTurnaround + c.ResponderWait
	replyTx := arrivalAtB + float64(probeFP.AirtimeSamples()) + turnWait
	respFP := probeFP
	respFP.ScramblerSeed = 0x33
	respWave := modem.BuildFrame(respFP, probePayload{DetectRx: detB, TurnWait: turnWait}.bytes())

	// --- Prober receives the response. ---
	probWindow := int(replyTx+c.Reverse.Delay) + len(respWave) + 6*cfg.NFFT
	atProber := channel.Mix(c.Rng, probWindow, 0, c.NoiseProber, channel.Emission{
		Wave:  respWave,
		Start: replyTx + c.Reverse.Delay,
		Gain:  c.Reverse.Gain,
		CFO:   c.ResponderCFO - c.ProberCFO,
		Phase: c.Rng.Float64() * 2 * math.Pi,
		Path:  c.Reverse.Path,
	})
	rxA := &modem.Receiver{Cfg: cfg, FFTBackoff: probeBackoff}
	payload, okA, diagA, err := rxA.Receive(respFP, atProber, int(txStart)+probeFP.AirtimeSamples())
	if err != nil || !okA {
		return nil, errors.New("phy: prober missed the response")
	}
	report, err := parseProbePayload(payload)
	if err != nil {
		return nil, err
	}
	arrivalAtA := slopeArrival(cfg, diagA.Detect, diagA.H, probeBackoff)

	// --- Eq. 2. The prober measures the interval from the END of its probe
	// transmission to the (slope-refined) arrival of the response; that
	// interval is d_fwd + turnWait + d_rev. ---
	interval := arrivalAtA - (txStart + float64(probeFP.AirtimeSamples()))
	ex := sls.ProbeExchange{
		RoundTrip:   interval,
		DetectRx:    0, // the responder's detection delay is already folded
		TurnRx:      0, // into its slope-based arrival estimate and its
		DetectTx:    0, // reported turnWait; see below
		ExtraWaitRx: report.TurnWait,
	}
	return &ProbeResult{
		EstimatedOneWay: ex.OneWayDelay(),
		TrueOneWay:      c.Forward.Delay,
		ResponderDetect: report.DetectRx,
	}, nil
}
