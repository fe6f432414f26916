package phy

import (
	"fmt"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/modem"
	"repro/internal/sls"
)

// Link describes one directed radio link in a simulation.
type Link struct {
	Gain  float64            // amplitude gain (sqrt of power gain)
	Delay float64            // propagation delay in samples (fractional)
	Path  *channel.Multipath // multipath; nil = flat
}

// CoSenderSim describes one co-sender's radio and its measurement state
// going into a joint transmission.
type CoSenderSim struct {
	Turnaround float64 // receive-to-transmit switch time, samples
	OscCFO     float64 // raw oscillator offset vs the receiver, cycles/sample
	ResidCFO   float64 // residual offset after CFO pre-correction toward the receiver
	Phase      float64 // oscillator phase at absolute sample 0

	EstDelayFromLead float64 // d_i estimate from the probe phase, samples
	TxOffset         float64 // w_i from sls (T0 - t_i, or the LP solution)
	NoisePower       float64 // noise at the co-sender's own receiver
	FFTBackoff       int     // co-sender's own FFT backoff for header processing

	// BaselineSync disables SourceSync's delay compensation (the Fig. 13
	// baseline): the co-sender times its transmission off its raw
	// energy-detection instant, with no phase-slope refinement, no
	// propagation-delay subtraction and no wait offset.
	BaselineSync bool
	// DetectJitter is the hardware detection-pipeline latency variability
	// in samples (uniform [0, DetectJitter]); real receivers report
	// hundreds of ns (paper §1, citing Williams et al.). It delays the
	// detection *event*, not the buffered samples, so SourceSync's
	// phase-slope timing is immune but the baseline is not.
	DetectJitter float64
}

// LeadSim describes the lead sender's radio.
type LeadSim struct {
	ResidCFO float64 // residual offset after pre-correction toward the receiver
	Phase    float64
}

// simMargin is the noise-only lead-in, in samples, before the lead's frame
// in every simulated stream.
const simMargin = 600

// JointSimConfig wires a complete joint transmission: the lead, its links to
// every co-sender (over which the sync header is actually detected), and
// everyone's links to the receiver.
type JointSimConfig struct {
	P        JointFrameParams
	Lead     LeadSim
	LeadToCo []Link // lead -> co-sender i (header reception)
	LeadToRx Link
	CoToRx   []Link
	Co       []CoSenderSim
	NoiseRx  float64 // noise power at the receiver
	Rng      *rand.Rand
}

// SimRun is the outcome of one simulated joint transmission.
type SimRun struct {
	// RxWave is the receiver's baseband stream (the frame starts 600
	// noise-only samples in, plus the lead->rx propagation delay).
	RxWave []complex128
	// CoJoined[i] reports whether co-sender i detected and decoded the sync
	// header and therefore transmitted.
	CoJoined []bool
	// TrueMisalign[i] is the actual arrival-time misalignment of co-sender
	// i's symbols relative to the lead's at the receiver antenna, in
	// samples (ground truth; the estimate is in the receiver's result).
	TrueMisalign []float64
	// CoArrivalEstErr[i] is the error of co-sender i's header arrival
	// estimate (diagnostic).
	CoArrivalEstErr []float64
	// SlotMisses counts co-senders that decoded the sync header but could
	// not turn around in time for their TX slot and therefore abstained
	// (paper §4.3: a late-detecting node simply stays silent; the frame
	// remains decodable from the lead alone).
	SlotMisses int
}

// Run simulates the full distributed exchange for one payload.
func (c *JointSimConfig) Run(payload []byte) (*SimRun, error) {
	if len(c.Co) != c.P.NumCo || len(c.LeadToCo) != c.P.NumCo || len(c.CoToRx) != c.P.NumCo {
		return nil, fmt.Errorf("phy: sim has %d co-senders but frame declares %d", len(c.Co), c.P.NumCo)
	}
	data := c.P.encodeDataSymbols(payload)
	lead := append(c.P.leadPrefix(), data[0]...)
	return c.exchange(lead, c.P.TotalLen(), func(i int) []complex128 {
		return append(c.P.coPrefix(i), data[i+1]...)
	}), nil
}

// RunCalibration simulates one calibration frame (paper §8.1.1) through the
// same distributed exchange as Run: the co-sender really detects the
// header and schedules itself; the frame's data region carries alternating
// lead/co training symbols for the ground-truth estimator. Exactly one
// co-sender is supported.
func (c *JointSimConfig) RunCalibration(reps int) (*SimRun, error) {
	if c.P.NumCo != 1 || len(c.Co) != 1 {
		return nil, fmt.Errorf("phy: calibration needs exactly one co-sender")
	}
	return c.exchange(c.P.BuildLeadCalibration(reps), c.P.CalibrationLen(reps), func(i int) []complex128 {
		return c.P.BuildCoCalibration(i, reps)
	}), nil
}

// exchange runs one distributed joint transmission. The lead emits
// leadWave; each co-sender receives the sync header over its own link,
// schedules its slot (paper §4.3) or abstains, and emits coWave(i) from its
// estimated global reference. The receiver's stream covers frameLen
// samples of frame plus guard on both sides.
func (c *JointSimConfig) exchange(leadWave []complex128, frameLen int, coWave func(i int) []complex128) *SimRun {
	cfg := c.P.Cfg
	leadStart := float64(simMargin)
	run := &SimRun{
		CoJoined:        make([]bool, len(c.Co)),
		TrueMisalign:    make([]float64, len(c.Co)),
		CoArrivalEstErr: make([]float64, len(c.Co)),
	}

	// The lead's implied global-reference emission instant.
	leadGlobalRef := leadStart + float64(c.P.GlobalRef())

	emissions := []channel.Emission{{
		Wave:  leadWave,
		Start: leadStart + c.LeadToRx.Delay,
		Gain:  c.LeadToRx.Gain,
		CFO:   c.Lead.ResidCFO,
		Phase: c.Lead.Phase,
		Path:  c.LeadToRx.Path,
	}}

	headerSamples := c.P.HeaderEnd()
	for i := range c.Co {
		co := &c.Co[i]
		link := c.LeadToCo[i]

		// --- Co-sender i receives and processes the sync header. ---
		// Its local stream contains only the header portion of the lead's
		// waveform (everything it needs before turning around).
		hdrWave := leadWave[:headerSamples]
		coWindow := simMargin + headerSamples + int(link.Delay) + 4*cfg.NFFT
		coRx := channel.Mix(c.Rng, coWindow, 0, co.NoisePower, channel.Emission{
			Wave:  hdrWave,
			Start: leadStart + link.Delay,
			Gain:  link.Gain,
			// What the co-sender sees: the lead's (pre-corrected) carrier
			// against its own raw oscillator.
			CFO:   c.Lead.ResidCFO - co.OscCFO,
			Phase: c.Rng.Float64() * 6.28318530717958647692,
			Path:  link.Path,
		})

		arrivalEst, det, hdr, err := receiveHeader(cfg, coRx, 0, co.FFTBackoff)
		if err != nil || !hdr.Joint {
			continue // co-sender never joins; receiver must still decode.
		}
		run.CoJoined[i] = true
		trueArrival := leadStart + link.Delay
		run.CoArrivalEstErr[i] = arrivalEst - trueArrival

		// --- Schedule its transmission (paper §4.3). ---
		var txStart float64
		if co.BaselineSync {
			// Baseline: the raw detection event (with hardware pipeline
			// jitter) is the only time reference; no compensation at all.
			detEvent := float64(det.CoarseIdx) + co.DetectJitter*c.Rng.Float64()
			txStart = detEvent + float64(headerSamples) + sls.SIFSSamples(cfg)
		} else {
			// Estimated global reference:
			// header arrival - d_i + headerLen + SIFS, then the wait offset.
			gEst := arrivalEst - co.EstDelayFromLead + float64(headerSamples) + sls.SIFSSamples(cfg)
			txStart = gEst + co.TxOffset
		}
		ready := arrivalEst + float64(headerSamples) + co.Turnaround
		if txStart < ready {
			// The co-sender cannot make its slot: it abstains rather than
			// transmit late and corrupt the joint frame (§4.3).
			run.CoJoined[i] = false
			run.SlotMisses++
			continue
		}

		emissions = append(emissions, channel.Emission{
			Wave:  coWave(i),
			Start: txStart + c.CoToRx[i].Delay,
			Gain:  c.CoToRx[i].Gain,
			CFO:   co.ResidCFO,
			Phase: co.Phase,
			Path:  c.CoToRx[i].Path,
		})

		run.TrueMisalign[i] = (txStart + c.CoToRx[i].Delay) - (leadGlobalRef + c.LeadToRx.Delay)
	}

	total := simMargin + frameLen + int(c.LeadToRx.Delay) + 8*cfg.NFFT
	run.RxWave = channel.Mix(c.Rng, total, 0, c.NoiseRx, emissions...)
	return run
}

// receiveHeader detects a sync header in stream x, refines the arrival
// estimate with the SLS phase-slope method, and decodes the header bytes.
// The returned arrival estimate is the (fractional) sample index of the
// first preamble sample as seen on this node's clock.
func receiveHeader(cfg *modem.Config, x []complex128, from, backoff int) (float64, modem.DetectResult, SyncHeader, error) {
	hp := headerFrameParams(cfg)
	acq, err := modem.Acquire(cfg, x, from, backoff, hp.AirtimeSamples()+cfg.NFFT)
	if err != nil {
		return 0, acq.Detect, SyncHeader{}, err
	}
	hdr, err := decodeHeader(hp, acq, backoff)
	return slopeArrival(cfg, acq.Detect, acq.H, backoff), acq.Detect, hdr, err
}

// slopeArrival refines a detection into a fractional arrival time: the
// detector's fine index, less the FFT backoff, plus the phase-slope offset
// of the channel estimate (the SLS measurement, §4.2a).
func slopeArrival(cfg *modem.Config, det modem.DetectResult, h []complex128, backoff int) float64 {
	return float64(det.FineIdx-backoff) + sls.EstimateDelay(cfg, h)
}
