package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/modem"
	"repro/internal/phy"
	"repro/internal/sls"
)

// Every trial-based runner in this file takes the run context (seed,
// workers, monitor) first, like every other experiment runner. Outputs are
// identical at every worker count. RunOverheadTable is closed-form and has
// no trials to parallelize.

// ------------------------------------------------------- §4.4 overhead

// OverheadRow is one line of the synchronization-overhead table.
type OverheadRow struct {
	Senders          int
	OverheadFraction float64
	FrameAirtimeUs   float64
}

// RunOverheadTable computes the §4.4 overhead numbers: SIFS + 2 CE symbols
// per co-sender, for 1460-byte packets at 12 Mbps.
func RunOverheadTable() []OverheadRow {
	cfg := Profile80211()
	rate, _ := modem.RateByMbps(12)
	var out []OverheadRow
	for senders := 2; senders <= 5; senders++ {
		p := phy.JointFrameParams{
			Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
			PayloadLen: 1460, Seed: 1, NumCo: senders - 1,
		}
		out = append(out, OverheadRow{
			Senders:          senders,
			OverheadFraction: p.OverheadFraction(),
			FrameAirtimeUs:   p.AirtimeSeconds() * 1e6,
		})
	}
	return out
}

// ----------------------------------------- detection-delay premise (§4.2a)

// DetDelayPoint summarizes the packet-detection delay distribution at one
// SNR: the paper's premise that detection instants vary by hundreds of ns
// and depend on SNR.
type DetDelayPoint struct {
	SNRdB    float64
	MeanNs   float64
	StdNs    float64
	P95Ns    float64
	Detected int
	Missed   int
}

// RunDetDelay measures the coarse packet-detection delay (detector firing
// instant minus true first sample) across SNRs on the WiGLAN profile.
func RunDetDelay(ec engine.Config, snrs []float64, trials int) []DetDelayPoint {
	cfg := ProfileWiGLAN()
	p := modem.FrameParams{
		Cfg: cfg, Rate: modem.Rate{Mod: modem.BPSK, Code: modem.Rate12},
		CP: cfg.CPLen, PayloadLen: 20, ScramblerSeed: 0x5d,
	}
	nsPerSample := 1e9 / cfg.SampleRateHz

	type detTrial struct {
		delayNs float64
		ok      bool
	}
	grid := engine.Grid(ec, len(snrs), trials, func(pt, t int, rng *rand.Rand) detTrial {
		payload := make([]byte, p.PayloadLen)
		rng.Read(payload)
		wave := modem.BuildFrame(p, payload)
		m := channel.NewIndoor(rng, cfg.SampleRateHz, 30, 6)
		faded := m.Apply(wave)
		sig := dsp.MeanPower(faded)
		noise := channel.NoisePowerForSNR(sig, snrs[pt])
		const lead = 700
		buf := make([]complex128, lead+len(faded)+400)
		copy(buf[lead:], faded)
		channel.AddAWGN(rng, buf, noise)
		det := modem.DetectPacket(cfg, buf, 0)
		if !det.Detected || det.CoarseIdx < lead-2*cfg.NFFT {
			return detTrial{}
		}
		return detTrial{delayNs: float64(det.CoarseIdx-lead) * nsPerSample, ok: true}
	})

	var out []DetDelayPoint
	for i, snr := range snrs {
		var delays []float64
		missed := 0
		for _, tr := range grid[i] {
			if tr.ok {
				delays = append(delays, tr.delayNs)
			} else {
				missed++
			}
		}
		pt := DetDelayPoint{SNRdB: snr, Detected: len(delays), Missed: missed}
		if len(delays) > 0 {
			pt.MeanNs = dsp.Mean(delays)
			pt.StdNs = dsp.StdDev(delays)
			pt.P95Ns = dsp.Percentile(delays, 95)
		}
		out = append(out, pt)
	}
	return out
}

// ------------------------------------------------ ablation: slope window

// SlopeWindowResult compares the 3 MHz-windowed phase-slope delay estimator
// against a whole-band fit under frequency-selective fading.
type SlopeWindowResult struct {
	WindowedRMS  float64 // RMS delay-difference error, samples
	WholeBandRMS float64
	Draws        int
}

// RunAblationSlopeWindow measures why the paper fits slopes over windows
// narrower than the coherence bandwidth (§4.2a): over heavier multipath the
// windowed estimator's error on delay differences stays lower than the
// whole-band fit, which suffers unwrap errors across deep fades.
func RunAblationSlopeWindow(ec engine.Config, draws int) SlopeWindowResult {
	cfg := ProfileWiGLAN()
	type sqErr struct{ w, b float64 }
	rows := engine.Map(ec, 0, draws, func(i int, rng *rand.Rand) sqErr {
		m := channel.NewIndoor(rng, cfg.SampleRateHz, 60, 0) // heavy NLOS multipath
		d1 := rng.Float64() * 3
		d2 := d1 + 1.5
		h1 := delayedChannel(cfg, m, d1)
		h2 := delayedChannel(cfg, m, d2)
		w := (sls.EstimateDelay(cfg, h2) - sls.EstimateDelay(cfg, h1)) - (d2 - d1)
		b := (sls.EstimateDelayWindowed(cfg, h2, 1e12) - sls.EstimateDelayWindowed(cfg, h1, 1e12)) - (d2 - d1)
		return sqErr{w: w * w, b: b * b}
	})
	var wErr, bErr float64
	for _, r := range rows {
		wErr += r.w
		bErr += r.b
	}
	return SlopeWindowResult{
		WindowedRMS:  math.Sqrt(wErr / float64(draws)),
		WholeBandRMS: math.Sqrt(bErr / float64(draws)),
		Draws:        draws,
	}
}

func delayedChannel(cfg *Config, m *channel.Multipath, d float64) []complex128 {
	h := m.FreqResponse(cfg.NFFT)
	dsp.PhaseRampDelay(h, d)
	used := map[int]bool{}
	for _, k := range cfg.UsedBins() {
		used[cfg.Bin(k)] = true
	}
	for b := range h {
		if !used[b] {
			h[b] = 0
		}
	}
	return h
}

// --------------------------------------------- ablation: naive combining

// NaiveCombiningResult compares worst-case effective SNR of STBC versus
// naive identical transmission across random relative phases (§6).
type NaiveCombiningResult struct {
	STBCWorstSNRdB  float64
	NaiveWorstSNRdB float64
	NaiveFailures   int // frames that produced no usable EVM at all
	Frames          int
}

// RunAblationNaiveCombining quantifies the Smart Combiner's value: with
// naive identical transmission some relative phases cancel destructively;
// with the Alamouti code the worst case stays near the best case. The phase
// sweep forms the engine grid's points and the two modes its trials; both
// modes deliberately draw from the frame's PointRNG rather than their own
// trial streams, so each phase point compares STBC against naive on the
// identical channel realization and payload — the comparison isolates the
// combining scheme, not the fading luck.
func RunAblationNaiveCombining(ec engine.Config, frames int) NaiveCombiningResult {
	cfg := ProfileWiGLAN()
	res := NaiveCombiningResult{Frames: frames}
	res.STBCWorstSNRdB = math.Inf(1)
	res.NaiveWorstSNRdB = math.Inf(1)

	type frameRes struct {
		snrDB  float64
		ok     bool
		failed bool
	}
	grid := engine.Grid(ec, frames, 2, func(f, mode int, _ *rand.Rand) frameRes {
		rng := engine.PointRNG(ec.Seed, f)
		sim := fig13Sim(rng, cfg, cfg.CPLen, 25, false)
		if mode == 1 {
			sim.P.Combining = phy.CombineNaive
		}
		// Sweep the co-sender's oscillator phase across the circle.
		sim.Co[0].Phase = 2 * math.Pi * float64(f) / float64(frames)
		payload := make([]byte, sim.P.PayloadLen)
		rng.Read(payload)
		run, err := sim.Run(payload)
		if err != nil || !run.CoJoined[0] {
			return frameRes{}
		}
		rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
		out, err := rx.Receive(run.RxWave, 0)
		if err != nil || out.EVM <= 0 {
			return frameRes{failed: true}
		}
		return frameRes{snrDB: dsp.DB(1 / out.EVM), ok: true}
	})

	for f := 0; f < frames; f++ {
		for mode := 0; mode < 2; mode++ {
			r := grid[f][mode]
			if r.failed && mode == 1 {
				res.NaiveFailures++
			}
			if !r.ok {
				continue
			}
			if mode == 0 && r.snrDB < res.STBCWorstSNRdB {
				res.STBCWorstSNRdB = r.snrDB
			}
			if mode == 1 && r.snrDB < res.NaiveWorstSNRdB {
				res.NaiveWorstSNRdB = r.snrDB
			}
		}
	}
	return res
}

// ---------------------------------------------- ablation: pilot sharing

// PilotSharingResult compares per-sender pilot tracking against a single
// shared phase track under distinct residual CFOs (§5).
type PilotSharingResult struct {
	SharedPilotsEVM float64 // SourceSync design
	NaiveTrackEVM   float64 // single common phase track
	Frames          int
}

// RunAblationPilotSharing measures decoding quality with and without the
// paper's shared-pilot per-sender phase tracking when the two senders carry
// different residual frequency offsets.
func RunAblationPilotSharing(ec engine.Config, frames int) PilotSharingResult {
	cfg := ProfileWiGLAN()
	res := PilotSharingResult{Frames: frames}

	type frameRes struct {
		sharedEVM, naiveEVM float64
	}
	rows := engine.Map(ec, 0, frames, func(f int, rng *rand.Rand) frameRes {
		sim := fig13Sim(rng, cfg, cfg.CPLen, 25, false)
		// Exaggerate the residual offsets so the divergence is visible in a
		// short frame; use a longer payload for drift to accumulate.
		sim.P.PayloadLen = 400
		sim.Lead.ResidCFO = channel.PPMToCFO(0.8, 5.8e9, cfg.SampleRateHz)
		sim.Co[0].ResidCFO = channel.PPMToCFO(-0.8, 5.8e9, cfg.SampleRateHz)
		payload := make([]byte, sim.P.PayloadLen)
		rng.Read(payload)
		run, err := sim.Run(payload)
		if err != nil || !run.CoJoined[0] {
			return frameRes{}
		}
		var fr frameRes
		shared := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
		if out, err := shared.Receive(run.RxWave, 0); err == nil && out.EVM > 0 {
			fr.sharedEVM = out.EVM
		}
		naive := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3, NaivePhaseTracking: true}
		if out, err := naive.Receive(run.RxWave, 0); err == nil && out.EVM > 0 {
			fr.naiveEVM = out.EVM
		}
		return fr
	})

	var sAcc, nAcc float64
	var sN, nN int
	for _, r := range rows {
		if r.sharedEVM > 0 {
			sAcc += r.sharedEVM
			sN++
		}
		if r.naiveEVM > 0 {
			nAcc += r.naiveEVM
			nN++
		}
	}
	if sN > 0 {
		res.SharedPilotsEVM = sAcc / float64(sN)
	}
	if nN > 0 {
		res.NaiveTrackEVM = nAcc / float64(nN)
	}
	return res
}

// ------------------------------------------------ ablation: multi-rx LP

// MultiRxLPResult compares the LP-optimized wait times against aligning to
// the first receiver only, over random multi-receiver delay configurations.
type MultiRxLPResult struct {
	LPMaxMisalign    float64 // mean over configs of worst-case misalignment, samples
	FirstRxMisalign  float64 // same when w aligns receiver 0 exactly
	Configurations   int
	ReceiversPerConf int
}

// RunAblationMultiRxLP quantifies §4.6: with several receivers, choosing
// wait times via the min-max LP lowers the worst-case misalignment (and
// hence the CP increase) relative to aligning at a single receiver.
func RunAblationMultiRxLP(ec engine.Config, configs, receivers int) MultiRxLPResult {
	res := MultiRxLPResult{Configurations: configs, ReceiversPerConf: receivers}

	type cfgRes struct {
		lpMax, worst float64
		ok           bool
	}
	rows := engine.Map(ec, 0, configs, func(c int, rng *rand.Rand) cfgRes {
		tLead := make([]float64, receivers)
		tCo := [][]float64{make([]float64, receivers), make([]float64, receivers)}
		for k := 0; k < receivers; k++ {
			tLead[k] = rng.Float64() * 8
			tCo[0][k] = rng.Float64() * 8
			tCo[1][k] = rng.Float64() * 8
		}
		_, lpMax, err := sls.MultiReceiverWaits(tLead, tCo)
		if err != nil {
			return cfgRes{}
		}
		// First-receiver alignment: w_i = T_0 - t_i0.
		w0 := []float64{tLead[0] - tCo[0][0], tLead[0] - tCo[1][0]}
		worst := 0.0
		for k := 0; k < receivers; k++ {
			for i := 0; i < 2; i++ {
				if v := math.Abs(w0[i] + tCo[i][k] - tLead[k]); v > worst {
					worst = v
				}
			}
			if v := math.Abs((w0[0] + tCo[0][k]) - (w0[1] + tCo[1][k])); v > worst {
				worst = v
			}
		}
		return cfgRes{lpMax: lpMax, worst: worst, ok: true}
	})

	for _, r := range rows {
		if !r.ok {
			continue
		}
		res.LPMaxMisalign += r.lpMax / float64(configs)
		res.FirstRxMisalign += r.worst / float64(configs)
	}
	return res
}
