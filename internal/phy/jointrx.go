package phy

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/jce"
	"repro/internal/modem"
	"repro/internal/sls"
	"repro/internal/stbc"
)

// JointRxResult reports everything a SourceSync receiver learns from one
// joint frame.
type JointRxResult struct {
	Payload []byte
	OK      bool // CRC passed
	Header  SyncHeader

	Detect   modem.DetectResult
	ActiveCo []bool // which co-sender slots carried energy

	// MisalignEst[i] is the measured symbol misalignment of co-sender i
	// relative to the lead, in samples (the quantity fed back in ACKs,
	// paper §4.5).
	MisalignEst []float64

	// NoiseBinPower is the per-FFT-bin noise power estimated from the SIFS
	// silence gap.
	NoiseBinPower float64
	// SenderBinPower[j][i] is |H_j|^2 on subcarrier Cfg.UsedBins()[i] for
	// sender j (0 = lead); nil for a co-sender whose CE slot was silent.
	SenderBinPower [][]float64
	// EVM is the mean squared error vector magnitude over equalized data
	// constellation points; 1/EVM is an effective post-combining SNR.
	EVM float64
}

// CompositeSNR returns the per-subcarrier SNR (linear) the joint
// transmission delivers: sum of sender channel powers over noise, in
// Cfg.UsedBins() order.
func (r *JointRxResult) CompositeSNR() []float64 {
	var out []float64
	for _, sp := range r.SenderBinPower {
		if out == nil && sp != nil {
			out = make([]float64, len(sp))
		}
		for i, v := range sp {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= r.NoiseBinPower
	}
	return out
}

// SenderSNR returns sender j's per-subcarrier SNR (linear) in
// Cfg.UsedBins() order; empty for a silent co-sender.
func (r *JointRxResult) SenderSNR(j int) []float64 {
	out := make([]float64, len(r.SenderBinPower[j]))
	for i, v := range r.SenderBinPower[j] {
		out[i] = v / r.NoiseBinPower
	}
	return out
}

// JointReceiver decodes SourceSync joint frames.
type JointReceiver struct {
	Cfg        *modem.Config
	FFTBackoff int // samples of deliberate early FFT-window placement
	// NaivePhaseTracking disables per-sender pilot sharing (ablation of
	// paper §5): a single common phase trajectory, fed by every symbol's
	// pilots regardless of owner, is applied to all senders' channels.
	// With distinct residual CFOs this mixes the senders' rotations and
	// degrades decoding — the failure the shared-pilot design prevents.
	NaivePhaseTracking bool
}

// ceActivityFactor is the energy ratio over the noise floor above which a
// CE slot counts as an active co-sender.
const ceActivityFactor = 3

// ErrHeaderFailed is returned when the sync header cannot be decoded.
var ErrHeaderFailed = errors.New("phy: sync header decode failed")

// Receive decodes one joint frame from stream x starting the search at
// index from. The receiver learns everything (rate, CP, payload length,
// number of co-senders) from the sync header; params are not needed.
func (r *JointReceiver) Receive(x []complex128, from int) (*JointRxResult, error) {
	cfg := r.Cfg
	// Acquisition corrects the lead's residual CFO globally; co-sender
	// residuals are handled by per-sender pilot tracking.
	hp := headerFrameParams(cfg)
	acq, err := modem.Acquire(cfg, x, from, r.FFTBackoff, hp.AirtimeSamples()+cfg.NFFT)
	if err != nil {
		return nil, err
	}
	res := &JointRxResult{Detect: acq.Detect}
	hdr, err := decodeHeader(hp, acq, r.FFTBackoff)
	if err != nil {
		return res, err
	}
	res.Header = hdr

	p := JointFrameParams{
		Cfg:        cfg,
		Rate:       modem.StandardRates()[hdr.RateIdx],
		DataCP:     int(hdr.DataCP),
		PayloadLen: int(hdr.PayloadLen),
		Seed:       hdr.Seed,
		NumCo:      int(hdr.NumCo),
	}
	buf := acq.Buf
	if p.TotalLen()+cfg.NFFT > len(buf) {
		return res, errors.New("phy: stream truncated mid frame")
	}

	// Noise floor from the SIFS silence gap.
	res.NoiseBinPower = r.noiseFromGap(p, buf)

	// Lead channel from the header preamble's LTS.
	est := jce.NewEstimator(cfg, p.Senders())
	est.SetChannel(0, acq.H)

	// Co-sender channels from their CE slots, with activity detection.
	res.ActiveCo = make([]bool, p.NumCo)
	res.MisalignEst = make([]float64, p.NumCo)
	ceLen := p.ceSymbolLen()
	for i := 0; i < p.NumCo; i++ {
		slot := p.CESlot(i)
		slotPower := dsp.MeanPower(buf[slot : slot+2*ceLen])
		// Convert the per-bin noise estimate back to per-sample power.
		noiseSample := res.NoiseBinPower / float64(cfg.NFFT)
		if slotPower < ceActivityFactor*noiseSample {
			est.MarkAbsent(i + 1)
			continue
		}
		res.ActiveCo[i] = true
		w1 := slot + p.DataCP - r.FFTBackoff
		w2 := slot + ceLen + p.DataCP - r.FFTBackoff
		est.EstimateFromCE(i+1, buf[w1:w1+cfg.NFFT], buf[w2:w2+cfg.NFFT])
		res.MisalignEst[i] = sls.Misalignment(cfg, acq.H, est.Channel(i+1))
	}

	// Collect per-sender channel powers for the SNR diagnostics.
	used := cfg.UsedBins()
	res.SenderBinPower = make([][]float64, p.Senders())
	for j := range res.SenderBinPower {
		h := est.Channel(j)
		if h == nil {
			continue
		}
		pw := make([]float64, len(used))
		for i, k := range used {
			pw[i] = sqAbs(h[cfg.Bin(k)])
		}
		res.SenderBinPower[j] = pw
	}

	// Data symbols: FFT, pilot tracking, space-time decoding.
	payload, ok, evm := r.decodeData(p, buf, est)
	res.Payload = payload
	res.OK = ok
	res.EVM = evm
	return res, nil
}

// noiseFromGap estimates per-FFT-bin noise power from the SIFS silence.
func (r *JointReceiver) noiseFromGap(p JointFrameParams, buf []complex128) float64 {
	cfg := p.Cfg
	gapStart := p.HeaderEnd() + cfg.CPLen // skip channel tail
	gapEnd := p.GlobalRef() - 8           // guard against early co-senders
	if gapEnd-gapStart < cfg.NFFT {
		gapStart = p.HeaderEnd()
	}
	win := buf[gapStart : gapStart+cfg.NFFT]
	bins := dsp.FFT(win)
	var acc float64
	used := cfg.UsedBins()
	for _, k := range used {
		v := bins[cfg.Bin(k)]
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc / float64(len(used))
}

// decodeData demodulates the space-time-coded data symbols.
func (r *JointReceiver) decodeData(p JointFrameParams, buf []complex128, est *jce.Estimator) (payload []byte, ok bool, evm float64) {
	cfg := p.Cfg
	nsym := p.NumDataSymbols()
	symLen := p.DataCP + cfg.NFFT
	nd := cfg.NumData()

	// First pass: FFT all data symbols and feed the pilot trackers.
	allBins := make([][]complex128, nsym)
	var naive *jce.PhaseTracker
	if r.NaivePhaseTracking {
		naive = jce.NewPhaseTracker()
	}
	for s := 0; s < nsym; s++ {
		w := p.DataStart() + s*symLen + p.DataCP - r.FFTBackoff
		allBins[s] = cfg.SymbolBins(buf[w:])
		if naive != nil {
			owner := est.PilotOwner(s)
			if h := est.Channel(owner); h != nil {
				if ph, ok := jce.MeasurePilotPhase(cfg, h, s, allBins[s]); ok {
					naive.Update(s, ph)
				}
			}
			continue
		}
		est.UpdatePilots(s, allBins[s])
	}

	var code stbc.Code
	if p.Combining == CombineSTBC {
		code, _ = stbc.ForSenders(p.Senders())
	}

	// rotAt returns the common rotation the naive (ablation) tracker would
	// apply at a symbol; 1 when per-sender tracking is active.
	rotAt := func(sym int) complex128 {
		if naive == nil {
			return 1
		}
		theta := naive.At(sym)
		return complex(cosSin(theta))
	}

	eq := make([][]complex128, nsym)
	for s := range eq {
		eq[s] = make([]complex128, nd)
	}
	if code == nil {
		// Naive combining: equalize against the composite channel.
		for s := 0; s < nsym; s++ {
			rot := rotAt(s)
			for j, k := range cfg.DataBins() {
				b := cfg.Bin(k)
				h := est.Composite(s, b) * rot
				if h == 0 {
					continue
				}
				eq[s][j] = allBins[s][b] / h
			}
		}
	} else {
		bl := code.BlockLen()
		y := make([]complex128, bl)
		var hbuf []complex128
		for b0 := 0; b0+bl <= nsym; b0 += bl {
			mid := b0 + bl/2
			rot := rotAt(mid)
			for j, k := range cfg.DataBins() {
				b := cfg.Bin(k)
				for t := 0; t < bl; t++ {
					y[t] = allBins[b0+t][b]
				}
				hbuf = est.SenderChannels(hbuf, mid, b)
				if rot != 1 {
					for i := range hbuf {
						hbuf[i] *= rot
					}
				}
				dec := code.Decode(y, hbuf)
				for t := 0; t < bl; t++ {
					eq[b0+t][j] = dec[t]
				}
			}
		}
	}

	payload, ok = p.dataParams().DecodeSymbolsToPayload(eq)
	return payload, ok, p.Rate.Mod.EVM(eq)
}

// cosSin returns (cos t, sin t) for building a unit rotation.
func cosSin(t float64) (float64, float64) {
	return math.Cos(t), math.Sin(t)
}
