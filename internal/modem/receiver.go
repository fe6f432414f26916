package modem

import "errors"

// Receiver decodes single-sender frames from a baseband sample stream. It
// starts from the same acquisition (Acquire) as the SourceSync joint
// receiver in internal/phy, which then runs its own joint channel
// estimation.
type Receiver struct {
	Cfg *Config
	// FFTBackoff shifts every FFT window this many samples early (into the
	// cyclic prefix) to protect against late timing estimates at the cost
	// of CP budget. Typical: 2-4 samples.
	FFTBackoff int
	// SoftDecision feeds per-bit confidences (max-log LLRs scaled by the
	// measured EVM) to the Viterbi decoder instead of hard decisions.
	SoftDecision bool
}

// RxDiag carries per-frame receiver diagnostics used by experiments.
type RxDiag struct {
	Detect DetectResult
	CFO    float64      // estimated carrier offset, cycles/sample
	H      []complex128 // channel estimate by FFT bin
	EVM    float64      // rms error vector magnitude over data symbols
}

// ErrNoPacket is returned when no preamble is found in the stream, or when
// the stream does not hold the whole of the frame the caller needs.
var ErrNoPacket = errors.New("modem: no packet detected")

// Acquisition is one detected frame after the receive front end.
type Acquisition struct {
	Detect DetectResult
	CFO    float64      // carrier offset removed from Buf, cycles/sample
	Buf    []complex128 // private copy of the stream; Buf[0] is the preamble's first sample
	H      []complex128 // channel estimate from the two LTS symbols, by FFT bin
}

// Acquire runs the receive front end on stream x from index from: it
// detects a preamble, rejects one that starts before the stream or leaves
// fewer than need samples from its first sample to the end of the stream,
// copies the stream from the preamble on, removes the carrier offset in
// two stages and estimates the channel from the two LTS symbols with the
// FFT windows backoff samples early. The returned Detect is set whenever a
// detection ran; any failure is ErrNoPacket.
func Acquire(cfg *Config, x []complex128, from, backoff, need int) (Acquisition, error) {
	a := Acquisition{Detect: DetectPacket(cfg, x, from)}
	start := a.Detect.FineIdx
	lts1 := cfg.LTSOffset() - backoff
	if !a.Detect.Detected || start < 0 || start+need > len(x) || lts1 < 0 || start+lts1+2*cfg.NFFT > len(x) {
		return a, ErrNoPacket
	}
	a.Buf = append([]complex128(nil), x[start:]...)
	// Two-stage CFO correction: the STS-based coarse estimate has wide
	// range but low precision; the LTS-based estimate is precise but
	// aliases beyond +-1/(2*NFFT), so it refines the residual only.
	CorrectCFO(a.Buf, a.Detect.CoarseCFO, 0)
	residual := EstimateCFO(cfg, a.Buf, 0)
	CorrectCFO(a.Buf, residual, 0)
	a.CFO = a.Detect.CoarseCFO + residual
	a.H = cfg.EstimateChannelLTS(a.Buf[lts1:lts1+cfg.NFFT], a.Buf[lts1+cfg.NFFT:lts1+2*cfg.NFFT])
	return a, nil
}

// Receive locates, equalizes and decodes one frame with parameters p from
// stream x starting at index from. It returns the recovered payload, whether
// the CRC passed and diagnostics. A detection failure, or a stream that
// ends before the frame's last FFT window, returns ErrNoPacket.
func (r *Receiver) Receive(p FrameParams, x []complex128, from int) (payload []byte, ok bool, diag RxDiag, err error) {
	acq, err := Acquire(r.Cfg, x, from, r.FFTBackoff, p.AirtimeSamples()-r.FFTBackoff)
	diag.Detect = acq.Detect
	if err != nil {
		return nil, false, diag, err
	}
	diag.CFO = acq.CFO
	diag.H = acq.H
	syms := p.EqualizeSymbols(acq.Buf, acq.H, r.FFTBackoff)
	diag.EVM = p.Rate.Mod.EVM(syms)
	if r.SoftDecision {
		payload, ok = p.DecodeSymbolsToPayloadSoft(syms, diag.EVM)
	} else {
		payload, ok = p.DecodeSymbolsToPayload(syms)
	}
	return payload, ok, diag, nil
}

// EqualizeSymbols FFTs the data symbols of a preamble-aligned,
// CFO-corrected buffer with every window backoff samples early, removes
// each symbol's pilot-tracked common phase and divides out channel h. It
// returns the equalized data points per symbol. The backoff shifts every
// window equally, including the LTS windows h came from, so no extra phase
// ramp correction is needed.
func (p FrameParams) EqualizeSymbols(buf, h []complex128, backoff int) [][]complex128 {
	cfg := p.Cfg
	nsym := p.NumDataSymbols()
	symLen := p.CP + cfg.NFFT
	syms := make([][]complex128, 0, nsym)
	for s := 0; s < nsym; s++ {
		w := cfg.PreambleLen() + s*symLen + p.CP - backoff
		bins := cfg.SymbolBins(buf[w:])
		phase, _ := cfg.PilotPhase(bins, h, s)
		syms = append(syms, cfg.EqualizeData(bins, h, phase))
	}
	return syms
}

// EVM returns the mean squared distance of equalized points from their
// nearest constellation points of m.
func (m Modulation) EVM(syms [][]complex128) float64 {
	var acc float64
	var n int
	for _, sym := range syms {
		for _, v := range sym {
			d := v - m.Map(m.Demap(v, nil))
			acc += real(d)*real(d) + imag(d)*imag(d)
			n++
		}
	}
	if n > 0 {
		acc /= float64(n)
	}
	return acc
}

// MeasureSubcarrierSNR estimates per-used-bin SNR (linear) by comparing
// equalized LTS bins against their known values: signal power over error
// power, computed from the two LTS repetitions' difference (noise) and mean
// (signal+channel). Entry i is subcarrier cfg.UsedBins()[i].
func MeasureSubcarrierSNR(cfg *Config, x []complex128, preambleStart int) []float64 {
	lts1 := preambleStart + cfg.LTSOffset()
	if lts1 < 0 || lts1+2*cfg.NFFT > len(x) {
		return nil
	}
	b1 := cfg.SymbolBins(x[lts1 : lts1+cfg.NFFT])
	b2 := cfg.SymbolBins(x[lts1+cfg.NFFT : lts1+2*cfg.NFFT])
	used := cfg.UsedBins()
	// The noise is white, so estimate a single variance across all bins
	// (from the difference of the two LTS repetitions); a per-bin noise
	// estimate would make the SNR ratio heavy-tailed.
	var noise float64
	out := make([]float64, len(used))
	for i, k := range used {
		b := cfg.Bin(k)
		sum := b1[b] + b2[b]
		diff := b1[b] - b2[b]
		out[i] = (real(sum)*real(sum) + imag(sum)*imag(sum)) / 4
		noise += (real(diff)*real(diff) + imag(diff)*imag(diff)) / 2
	}
	noise /= float64(len(used))
	if noise <= 0 {
		noise = 1e-12
	}
	for i, sig := range out {
		s := sig - noise/2 // remove the noise bias from the signal term
		if s < 0 {
			s = 0
		}
		out[i] = s / noise
	}
	return out
}
