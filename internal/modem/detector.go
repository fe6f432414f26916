package modem

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Detection models the two-stage packet acquisition of an 802.11 receiver.
//
// Stage 1 (coarse): a double-sliding-window energy detector fires when the
// ratio of incoming to trailing energy crosses a threshold, confirmed by the
// periodicity metric of the short training field. The instant of crossing is
// the "packet detection" event; its offset from the true first sample is the
// packet detection delay that varies with SNR and multipath (paper §4.2a).
//
// Stage 2 (fine): cross-correlation against the known long training field
// locates the preamble start to within a sample or two; the residual is
// measured by the SLS phase-slope estimator built on top of this package.

// DetectResult reports a packet acquisition.
type DetectResult struct {
	Detected  bool
	CoarseIdx int     // sample index at which the energy detector fired
	FineIdx   int     // estimated index of the first preamble sample
	CoarseCFO float64 // CFO estimate from STS periodicity, cycles/sample
}

// Detector thresholds.
const (
	detEnergyRatio = 2    // coarse threshold on after/before energy
	detMinAutoCorr = 0.35 // STS periodicity confirmation
)

// DetectPacket searches x (starting at from) for a preamble. It returns the
// coarse detection instant and the fine preamble-start estimate. The fine
// estimate is negative when the stream begins after the preamble's first
// sample.
func DetectPacket(cfg *Config, x []complex128, from int) DetectResult {
	period := cfg.STSPeriod()
	w := 2 * period
	if from < 0 {
		from = 0
	}
	if len(x)-from < cfg.PreambleLen()+2*w {
		return DetectResult{}
	}
	seg := x[from:]
	ratios := dsp.DoubleSlidingWindow(seg, w)
	auto := dsp.AutoCorrRatio(seg, period, w)

	// Find the first energy-ratio crossing whose following samples also show
	// STS periodicity. The crossing at ratio index d means the energy
	// arrived inside window [d+w, d+2w); the detector "fires" at the end of
	// that window, which is what a hardware implementation timestamps.
	coarse := -1
	confirm := -1
	for d := 0; d < len(ratios); d++ {
		if ratios[d] < detEnergyRatio {
			continue
		}
		for j := d; j <= d+3*w && j < len(auto); j++ {
			if auto[j] >= detMinAutoCorr {
				confirm = j
				break
			}
		}
		if confirm >= 0 {
			coarse = d + 2*w
			break
		}
	}
	if coarse < 0 {
		return DetectResult{}
	}

	// Coarse CFO from the STS periodicity, anchored at the confirmation
	// index (where periodic signal is known to be present — the energy
	// crossing itself may precede the packet on a noise blip). The
	// lag-period correlation phase equals 2*pi*cfo*period; range
	// +-1/(2*period) cycles/sample, ample for crystal offsets.
	cfoLo := confirm
	cfoHi := confirm + 2*w
	if cfoHi+period > len(seg) {
		cfoHi = len(seg) - period
	}
	var acc complex128
	for i := cfoLo; i < cfoHi; i++ {
		acc += seg[i+period] * cmplx.Conj(seg[i])
	}
	coarseCFO := cmplx.Phase(acc) / (2 * math.Pi * float64(period))

	// Fine timing: correlate the long-training reference around the coarse
	// estimate. The LTS field begins 10 STS periods after the preamble
	// start; the coarse instant lies anywhere from just after the preamble
	// start (high SNR) to deep into the STS (low SNR), so search the whole
	// plausible span on both sides. Correlation is done on a CFO-corrected
	// copy, since uncompensated rotation decoheres the 2.5-symbol-long
	// reference.
	// The coarse instant can precede the true packet start by up to ~2w (a
	// noise blip confirmed by the following packet) or trail it by most of
	// the STS at low SNR, so the search is asymmetric.
	ref := cfg.LongTraining()
	searchLo := coarse - 6*period
	if searchLo < 0 {
		searchLo = 0
	}
	searchHi := coarse + 26*period
	if searchHi+len(ref) > len(seg) {
		searchHi = len(seg) - len(ref)
	}
	if searchHi <= searchLo {
		// Not enough samples to fine-time; fall back to the coarse guess.
		return DetectResult{Detected: true, CoarseIdx: from + coarse, FineIdx: from + coarse - w, CoarseCFO: coarseCFO}
	}
	fineSeg := append([]complex128(nil), seg[searchLo:searchHi+len(ref)]...)
	dsp.Rotate(fineSeg, -coarseCFO, searchLo)
	corr := dsp.CrossCorrelate(fineSeg, ref)
	pk, _ := dsp.PeakIndex(corr)
	// The correlation peak marks the start of LongTraining (its guard).
	// LongTraining begins 10 STS periods into the preamble.
	ltsFieldStart := searchLo + pk
	fine := ltsFieldStart - 10*period
	return DetectResult{Detected: true, CoarseIdx: from + coarse, FineIdx: from + fine, CoarseCFO: coarseCFO}
}

// EstimateCFO measures the carrier frequency offset (in cycles per sample)
// from the periodicity of the long training field: two repetitions of the
// same NFFT samples rotate by 2*pi*cfo*NFFT between them.
func EstimateCFO(cfg *Config, x []complex128, preambleStart int) float64 {
	n := cfg.NFFT
	lts1 := preambleStart + cfg.LTSOffset()
	if lts1+2*n > len(x) || lts1 < 0 {
		return 0
	}
	var acc complex128
	for i := 0; i < n; i++ {
		acc += x[lts1+n+i] * cmplx.Conj(x[lts1+i])
	}
	return cmplx.Phase(acc) / (2 * math.Pi * float64(n))
}

// CorrectCFO derotates x in place by the given offset (cycles per sample).
// x[0] is taken to be absolute sample index ref, so the correction phase is
// continuous across buffers.
func CorrectCFO(x []complex128, cfo float64, ref int) {
	dsp.Rotate(x, -cfo, ref)
}
