package phy

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/sls"
)

// Calibration frames (paper §8.1.1): to measure SourceSync's
// synchronization error one needs an estimator more accurate than
// SourceSync itself. The paper replaces the data in a joint frame with many
// repetitions of the initial header pattern — alternating lead/co-sender
// training symbols — and averages the per-repetition misalignment
// measurements into a near-noiseless ground truth. The single-shot estimate
// from the header + CE slots (the one SourceSync actually uses, §4.5) is
// then scored against that ground truth.

// CalibrationLen returns the total frame length when the data region is
// replaced by the calibration tail.
func (p JointFrameParams) CalibrationLen(reps int) int {
	return p.DataStart() + 2*reps*p.ceSymbolLen()
}

// BuildLeadCalibration renders the lead's waveform for a calibration frame:
// the data frame's lead prefix, then an LTS symbol in every even tail slot.
func (p JointFrameParams) BuildLeadCalibration(reps int) []complex128 {
	return p.appendCalibrationTail(p.leadPrefix(2*reps*p.ceSymbolLen()), reps, 0)
}

// BuildCoCalibration renders co-sender i's calibration waveform (sample 0 =
// global reference): the data frame's co-sender prefix, then an LTS symbol
// in every odd tail slot.
func (p JointFrameParams) BuildCoCalibration(i, reps int) []complex128 {
	if i != 0 || p.NumCo != 1 {
		panic("phy: calibration frames support exactly one co-sender")
	}
	return p.appendCalibrationTail(p.coPrefix(i, 2*reps*p.ceSymbolLen()), reps, 1)
}

// appendCalibrationTail appends reps [lead LTS, co LTS] symbol pairs to
// wave, sending only the symbol in position slot of each pair (0 = lead,
// 1 = co-sender) and silence in the other.
func (p JointFrameParams) appendCalibrationTail(wave []complex128, reps, slot int) []complex128 {
	ce := ceSymbolWave(p.Cfg, p.DataCP)
	tail := len(wave)
	wave = append(wave, make([]complex128, 2*reps*len(ce))...)
	for r := 0; r < reps; r++ {
		copy(wave[tail+(2*r+slot)*len(ce):], ce)
	}
	return wave
}

// CalibrationResult reports the two estimators' views of one frame.
type CalibrationResult struct {
	// SingleShot is the misalignment estimate from the header + CE slots —
	// what SourceSync feeds back in ACKs.
	SingleShot float64
	// GroundTruth is the mean of the per-repetition misalignment
	// measurements over the calibration tail.
	GroundTruth float64
	// Series contains each repetition's measurement.
	Series []float64
	// MeasuredSNRdB is the average per-bin SNR across both senders' CE
	// fields (the experiment's x-axis).
	MeasuredSNRdB float64
}

// errNoCalibration is returned when the calibration frame cannot be found
// or decoded.
var errNoCalibration = errors.New("phy: calibration frame not decodable")

// ReceiveCalibration processes a calibration frame with known parameters
// p: it acquires the frame, forms the single-shot misalignment estimate
// from the header LTS and the CE slot exactly as Receive does, then
// measures the per-repetition series over the tail. It does not decode the
// sync header.
func (r *JointReceiver) ReceiveCalibration(p JointFrameParams, x []complex128, from, reps int) (*CalibrationResult, error) {
	if err := p.checkHeaderFields(); err != nil {
		return nil, err
	}
	cfg := r.Cfg
	acq, err := modem.Acquire(cfg, x, from, r.FFTBackoff, p.CalibrationLen(reps)+cfg.NFFT)
	if err != nil {
		return nil, errNoCalibration
	}
	buf, hLead := acq.Buf, acq.H

	// Single-shot path: lead channel from header LTS, co channel from CE.
	slot := p.CESlot(0)
	ceLen := p.ceSymbolLen()
	w1 := slot + p.DataCP - r.FFTBackoff
	w2 := slot + ceLen + p.DataCP - r.FFTBackoff
	hCo := cfg.EstimateChannelLTS(buf[w1:w1+cfg.NFFT], buf[w2:w2+cfg.NFFT])
	res := &CalibrationResult{SingleShot: sls.Misalignment(cfg, hLead, hCo)}

	// Noise and SNR diagnostics.
	noise := r.noiseFromGap(p, buf)
	var sig float64
	used := cfg.UsedBins()
	for _, k := range used {
		b := cfg.Bin(k)
		sig += sqAbs(hLead[b]) + sqAbs(hCo[b])
	}
	sig /= float64(2 * len(used))
	if noise > 0 {
		res.MeasuredSNRdB = 10 * math.Log10(sig/noise)
	}

	// Repetition series: single-symbol channel estimates per slot, into
	// one spectrum scratch and one channel buffer per sender. Every
	// repetition writes the same used bins, so the others stay zero.
	bins := make([]complex128, cfg.NFFT)
	hL := make([]complex128, cfg.NFFT)
	hC := make([]complex128, cfg.NFFT)
	res.Series = make([]float64, reps)
	var mean float64
	for rep := range res.Series {
		leadSym := p.DataStart() + (2*rep)*ceLen + p.DataCP - r.FFTBackoff
		coSym := p.DataStart() + (2*rep+1)*ceLen + p.DataCP - r.FFTBackoff
		symbolChannel(cfg, hL, bins, buf[leadSym:leadSym+cfg.NFFT], used)
		symbolChannel(cfg, hC, bins, buf[coSym:coSym+cfg.NFFT], used)
		res.Series[rep] = sls.Misalignment(cfg, hL, hC)
		mean += res.Series[rep]
	}
	res.GroundTruth = mean / float64(len(res.Series))
	return res, nil
}

// symbolChannel estimates the channel from one LTS-patterned symbol into
// h, transforming it through the scratch spectrum bins. Only the used
// bins with a nonzero reference are written.
func symbolChannel(cfg *modem.Config, h, bins, sym []complex128, used []int) {
	dsp.FFTInto(bins, sym)
	ref := cfg.LTSReference()
	for _, k := range used {
		b := cfg.Bin(k)
		if ref[b] != 0 {
			h[b] = bins[b] / ref[b]
		}
	}
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
