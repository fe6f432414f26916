// Package permodel predicts packet error rate (PER) versus SNR for the
// modem's rates. The throughput experiments (paper Figs. 17-18) simulate
// thousands of packet transmissions; running the full waveform PHY for each
// would be prohibitive, so the MAC-level simulators consume this model: a
// standard union-bound analysis of the 802.11 convolutional code over
// hard-decision demapping, driven by per-subcarrier SNRs. The model is
// validated against the in-repo waveform PHY (see tests and the calibration
// bench), which is the honest link back to first principles.
//
// A simulated packet needs only the bit u >= PER for its uniform u.
// Delivered returns exactly that bit, but decides most draws from a
// bracket on PER read from per-modulation BER and per-code-rate coded-BER
// tables, running the exact PER (48 Erfc calls and the union bound) only
// when u falls inside the bracket. PER stays the reference and the
// fallback. The only package-level state is read-only: the binomial
// table built at init, and the bracket's tables, built once on the first
// Delivered call.
package permodel

import (
	"math"

	"repro/internal/dsp"
	"repro/internal/modem"
)

// UncodedBER returns the raw bit error rate of hard-decision demapping for
// one subcarrier at the given linear SNR, using the standard Gray-coded
// M-QAM approximations.
func UncodedBER(m modem.Modulation, snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	switch m {
	case modem.BPSK:
		return qfunc(math.Sqrt(2 * snr))
	case modem.QPSK:
		return qfunc(math.Sqrt(snr))
	case modem.QAM16:
		return 0.75 * qfunc(math.Sqrt(snr/5))
	case modem.QAM64:
		return 7.0 / 12 * qfunc(math.Sqrt(snr/21))
	}
	panic("permodel: unknown modulation")
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// Distance spectra of the 802.11 convolutional code (K=7, 133/171) and its
// punctured variants, indexed by code rate: c_d is the total
// information-bit weight of all paths at Hamming distance d from the
// all-zero path, starting at dFree. These are the standard published
// values used in 802.11 performance analyses.
var spectra = [...]struct {
	dFree int
	cd    []float64
}{
	modem.Rate12: {10, []float64{36, 0, 211, 0, 1404, 0, 11633, 0, 77433, 0, 502690}},
	modem.Rate23: {6, []float64{3, 70, 285, 1276, 6160, 27128, 117019}},
	modem.Rate34: {5, []float64{42, 201, 1492, 10469, 62935, 379644}},
}

// maxDist is the largest Hamming distance any spectrum reaches (rate 1/2:
// dFree 10 plus ten more terms).
const maxDist = 20

// binomTable[n][k] is C(n, k) for n, k <= maxDist, built once by binom so
// every coefficient is the float64 binom returns.
var binomTable = func() (t [maxDist + 1][maxDist + 1]float64) {
	for n := range t {
		for k := range t[n] {
			t[n][k] = binom(n, k)
		}
	}
	return t
}()

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// CodedBitErrorBound returns the union-bound post-Viterbi bit error
// probability for crossover probability p at the given code rate.
//
// Each distance-d term is the probability that the Viterbi decoder prefers
// a path at Hamming distance d over a hard-decision channel with crossover
// p: the sum over k > d/2 of C(d,k) p^k (1-p)^(d-k), plus half the k = d/2
// term for even d. The powers are taken once per call with math.Pow and
// shared by every term, so each term is the same float64 product, in the
// same order, as evaluating it on its own.
func CodedBitErrorBound(p float64, code modem.CodeRate) float64 {
	if code < 0 || int(code) >= len(spectra) {
		panic("permodel: unknown code rate")
	}
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	s := &spectra[code]
	maxD := s.dFree + len(s.cd) - 1
	// pk[k] = p^k and qj[j] = (1-p)^j for every exponent a term reads:
	// k from ceil(dFree/2) up, j = d-k up to maxD/2.
	var pk, qj [maxDist + 1]float64
	for k := (s.dFree + 1) / 2; k <= maxD; k++ {
		pk[k] = math.Pow(p, float64(k))
	}
	for j := 0; j <= maxD/2; j++ {
		qj[j] = math.Pow(1-p, float64(j))
	}
	var pb float64
	for i, c := range s.cd {
		if c == 0 {
			continue
		}
		d := s.dFree + i
		var sum float64
		for k := d/2 + 1; k <= d; k++ {
			sum += binomTable[d][k] * pk[k] * qj[d-k]
		}
		if d%2 == 0 {
			sum += 0.5 * binomTable[d][d/2] * pk[d/2] * qj[d/2]
		}
		pb += c * sum
	}
	if pb > 0.5 {
		pb = 0.5
	}
	return pb
}

// PER returns the packet error rate of a payload of payloadBytes bytes
// (plus CRC) at the given rate, where perBinSNR lists the linear SNR of
// each data subcarrier. The interleaver spreads coded bits uniformly over
// subcarriers, so the channel's crossover probability is the mean raw BER
// across bins.
func PER(rate modem.Rate, payloadBytes int, perBinSNR []float64) float64 {
	if len(perBinSNR) == 0 {
		return 1
	}
	var p float64
	for _, s := range perBinSNR {
		p += UncodedBER(rate.Mod, s)
	}
	p /= float64(len(perBinSNR))
	pb := CodedBitErrorBound(p, rate.Code)
	bits := float64((payloadBytes + 4) * 8)
	per := 1 - math.Pow(1-pb, bits)
	if per < 0 {
		per = 0
	}
	if per > 1 {
		per = 1
	}
	return per
}

// FlatPER is PER over a flat channel at the given SNR in dB.
func FlatPER(cfg *modem.Config, rate modem.Rate, payloadBytes int, snrDB float64) float64 {
	bins := make([]float64, cfg.NumData())
	lin := dsp.FromDB(snrDB)
	for i := range bins {
		bins[i] = lin
	}
	return PER(rate, payloadBytes, bins)
}

// AccumulateSNR adds one sender's per-subcarrier SNRs into a joint sum.
// With orthogonal space-time combining the post-combiner SNR per bin is
// the sum of the concurrent synchronized senders' individual SNRs (power
// gain + diversity; paper §8.2), so a joint delivery draw adds each sender
// in turn and keeps no per-sender slices.
func AccumulateSNR(sum, sender []float64) {
	for i, v := range sender {
		sum[i] += v
	}
}
