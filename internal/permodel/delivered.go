package permodel

import (
	"math"

	"repro/internal/engine"
	"repro/internal/modem"
)

// The certificate. A delivery draw's only output is the bit u >= PER, and
// PER is monotone along its whole chain: each bin's raw BER falls as its
// SNR rises, the coded bit error bound rises with the mean BER, and PER
// rises with the coded bit error rate. So PER can be bracketed from
// tabulated values of the first two stages, and most draws are decided by
// comparing u with the bracket's ends, without an Erfc.
//
// Both tables are indexed by a float64's bucket: its exponent and top six
// mantissa bits (bits >> bucketShift), 64 buckets per octave, so a lookup
// needs no log. A value x in bucket i satisfies edge(i) <= x < edge(i+1),
// where edge(i) is the float64 with bits i << bucketShift.

const (
	bucketShift      = 46
	bucketsPerOctave = 1 << (52 - bucketShift)

	// Bucket indexes of the table ranges: bins with SNR in [2^-20, 2^14)
	// (-60 to 42 dB) and mean BER in [2^-60, 2^-1]. The bucket of 2^e is
	// (1023 + e) * bucketsPerOctave, the biased exponent's place.
	snrIdxLo = (1023 - 20) * bucketsPerOctave
	snrIdxHi = (1023 + 14) * bucketsPerOctave
	pIdxLo   = (1023 - 60) * bucketsPerOctave
	pIdxHi   = (1023 - 1) * bucketsPerOctave

	snrMin = 0x1p-20
	snrMax = 0x1p14
	pMin   = 0x1p-60

	// maxBracketBins caps the bins a bracket sums, so that summation order
	// stays far inside relMargin; longer vectors take the exact path.
	maxBracketBins = 4096

	// relMargin widens the mean-BER and coded-BER brackets. It covers the
	// float64 error of UncodedBER (Erfc's own, plus its argument's rounding
	// magnified by Erfc's slope: under 1e-12 relative wherever the BER is
	// normal), of CodedBitErrorBound (small Pow exponents and a few dozen
	// operations), and of summing up to maxBracketBins bins in another
	// order, each with room to spare. The margins sit before PER's 1-pb
	// rounding, which is monotone, so the bracket on 1-pb holds in float64
	// at any payload size.
	relMargin = 0x1p-30
)

// edge is the lower edge of bucket i.
func edge(i int) float64 { return math.Float64frombits(uint64(i) << bucketShift) }

// bucket is the bucket index of a positive finite x.
func bucket(x float64) int { return int(math.Float64bits(x) >> bucketShift) }

// certTables holds UncodedBER at every SNR bucket edge per modulation, and
// CodedBitErrorBound at every mean-BER bucket edge per code rate. Neither
// depends on the payload, and both are read-only once built.
type certTables struct {
	ber   [modem.QAM64 + 1][snrIdxHi - snrIdxLo + 1]float64
	coded [len(spectra)][pIdxHi - pIdxLo + 1]float64
}

// certMemo holds the certificate's tables under the one key 0 (an int
// key takes the map's fast path; a struct{} key reads about 4 ns slower
// per draw). They are built on the first delivery draw rather than at
// package init, so processes that make no draws never pay for their ~9k
// UncodedBER and ~11k CodedBitErrorBound evaluations (about 10 ms).
var certMemo = engine.NewMemo[int, *certTables]("permodel.cert_tables")

// tables returns the certificate's tables, building them on first use.
func tables() *certTables { return certMemo.Get(0, buildTables) }

func buildTables(int) *certTables {
	t := new(certTables)
	for m := range t.ber {
		for i := range t.ber[m] {
			t.ber[m][i] = UncodedBER(modem.Modulation(m), edge(snrIdxLo+i))
		}
	}
	for c := range t.coded {
		for i := range t.coded[c] {
			t.coded[c][i] = CodedBitErrorBound(edge(pIdxLo+i), modem.CodeRate(c))
		}
	}
	return t
}

// Delivered reports whether a packet survives its delivery draw: exactly
// u >= PER(rate, payloadBytes, perBinSNR), for every input. It first
// brackets PER from the tables (perBracket) and compares u with the
// bracket's ends; only a u inside the bracket, or an input the tables
// cannot bracket (such as no bins or a NaN bin), runs the exact PER.
func Delivered(rate modem.Rate, payloadBytes int, perBinSNR []float64, u float64) bool {
	if lo, hi, ok := perBracket(rate, payloadBytes, perBinSNR); ok {
		if u >= hi {
			return true
		}
		if u < lo {
			return false
		}
	}
	return u >= PER(rate, payloadBytes, perBinSNR)
}

// perBracket returns lo <= PER(rate, payloadBytes, perBinSNR) <= hi, with
// PER as computed in float64, or ok false when it cannot bracket the
// input.
func perBracket(rate modem.Rate, payloadBytes int, perBinSNR []float64) (lo, hi float64, ok bool) {
	bits := float64((payloadBytes + 4) * 8)
	if len(perBinSNR) == 0 || len(perBinSNR) > maxBracketBins || bits <= 0 ||
		uint(rate.Mod) > uint(modem.QAM64) || uint(rate.Code) >= uint(len(spectra)) {
		return 0, 0, false
	}
	t := tables()

	// Each bin's BER lies between the table's values at its bucket's two
	// edges. Below the table a BER is at most 0.5; at or below zero SNR
	// it is exactly 0.5; above the table it is at least 0.
	ber := &t.ber[rate.Mod]
	var sumLo, sumHi float64
	for _, s := range perBinSNR {
		switch {
		case !(s < snrMax):
			if s != s {
				return 0, 0, false
			}
			sumHi += ber[len(ber)-1]
		case s >= snrMin:
			i := bucket(s) - snrIdxLo
			sumLo += ber[i+1]
			sumHi += ber[i]
		case s > 0:
			sumLo += ber[0]
			sumHi += 0.5
		default:
			sumLo += 0.5
			sumHi += 0.5
		}
	}
	n := float64(len(perBinSNR))
	meanLo := sumLo / n * (1 - relMargin)
	meanHi := sumHi / n * (1 + relMargin)

	// The coded bit error bound at the mean BER lies between its values at
	// the bracket ends' outer bucket edges. It is 0 at p = 0 and 0.5 from
	// p = 0.5 up.
	coded := &t.coded[rate.Code]
	var pbLo, pbHi float64
	switch {
	case meanLo >= 0.5:
		pbLo = coded[len(coded)-1]
	case meanLo >= pMin:
		pbLo = coded[bucket(meanLo)-pIdxLo] * (1 - relMargin)
	}
	switch {
	case meanHi >= 0.5:
		pbHi = 0.5
	case meanHi >= pMin:
		pbHi = coded[bucket(meanHi)-pIdxLo+1] * (1 + relMargin)
	default:
		pbHi = coded[0] * (1 + relMargin)
	}

	// 1-pb rounds monotonically, so PER's 1-pb lies between these two. But
	// math.Pow raises to an integer power by repeated squaring, whose
	// rounding error grows with the exponent (up to about bits ulps), so
	// the slack after it scales with bits too.
	slack := (4*bits + 8) * 0x1p-53
	lo = 1 - math.Pow(1-pbLo, bits) - slack
	hi = 1 - math.Pow(1-pbHi, bits) + slack
	return min(max(lo, 0), 1), min(max(hi, 0), 1), true
}
