package modem

import "math"

// Soft demapping: instead of slicing each equalized constellation point to
// the nearest symbol (hard decision), compute per-bit confidences from the
// max-log LLR — the distance to the nearest constellation point with the
// bit at 0 versus at 1, scaled by the noise variance — and let the Viterbi
// decoder weigh them. Worth ~2 dB of coding gain near the waterfall.

// constPoint pairs a constellation point with its bit pattern.
type constPoint struct {
	pt   complex128
	bits []byte
}

// constellations holds every modulation's labeled points (86 in all),
// built at package init.
var constellations = [...][]constPoint{
	BPSK:  BPSK.points(),
	QPSK:  QPSK.points(),
	QAM16: QAM16.points(),
	QAM64: QAM64.points(),
}

// points enumerates the constellation of m with bit labels.
func (m Modulation) points() []constPoint {
	n := m.BitsPerSymbol()
	out := make([]constPoint, 0, 1<<n)
	for code := 0; code < 1<<n; code++ {
		bits := make([]byte, n)
		for b := 0; b < n; b++ {
			bits[b] = byte(code >> (n - 1 - b) & 1)
		}
		out = append(out, constPoint{pt: m.Map(bits), bits: bits})
	}
	return out
}

// DemapSoft appends BitsPerSymbol confidences in [0,1] (probability that
// the bit is 1) for the received point sym, given the per-point noise
// variance. noiseVar <= 0 degenerates to hard decisions (confidences
// exactly 0 or 1), so one code path serves both.
func (m Modulation) DemapSoft(sym complex128, noiseVar float64, dst []float64) []float64 {
	n := m.BitsPerSymbol()
	pts := constellations[m]
	for b := 0; b < n; b++ {
		d0 := math.Inf(1)
		d1 := math.Inf(1)
		for i := range pts {
			d := sqDist(sym, pts[i].pt)
			if pts[i].bits[b] == 1 {
				if d < d1 {
					d1 = d
				}
			} else if d < d0 {
				d0 = d
			}
		}
		var conf float64
		if noiseVar <= 0 {
			if d1 < d0 {
				conf = 1
			}
		} else {
			llr := (d0 - d1) / noiseVar
			if llr > 50 {
				llr = 50
			} else if llr < -50 {
				llr = -50
			}
			conf = 1 / (1 + math.Exp(-llr))
		}
		dst = append(dst, conf)
	}
	return dst
}

func sqDist(a, b complex128) float64 {
	dr := real(a) - real(b)
	di := imag(a) - imag(b)
	return dr*dr + di*di
}
