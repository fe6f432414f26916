package modem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// assembleSymbolRef builds one OFDM symbol the long way: the bins in a
// fresh buffer, a fresh IFFT, and the cyclic prefix copied in front.
func assembleSymbolRef(c *Config, data []complex128, symIdx, cp int, pilots bool) []complex128 {
	bins := make([]complex128, c.NFFT)
	for i, k := range c.DataBins() {
		bins[c.Bin(k)] = data[i]
	}
	if pilots {
		for p, k := range c.PilotBins() {
			bins[c.Bin(k)] = c.PilotValue(p, symIdx)
		}
	}
	t := dsp.IFFT(bins)
	out := make([]complex128, cp+c.NFFT)
	copy(out, t[c.NFFT-cp:])
	copy(out[cp:], t)
	return out
}

// firstBitMismatch returns the first index where a and b differ in any
// bit, len(a) if b is longer, or -1 when they are identical.
func firstBitMismatch(a, b []complex128) int {
	for i := range a {
		if i >= len(b) || math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func TestAppendSymbolMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, cfg := range []*Config{Profile80211(), ProfileWiGLAN()} {
		for _, cp := range []int{0, 1, cfg.CPLen, cfg.NFFT / 2} {
			for _, pilots := range []bool{false, true} {
				for _, symIdx := range []int{0, 1, 130} {
					data := make([]complex128, cfg.NumData())
					for i := range data {
						data[i] = complex(r.NormFloat64(), r.NormFloat64())
					}
					prefix := []complex128{complex(r.NormFloat64(), 1), 2, complex(0, -3)}
					// Spare capacity full of garbage: AppendSymbol must
					// overwrite every sample it appends.
					dst := make([]complex128, len(prefix), len(prefix)+cp+cfg.NFFT+5)
					copy(dst, prefix)
					spare := dst[len(dst):cap(dst)]
					for i := range spare {
						spare[i] = complex(math.NaN(), 1e300)
					}
					want := append(append([]complex128(nil), prefix...), assembleSymbolRef(cfg, data, symIdx, cp, pilots)...)
					got := cfg.AppendSymbol(dst, data, symIdx, cp, pilots)
					if i := firstBitMismatch(got, want); i >= 0 {
						t.Fatalf("%s cp %d pilots %t sym %d: sample %d differs from the reference (len %d, want %d)",
							cfg.Name, cp, pilots, symIdx, i, len(got), len(want))
					}
					if &got[0] != &dst[0] {
						t.Fatalf("%s cp %d: AppendSymbol reallocated a dst with room", cfg.Name, cp)
					}
					if i := firstBitMismatch(cfg.AppendSymbol(nil, data, symIdx, cp, pilots), want[len(prefix):]); i >= 0 {
						t.Fatalf("%s cp %d pilots %t sym %d: onto nil, sample %d differs", cfg.Name, cp, pilots, symIdx, i)
					}
				}
			}
		}
	}
}
