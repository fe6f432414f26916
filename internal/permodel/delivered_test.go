package permodel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/modem"
	"repro/internal/testbed"
)

// checkDelivered fails t unless Delivered agrees with u >= PER at u, at
// u = PER, at PER's two float64 neighbours and at both ends of the
// bracket, and — when every bin is finite — unless the bracket holds PER.
func checkDelivered(t *testing.T, rate modem.Rate, payload int, bins []float64, u float64) {
	t.Helper()
	per := PER(rate, payload, bins)
	lo, hi, ok := perBracket(rate, payload, bins)
	finite := true
	for _, s := range bins {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			finite = false
		}
	}
	if finite && ok && !(lo <= per && per <= hi) {
		t.Fatalf("%v, %d bytes, bins %v: PER %v outside bracket [%v, %v]", rate, payload, bins, per, lo, hi)
	}
	for _, v := range []float64{u, per, math.Nextafter(per, math.Inf(-1)), math.Nextafter(per, math.Inf(1)), lo, hi} {
		if got, want := Delivered(rate, payload, bins, v), v >= per; got != want {
			t.Fatalf("%v, %d bytes, bins %v, u %v (%#x): Delivered %v, u >= PER (%v) %v",
				rate, payload, bins, v, math.Float64bits(v), got, per, want)
		}
	}
}

// TestDeliveredEdgeCases walks the inputs the tables cannot bracket and the
// edges of their ranges.
func TestDeliveredEdgeCases(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, 5e-324,
		snrMin, math.Nextafter(snrMin, 0), snrMax, math.Nextafter(snrMax, 0),
		edge(snrIdxLo + 700), math.Nextafter(edge(snrIdxLo+700), 0), 1e-30, 1e30,
	}
	us := []float64{0, 1e-300, 0.25, 0.5, 0.999, math.Nextafter(1, 0), 1, math.NaN()}
	for _, rate := range modem.StandardRates() {
		for _, payload := range []int{-4, 0, 1, 1460, 1 << 20} {
			checkDelivered(t, rate, payload, nil, 0.5)
			for _, s := range specials {
				for _, u := range us {
					checkDelivered(t, rate, payload, []float64{s}, u)
					// One special bin among ordinary ones.
					checkDelivered(t, rate, payload, []float64{10, s, 30, 100}, u)
				}
			}
		}
	}
}

// TestDeliveredMatchesPER is the certificate's property test: random bin
// vectors across the waterfall, and Rayleigh/Rician vectors from real link
// draws, at every standard rate and payloads from 1 byte to 1 MiB.
func TestDeliveredMatchesPER(t *testing.T) {
	perRate := 100000
	if testing.Short() {
		perRate /= 10
	}
	payloads := []int{1, 40, 1460, 65535, 1 << 20}
	rng := rand.New(rand.NewSource(3))
	var envs []*testbed.Testbed
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		envs = append(envs, testbed.Default(cfg))
	}
	buf := make([]float64, 0, 128)
	for _, rate := range modem.StandardRates() {
		for i := 0; i < perRate; i++ {
			bins := buf[:0]
			if i%2 == 0 {
				n := 1 + rng.Intn(48)
				for j := 0; j < n; j++ {
					bins = append(bins, math.Pow(10, (-15+55*rng.Float64())/10))
				}
			} else {
				env := envs[rng.Intn(len(envs))]
				dist := env.LOSThresholdM / 2
				if rng.Intn(2) == 1 {
					dist = env.LOSThresholdM * 3
				}
				bins = env.LinkAtSNR(-5+40*rng.Float64(), dist).AppendSubcarrierSNRs(bins, rng)
			}
			checkDelivered(t, rate, payloads[rng.Intn(len(payloads))], bins, rng.Float64())
		}
	}
}

// TestDeliveredDecidesMostDraws holds the certificate to its purpose: over
// the netsim delivery-draw test's link mix (both profiles, undegraded and
// interference-scaled, one to four senders across the PER waterfall), the
// bracket alone decides at least 95% of draws. A change that sends every
// draw to the exact path still returns the right verdicts; this test is
// what notices.
func TestDeliveredDecidesMostDraws(t *testing.T) {
	rates := modem.StandardRates()
	decided, draws := 0, 0
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		env := testbed.Default(cfg)
		for _, scale := range []float64{1, 0.3} {
			for _, senders := range []int{1, 2, 4} {
				setup := rand.New(rand.NewSource(int64(senders) + 1))
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 400; i++ {
					links := make([]testbed.Link, senders)
					for k := range links {
						dist := env.LOSThresholdM / 2
						if setup.Intn(2) == 1 {
							dist = env.LOSThresholdM * 3
						}
						links[k] = env.LinkAtSNR(setup.Float64()*30, dist)
					}
					rate := rates[setup.Intn(len(rates))]
					payload := []int{40, 1460}[setup.Intn(2)]
					var bins []float64
					for k, l := range links {
						sender := l.AppendSubcarrierSNRs(nil, rng)
						if k == 0 {
							bins = make([]float64, len(sender))
						}
						AccumulateSNR(bins, sender)
					}
					for j := range bins {
						bins[j] *= scale
					}
					u := rng.Float64()
					if lo, hi, ok := perBracket(rate, payload, bins); ok && (u >= hi || u < lo) {
						decided++
					}
					draws++
				}
			}
		}
	}
	share := float64(decided) / float64(draws)
	t.Logf("bracket decided %d of %d draws (%.2f%%)", decided, draws, 100*share)
	if share < 0.95 {
		t.Fatalf("bracket decided %.2f%% of draws, want at least 95%%", 100*share)
	}
}

// FuzzDelivered decodes bytes into a standard rate (byte 0), a payload of
// 1 to 1<<20 bytes (bytes 1-3, little endian), u (bytes 4-11, float64
// bits) and up to 48 raw float64 bins (8 bytes each after that), and holds
// Delivered to u >= PER there and at the boundary values checkDelivered
// adds. The seed corpus is testdata/fuzz/FuzzDelivered.
func FuzzDelivered(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		rate := modem.StandardRates()[data[0]%8]
		payload := 1 + int(uint32(data[1])|uint32(data[2])<<8|uint32(data[3])<<16)%(1<<20)
		u := math.Float64frombits(binary.LittleEndian.Uint64(data[4:12]))
		var bins []float64
		for rest := data[12:]; len(rest) >= 8 && len(bins) < 48; rest = rest[8:] {
			bins = append(bins, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
		}
		checkDelivered(t, rate, payload, bins, u)
	})
}

// BenchmarkDelivered prices the certified verdict of one 48-bin delivery
// draw at each standard rate, over a waterfall mix: Rayleigh bin vectors
// from links within 6 dB of the rate's flat 50%-PER point, each with its
// own uniform. BenchmarkPER prices the exact path it falls back to.
func BenchmarkDelivered(b *testing.B) {
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	rng := rand.New(rand.NewSource(1))
	const mix = 256
	for _, rate := range modem.StandardRates() {
		mid := SNRForPER(cfg, rate, 1460, 0.5)
		bins := make([][]float64, mix)
		us := make([]float64, mix)
		for i := range bins {
			bins[i] = env.LinkAtSNR(mid-6+12*rng.Float64(), env.LOSThresholdM*3).AppendSubcarrierSNRs(nil, rng)
			us[i] = rng.Float64()
		}
		Delivered(rate, 1460, bins[0], us[0])
		b.Run(fmt.Sprintf("mbps=%.0f", rate.BitRate(cfg)/1e6), func(b *testing.B) {
			b.ReportAllocs()
			delivered, i := 0, 0
			for b.Loop() {
				if Delivered(rate, 1460, bins[i%mix], us[i%mix]) {
					delivered++
				}
				i++
			}
			deliveredSink = delivered
		})
	}
}

var deliveredSink int
