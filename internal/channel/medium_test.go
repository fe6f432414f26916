package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refMix is Mix as three full-length passes per emission: the multipath
// convolution into a fresh buffer, the fractional and integer delay into
// two more, then the oscillator rotation over every delayed sample. It is
// the reference Mix is held to, bit for bit.
func refMix(rng *rand.Rand, n, origin int, noisePower float64, emissions ...Emission) []complex128 {
	out := make([]complex128, n)
	for _, e := range emissions {
		rel := e.Start - float64(origin)
		if rel < 0 {
			panic("channel: emission starts before mixing window")
		}
		wave := e.Wave
		if e.Path != nil {
			wave = refApply(e.Path.Taps, wave)
		}
		delayed := refDelaySamples(wave, rel, 12)
		gain := e.Gain
		if gain == 0 {
			gain = 1
		}
		rot := cmplx.Rect(gain, e.Phase)
		step := cmplx.Exp(complex(0, 2*math.Pi*e.CFO))
		cur := rot * cmplx.Exp(complex(0, 2*math.Pi*e.CFO*float64(origin)))
		for i, v := range delayed {
			if i >= len(out) {
				break
			}
			out[i] += v * cur
			cur *= step
			if i&1023 == 1023 {
				cur = cur / complex(cmplx.Abs(cur)/gain, 0)
			}
		}
	}
	if noisePower > 0 {
		sigma := math.Sqrt(noisePower / 2)
		for i := range out {
			out[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return out
}

// refApply convolves x with taps over every sample, tap by tap.
func refApply(taps, x []complex128) []complex128 {
	out := make([]complex128, len(x)+len(taps)-1)
	for i, t := range taps {
		if t == 0 {
			continue
		}
		for j, v := range x {
			out[i+j] += t * v
		}
	}
	return out
}

// refDelaySamples prepends the integer part of delay as zeros and applies
// the fractional part (when at least 1e-9) with a Hann-windowed sinc of
// 2*side+1 complex-multiplied taps, dropping its side samples of group
// delay.
func refDelaySamples(x []complex128, delay float64, side int) []complex128 {
	ip := int(math.Floor(delay))
	frac := delay - float64(ip)
	filtered := x
	if frac >= 1e-9 {
		taps := make([]float64, 2*side+1)
		var sum float64
		for i := range taps {
			t := float64(i) - (float64(side) + frac)
			s := 1.0
			if math.Abs(t) >= 1e-12 {
				s = math.Sin(math.Pi*t) / (math.Pi * t)
			}
			w := 0.5 * (1 + math.Cos(math.Pi*(float64(i)-float64(side))/float64(side+1)))
			taps[i] = s * w
			sum += taps[i]
		}
		if sum != 0 {
			for i := range taps {
				taps[i] /= sum
			}
		}
		full := make([]complex128, len(x)+2*side)
		for i, v := range x {
			if v == 0 {
				continue
			}
			for j, t := range taps {
				full[i+j] += v * complex(t, 0)
			}
		}
		filtered = full[side:]
	}
	out := make([]complex128, ip+len(filtered))
	copy(out[ip:], filtered)
	return out
}

// silentRuns zeroes up to k random runs of x, as calibration frames
// leave the other sender's slots silent.
func silentRuns(r *rand.Rand, x []complex128, k int) {
	for ; k > 0 && len(x) > 0; k-- {
		a := r.Intn(len(x))
		clear(x[a:min(len(x), a+r.Intn(200))])
	}
}

// TestMixMatchesReference holds Mix to refMix: integer, fractional and
// zero delays, nil and flat paths, channels with zero taps (and no taps),
// silent runs, waves cut off at n, nonzero origins, unit-default gains,
// several emissions per mix and long enough frames that the rotation
// renormalizes.
func TestMixMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := 300
	if testing.Short() {
		cases = 80
	}
	for c := 0; c < cases; c++ {
		origin := r.Intn(3) * r.Intn(500)
		var es []Emission
		end := origin
		for k := 1 + r.Intn(3); k > 0; k-- {
			wave := make([]complex128, r.Intn(2500))
			for i := range wave {
				wave[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			silentRuns(r, wave, r.Intn(4))
			var path *Multipath
			switch r.Intn(5) {
			case 1:
				path = Flat()
			case 2, 3:
				path = NewRayleigh(r, 1+r.Intn(17), 4)
				for z := r.Intn(3); z > 0; z-- {
					path.Taps[r.Intn(len(path.Taps))] = 0
				}
			case 4:
				path = &Multipath{Taps: make([]complex128, 1+r.Intn(4))}
			}
			start := float64(origin + r.Intn(300))
			switch r.Intn(4) {
			case 1:
				start += r.Float64()
			case 2:
				start += 1e-10 // below the fractional-delay threshold
			case 3:
				start = float64(origin) // zero delay
			}
			e := Emission{Wave: wave, Start: start, Path: path,
				Gain: []float64{0, 0.3, 2}[r.Intn(3)], CFO: 1e-4 * r.NormFloat64(), Phase: 6 * r.Float64()}
			es = append(es, e)
			end = max(end, int(start)+len(wave)+40)
		}
		n := end - origin
		switch r.Intn(3) {
		case 1:
			n = r.Intn(n + 1) // cut emissions short, or miss them entirely
		case 2:
			n += r.Intn(100)
		}
		noise := []float64{0, 0.01}[r.Intn(2)]
		want := refMix(rand.New(rand.NewSource(int64(c))), n, origin, noise, es...)
		got := Mix(rand.New(rand.NewSource(int64(c))), n, origin, noise, es...)
		if !sameBits(got, want) {
			t.Fatalf("case %d (n %d, origin %d, %d emissions): Mix differs from the reference", c, n, origin, len(es))
		}
	}
}

// BenchmarkChannelMix times the receiver's mix of a fig12-shaped
// calibration exchange on the WiGLAN profile: a lead and a co-sender
// frame, each a 1,600-sample prefix and then 20 [lead, co] pairs of
// 144-sample slots with the other sender's slot silent, through 17-tap
// channels at fractional delays, plus noise.
func BenchmarkChannelMix(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	const prefix, slot, reps = 1600, 144, 20
	frame := func(sender int) []complex128 {
		w := make([]complex128, prefix+2*reps*slot)
		for i := range w[:prefix] {
			if sender == 0 || i >= prefix/2 {
				w[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
		}
		for rep := 0; rep < reps; rep++ {
			s := w[prefix+(2*rep+sender)*slot:][:slot]
			for i := range s {
				s[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
		}
		return w
	}
	lead, co := frame(0), frame(1)
	n := 600 + len(lead) + 8*128
	mixes := make([][]Emission, 8)
	for i := range mixes {
		mixes[i] = []Emission{
			{Wave: lead, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, 17, 4)},
			{Wave: co, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, 17, 4)},
		}
	}
	rng := rand.New(rand.NewSource(44))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if out := Mix(rng, n, 0, 0.01, mixes[i%len(mixes)]...); len(out) != n {
			b.Fatalf("mixed %d samples, want %d", len(out), n)
		}
		i++
	}
}
