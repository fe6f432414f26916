package channel

import (
	"fmt"
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

// refApply convolves x with taps over every sample, tap by tap, into
// len(x)+len(taps)-1 samples (none for an empty wave through no taps).
func refApply(taps, x []complex128) []complex128 {
	out := make([]complex128, max(len(x)+len(taps)-1, 0))
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

// checkMix fails t unless Mix and refMix render the same bits.
func checkMix(t *testing.T, name string, n, origin int, noise float64, es ...Emission) {
	t.Helper()
	want := refMix(rand.New(rand.NewSource(int64(n))), n, origin, noise, es...)
	got := Mix(rand.New(rand.NewSource(int64(n))), n, origin, noise, es...)
	if !sameBits(got, want) {
		t.Fatalf("%s (n %d, origin %d, %d emissions): Mix differs from the reference", name, n, origin, len(es))
	}
}

// randWave returns n complex normal samples.
func randWave(r *rand.Rand, n int) []complex128 {
	w := make([]complex128, n)
	for i := range w {
		w[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return w
}

// TestMixMatchesReference holds Mix to refMix, bit for bit:
//   - random mixes: integer, fractional and zero delays, nil and flat
//     paths, channels of 1 to 32 taps (fig13 draws 25, the NLOS ablation
//     32), channels with zero taps (and all taps zero), silent runs, waves
//     cut off at n, nonzero origins, unit-default gains, several emissions
//     per mix and frames long enough that the rotation renormalizes;
//   - silent runs shorter than, as long as and longer than the filters'
//     reach, where stretches of the delayed wave merge or part;
//   - dense waves several render chunks long;
//   - windows that end at every offset inside a four-output block;
//   - the fractional-delay filter alone, over random fractions, waves
//     from 1e-3 to 1e3 in amplitude with silent runs and isolated zeros,
//     and windows that cut the delayed wave at its start, after one
//     sample, halfway, at its end and past it.
func TestMixMatchesReference(t *testing.T) {
	short := testing.Short()
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(41))
		cases := 300
		if short {
			cases = 80
		}
		for c := 0; c < cases; c++ {
			origin := r.Intn(3) * r.Intn(500)
			var es []Emission
			end := origin
			for k := 1 + r.Intn(3); k > 0; k-- {
				wave := randWave(r, r.Intn(2500))
				silentRuns(r, wave, r.Intn(4))
				var path *Multipath
				switch r.Intn(5) {
				case 1:
					path = Flat()
				case 2, 3:
					path = NewRayleigh(r, 1+r.Intn(32), 1+7*r.Float64())
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
			checkMix(t, fmt.Sprintf("case %d", c), n, origin, []float64{0, 0.01}[r.Intn(2)], es...)
		}
	})
	t.Run("silent runs at the reach", func(t *testing.T) {
		r := rand.New(rand.NewSource(42))
		for _, taps := range []int{1, 2, 17, 25, 32} {
			for _, frac := range []float64{0, 0.37} {
				// Stretches merge when the gap between runs is at most
				// the multipath reach plus both sides of the delay filter.
				reach := taps - 1
				if frac > 0 {
					reach += 2 * fracDelaySide
				}
				var wave []complex128
				for _, gap := range []int{1, taps - 1, taps, reach - 1, reach, reach + 1, 2 * reach, 600} {
					wave = append(wave, randWave(r, 1+r.Intn(3*taps))...)
					wave = append(wave, make([]complex128, max(gap, 1))...)
				}
				wave = append(wave, randWave(r, 5)...)
				e := Emission{Wave: wave, Start: 100 + frac, Gain: 0.5, CFO: 1e-3, Phase: 1, Path: NewRayleigh(r, taps, 4)}
				checkMix(t, fmt.Sprintf("%d taps, delay %g", taps, e.Start), 200+len(wave)+taps, 0, 0, e)
			}
		}
	})
	t.Run("waves longer than one chunk", func(t *testing.T) {
		// Dense waves whose delayed stretch ends at several offsets into
		// its last chunk, through every kind of path, at integer and
		// fractional delays; then waves with silent runs.
		r := rand.New(rand.NewSource(43))
		for _, taps := range []int{0, 1, 25, 32} {
			for _, frac := range []float64{0, 0.4} {
				reach := max(taps-1, 0)
				if frac > 0 {
					reach += 2 * fracDelaySide
				}
				for _, last := range []int{1, 3, 12, 23, 24, 25, 200} {
					e := Emission{Wave: randWave(r, 3*renderChunk+last-reach), Start: 50 + frac, Gain: 0.7, CFO: 2e-4, Phase: 2}
					if taps > 0 {
						e.Path = NewRayleigh(r, taps, 6)
					}
					checkMix(t, fmt.Sprintf("%d taps, delay %g, last chunk %d", taps, e.Start, last), 100+len(e.Wave)+reach, 0, 0, e)
				}
			}
		}
		for c := 0; c < 12; c++ {
			wave := randWave(r, 3*renderChunk+r.Intn(2*renderChunk))
			silentRuns(r, wave, 3)
			e := Emission{Wave: wave, Start: 50 + 30*r.Float64(), Gain: 0.7, CFO: 2e-4, Phase: 2, Path: NewRayleigh(r, 1+r.Intn(32), 6)}
			checkMix(t, fmt.Sprintf("case %d", c), 100+len(wave)+40, 0, 0, e)
		}
	})
	t.Run("windows cut inside a block", func(t *testing.T) {
		r := rand.New(rand.NewSource(44))
		wave := randWave(r, 300)
		silentRuns(r, wave, 2)
		for _, start := range []float64{7, 7.5} {
			e := Emission{Wave: wave, Start: start, Gain: 1, CFO: 1e-3, Path: NewRayleigh(r, 25, 6)}
			end := int(start) + len(wave) + 24 + fracDelaySide
			for n := end - 9; n <= end+1; n++ {
				checkMix(t, fmt.Sprintf("delay %g", start), n, 0, 0, e)
			}
			for n := 0; n < 40; n++ {
				checkMix(t, fmt.Sprintf("delay %g", start), n, 0, 0, e)
			}
		}
	})
	t.Run("fractional delay", func(t *testing.T) {
		r := rand.New(rand.NewSource(9))
		for c := 0; c < 200; c++ {
			wave := randWave(r, 1+r.Intn(200))
			scale := complex(math.Pow(10, -3+6*r.Float64()), 0)
			for i := range wave {
				wave[i] *= scale
			}
			// Silent runs and isolated zeros, as in calibration frames.
			for k := r.Intn(3); k > 0; k-- {
				a := r.Intn(len(wave))
				clear(wave[a:min(len(wave), a+r.Intn(50))])
			}
			frac := r.Float64()
			if frac < 1e-9 {
				continue
			}
			e := Emission{Wave: wave, Start: 3 + frac, Gain: 1}
			full := len(wave) + fracDelaySide
			for _, m := range []int{0, 1, full / 2, full, full + 7} {
				checkMix(t, fmt.Sprintf("case %d, frac %g", c, frac), 3+m, 0, 0, e)
			}
		}
	})
}

// FuzzMix holds Mix to refMix, bit for bit, over any channel taps (none
// for a nil path), integer or fractional start, gain, CFO, phase, origin
// and window, and waves with any pattern of silent samples, all-silent
// ones included. Wave and tap bytes map to multiples of 1/16 (0x80 to
// -0), scaled by 2^scale; the wave's bytes repeat 1 to 8 times, so short
// inputs reach waves several render chunks long. A second, flat emission
// of the same wave tests the sum into a stream that already holds one.
func FuzzMix(f *testing.F) {
	f.Add([]byte{16, 0, 0, 16, 32, 32}, []byte{16, 0, 8, 8}, uint8(0), 10.5, 0.5, 1e-4, 0.3, uint16(0), uint16(40), int8(0))
	f.Add(make([]byte, 64), []byte{16, 0}, uint8(3), 3.25, 0.0, 0.0, 0.0, uint16(7), uint16(120), int8(0))
	f.Add([]byte{0x80, 0x80, 0, 0, 1, 0x80}, []byte{}, uint8(15), 2.0, 1.0, 0.01, 1.0, uint16(3), uint16(20), int8(-3))
	f.Fuzz(func(t *testing.T, waveBytes, tapBytes []byte, tile uint8, start, gain, cfo, phase float64, origin, n uint16, scale int8) {
		sample := func(re, im byte) complex128 {
			v := func(b byte) float64 {
				if b == 0x80 {
					return math.Copysign(0, -1)
				}
				return math.Ldexp(float64(int8(b))/16, int(scale)%40)
			}
			return complex(v(re), v(im))
		}
		finite := func(v, bound float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, bound)
		}
		pattern := make([]complex128, min(len(waveBytes)/2, 400))
		for i := range pattern {
			pattern[i] = sample(waveBytes[2*i], waveBytes[2*i+1])
		}
		var wave []complex128
		for k := 1 + int(tile)%8; k > 0; k-- {
			wave = append(wave, pattern...)
		}
		var path *Multipath
		if len(tapBytes) > 0 {
			path = &Multipath{Taps: make([]complex128, min(len(tapBytes)/2, 40))}
			for i := range path.Taps {
				path.Taps[i] = sample(tapBytes[2*i], tapBytes[2*i+1])
			}
		}
		o := int(origin)
		s := float64(o) + math.Abs(finite(start, 2000))
		es := []Emission{
			{Wave: wave, Start: s, Gain: math.Abs(finite(gain, 8)), CFO: finite(cfo, 1), Phase: finite(phase, 7), Path: path},
			{Wave: wave, Start: s + 0.25, CFO: -finite(cfo, 1)},
		}
		checkMix(t, "fuzz", int(n)%4096, o, 0, es...)
	})
}

// calibrationMix returns the receiver's window and emissions of a
// fig12-shaped calibration exchange on the WiGLAN profile: a lead and a
// co-sender frame, each a 1,600-sample prefix and then reps [lead, co]
// pairs of 144-sample slots with the other sender's slot silent, through
// channels of the given taps at fractional delays.
func calibrationMix(r *rand.Rand, reps, taps int) (int, []Emission) {
	const prefix, slot = 1600, 144
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
	return 600 + len(lead) + 8*128, []Emission{
		{Wave: lead, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, taps, 4)},
		{Wave: co, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, taps, 4)},
	}
}

// dataMix returns the receiver's window and emissions of a dense joint
// data frame: a lead and a co-sender wave of 6,000 nonzero samples each,
// through 25-tap channels (fig13's) at fractional delays.
func dataMix(r *rand.Rand) (int, []Emission) {
	lead, co := randWave(r, 6000), randWave(r, 6000)
	return 600 + len(lead) + 8*128, []Emission{
		{Wave: lead, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, 25, 6)},
		{Wave: co, Start: 600 + 3*r.Float64(), Gain: 0.3, CFO: 1e-5 * r.NormFloat64(), Phase: 6 * r.Float64(), Path: NewRayleigh(r, 25, 6)},
	}
}

// TestMixAllocatesOnlyItsOutput holds Mix to one allocation, the stream
// it returns, on a fig12-shaped calibration mix at fig12's 60
// repetitions (more silent runs than any small fixed array holds) and on
// a dense data frame through 25-tap channels.
func TestMixAllocatesOnlyItsOutput(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	calN, cal := calibrationMix(r, 60, 25)
	dataN, data := dataMix(r)
	rng := rand.New(rand.NewSource(48))
	for _, c := range []struct {
		name string
		n    int
		es   []Emission
	}{{"calibration", calN, cal}, {"data", dataN, data}} {
		if a := testing.AllocsPerRun(5, func() { Mix(rng, c.n, 0, 0.01, c.es...) }); a != 1 {
			t.Errorf("%s mix: %v allocations, want 1", c.name, a)
		}
	}
}

// BenchmarkChannelMix times the receiver's mix of a fig12-shaped
// calibration exchange (calibrationMix at 20 repetitions through 17-tap
// channels), plus noise.
func BenchmarkChannelMix(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	mixes := make([][]Emission, 8)
	var n int
	for i := range mixes {
		n, mixes[i] = calibrationMix(r, 20, 17)
	}
	benchmarkMix(b, n, mixes)
}

// BenchmarkChannelMixData times the receiver's mix of a dense joint data
// frame (dataMix), plus noise: the gather kernels' dense throughput.
func BenchmarkChannelMixData(b *testing.B) {
	r := rand.New(rand.NewSource(45))
	mixes := make([][]Emission, 8)
	var n int
	for i := range mixes {
		n, mixes[i] = dataMix(r)
	}
	benchmarkMix(b, n, mixes)
}

// benchmarkMix mixes each of mixes in turn into an n-sample window.
func benchmarkMix(b *testing.B, n int, mixes [][]Emission) {
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
