package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDelayAdditivityProperty(t *testing.T) {
	// Delaying by a then b lands the signal where a single delay of a+b
	// would, verified via the analytic phase of a band-limited tone.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.Float64() * 2
		b := r.Float64() * 2
		n := 256
		bin := 3.0
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(i)/float64(n)))
		}
		two := DelaySamples(DelaySamples(x, a, 16), b, 16)
		one := DelaySamples(x, a+b, 16)
		// Compare steady-state phases.
		var diff float64
		cnt := 0
		for i := 100; i < 180; i++ {
			diff += WrapPhase(cmplx.Phase(two[i] * cmplx.Conj(one[i])))
			cnt++
		}
		return math.Abs(diff/float64(cnt)) < 5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUnwrapInvariantProperty(t *testing.T) {
	// Unwrap preserves each phase modulo 2*pi and bounds successive
	// differences by pi.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		ph := make([]float64, n)
		for i := range ph {
			ph[i] = (r.Float64()*2 - 1) * math.Pi
		}
		un := Unwrap(ph)
		for i := range un {
			if math.Abs(WrapPhase(un[i]-ph[i])) > 1e-9 {
				return false
			}
			if i > 0 && math.Abs(un[i]-un[i-1]) > math.Pi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestScale(t *testing.T) {
	a := []complex128{complex(1, 1), 5}
	Scale(a, 2)
	if a[0] != complex(2, 2) || a[1] != 10 {
		t.Fatalf("Scale %v", a)
	}
}
