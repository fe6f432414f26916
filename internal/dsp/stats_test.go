package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("median = %g", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %g", got)
	}
	// Interpolated value.
	if got := Percentile([]float64{0, 10}, 75); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("p75 = %g, want 7.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-20, -3, 0, 3, 10, 30} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("dB round trip %g -> %g", db, got)
		}
	}
	if DB(0) > -299 {
		t.Fatal("DB(0) should be very negative")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %g", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("stddev = %g", s)
	}
}

func TestUnwrap(t *testing.T) {
	// A steadily increasing phase wrapped into (-pi, pi] must unwrap to a
	// straight line.
	n := 50
	slope := 0.9
	wrapped := make([]float64, n)
	for i := range wrapped {
		wrapped[i] = WrapPhase(slope * float64(i))
	}
	un := Unwrap(wrapped)
	for i := range un {
		if math.Abs(un[i]-slope*float64(i)) > 1e-9 {
			t.Fatalf("unwrap[%d] = %g, want %g", i, un[i], slope*float64(i))
		}
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.25
	}
	s, b := LinearFit(xs, ys)
	if math.Abs(s-2.5) > 1e-12 || math.Abs(b+1.25) > 1e-12 {
		t.Fatalf("fit = (%g, %g)", s, b)
	}
}

func TestRotateUndo(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	x := randVec(r, 300)
	y := append([]complex128(nil), x...)
	Rotate(y, 0.01, 5)
	Rotate(y, -0.01, 5)
	if d := maxDiff(x, y); d > 1e-9 {
		t.Fatalf("rotate undo mismatch %g", d)
	}
}

func TestEnergy(t *testing.T) {
	x := []complex128{complex(1, 1), complex(0, 2)}
	if e := Energy(x); math.Abs(e-6) > 1e-12 {
		t.Fatalf("energy = %g", e)
	}
}
