package stbc

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(r *rand.Rand) complex128 {
	return complex(r.NormFloat64(), r.NormFloat64())
}

func randChan(r *rand.Rand) complex128 {
	return complex(r.NormFloat64(), r.NormFloat64())
}

// transmit renders the received block for a code: y[t] = sum_j h[j] *
// Encode(j, data)[t] + noise.
func transmit(c Code, data, h []complex128, noise []complex128) []complex128 {
	y := make([]complex128, c.BlockLen())
	for j := 0; j < c.Senders(); j++ {
		if h[j] == 0 {
			continue
		}
		tx := c.Encode(j, data)
		for t := range y {
			y[t] += h[j] * tx[t]
		}
	}
	for t := range y {
		if noise != nil {
			y[t] += noise[t]
		}
	}
	return y
}

func TestAlamoutiRoundTripNoiseless(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	code := Alamouti{}
	for trial := 0; trial < 200; trial++ {
		data := []complex128{randSym(r), randSym(r)}
		h := []complex128{randChan(r), randChan(r)}
		y := transmit(code, data, h, nil)
		got := code.Decode(y, h)
		for i := range data {
			if cmplx.Abs(got[i]-data[i]) > 1e-9 {
				t.Fatalf("trial %d: sym %d: got %v want %v", trial, i, got[i], data[i])
			}
		}
	}
}

func TestAlamoutiDestructiveChannelsStillDecode(t *testing.T) {
	// The motivating case from paper §6: channels that exactly cancel
	// (h2 = -h1) zero out naive identical transmission, but Alamouti
	// decoding still recovers the data perfectly.
	code := Alamouti{}
	h := []complex128{complex(0.7, 0.3), complex(-0.7, -0.3)}
	data := []complex128{complex(1, 0), complex(0, -1)}

	// Naive identical transmission: received power is exactly zero.
	naive := h[0]*data[0] + h[1]*data[0]
	if cmplx.Abs(naive) > 1e-12 {
		t.Fatalf("test setup: channels do not cancel")
	}

	y := transmit(code, data, h, nil)
	got := code.Decode(y, h)
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-9 {
			t.Fatalf("sym %d: got %v want %v", i, got[i], data[i])
		}
	}
	if g := code.Gain(h); math.Abs(g-2*sq(h[0])) > 1e-12 {
		t.Fatalf("gain %g", g)
	}
}

func TestAlamoutiSingleSenderSubset(t *testing.T) {
	// If the co-sender never joins (h1 = 0) the receiver still decodes.
	code := Alamouti{}
	r := rand.New(rand.NewSource(2))
	data := []complex128{randSym(r), randSym(r)}
	h := []complex128{randChan(r), 0}
	y := transmit(code, data, h, nil)
	got := code.Decode(y, h)
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-9 {
			t.Fatalf("sym %d: got %v want %v", i, got[i], data[i])
		}
	}
}

func TestAlamoutiNoiseAveraging(t *testing.T) {
	// With equal-power channels the combiner should deliver ~2x the
	// single-sender SNR (3 dB power gain): verify the error variance of the
	// decoded symbols is half that of a single sender with the same total
	// noise.
	r := rand.New(rand.NewSource(3))
	code := Alamouti{}
	const trials = 20000
	sigma := 0.1
	var errAlam, errSingle float64
	for i := 0; i < trials; i++ {
		data := []complex128{randSym(r), randSym(r)}
		h := []complex128{1, complex(0, 1)} // equal power, arbitrary phase
		noise := []complex128{
			complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma),
			complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma),
		}
		y := transmit(code, data, h, noise)
		got := code.Decode(y, h)
		errAlam += sq(got[0]-data[0]) / trials

		ys := data[0] + noise[0] // single sender, h=1
		errSingle += sq(ys-data[0]) / trials
	}
	ratio := errSingle / errAlam
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("SNR gain ratio %.2f, want ~2 (3 dB)", ratio)
	}
}

func TestQuasiOrthogonalRoundTripAllSenders(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	code := QuasiOrthogonal{}
	for trial := 0; trial < 200; trial++ {
		data := []complex128{randSym(r), randSym(r), randSym(r), randSym(r)}
		h := []complex128{randChan(r), randChan(r), randChan(r), randChan(r)}
		y := transmit(code, data, h, nil)
		got := code.Decode(y, h)
		for i := range data {
			if cmplx.Abs(got[i]-data[i]) > 1e-6 {
				t.Fatalf("trial %d sym %d: got %v want %v", trial, i, got[i], data[i])
			}
		}
	}
}

func TestQuasiOrthogonalSubsets(t *testing.T) {
	// Any nonempty subset of senders must still be decodable (paper §6:
	// receivers cope with co-forwarders that missed the packet).
	r := rand.New(rand.NewSource(5))
	code := QuasiOrthogonal{}
	for mask := 1; mask < 16; mask++ {
		data := []complex128{randSym(r), randSym(r), randSym(r), randSym(r)}
		h := make([]complex128, 4)
		for j := 0; j < 4; j++ {
			if mask>>j&1 == 1 {
				h[j] = randChan(r)
			}
		}
		y := transmit(code, data, h, nil)
		got := code.Decode(y, h)
		for i := range data {
			if cmplx.Abs(got[i]-data[i]) > 1e-5 {
				t.Fatalf("mask %04b sym %d: got %v want %v", mask, i, got[i], data[i])
			}
		}
	}
}

func TestForSenders(t *testing.T) {
	for k := 1; k <= 8; k++ {
		c, err := ForSenders(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if c.Senders() < k {
			t.Fatalf("k=%d: code supports %d senders", k, c.Senders())
		}
		if c.DataLen() != c.BlockLen() {
			t.Fatalf("k=%d: rate != 1", k)
		}
	}
	if _, err := ForSenders(9); err == nil {
		t.Fatal("k=9 should fail")
	}
	if _, err := ForSenders(0); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestReplicatedRoundTrip(t *testing.T) {
	// Six senders share the four quasi-orthogonal codewords; decoding uses
	// the folded per-codeword channels.
	r := rand.New(rand.NewSource(9))
	code, err := ForSenders(6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		data := make([]complex128, code.DataLen())
		for i := range data {
			data[i] = randSym(r)
		}
		h := make([]complex128, 6)
		for j := range h {
			h[j] = randChan(r)
		}
		y := transmit(code, data, h, nil)
		got := code.Decode(y, h)
		for i := range data {
			if cmplx.Abs(got[i]-data[i]) > 1e-5 {
				t.Fatalf("trial %d sym %d: got %v want %v", trial, i, got[i], data[i])
			}
		}
	}
}

func TestEncodePowerPreservedProperty(t *testing.T) {
	// Every role transmits the same total power as the raw data block:
	// STBC must not change the power budget.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, code := range []Code{Alamouti{}, QuasiOrthogonal{}} {
			data := make([]complex128, code.DataLen())
			var pIn float64
			for i := range data {
				data[i] = randSym(r)
				pIn += sq(data[i])
			}
			for role := 0; role < code.Senders(); role++ {
				tx := code.Encode(role, data)
				var pOut float64
				for _, v := range tx {
					pOut += sq(v)
				}
				if math.Abs(pOut-pIn) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleCode(t *testing.T) {
	c := Single{}
	data := []complex128{complex(2, -1)}
	h := []complex128{complex(0, 0.5)}
	y := transmit(c, data, h, nil)
	got := c.Decode(y, h)
	if cmplx.Abs(got[0]-data[0]) > 1e-12 {
		t.Fatalf("got %v", got[0])
	}
	if c.Gain(h) != 0.25 {
		t.Fatalf("gain %g", c.Gain(h))
	}
	if got := c.Decode([]complex128{1}, []complex128{0}); got[0] != 0 {
		t.Fatal("zero channel should yield zero")
	}
}

func TestReplicatedSingleIsIdenticalTransmission(t *testing.T) {
	// The one-sender code replicated to every sender is naive identical
	// transmission: every role sends the data unchanged, and the decoder
	// divides by the senders' channels summed in sender order.
	r := rand.New(rand.NewSource(10))
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, n := range []int{1, 2, 3, 5, 9} {
		code := Replicated{Base: Single{}, NumSenders: n}
		if code.Senders() != n || code.BlockLen() != 1 || code.DataLen() != 1 {
			t.Fatalf("n=%d: senders %d, block %d, data %d", n, code.Senders(), code.BlockLen(), code.DataLen())
		}
		for trial := 0; trial < 50; trial++ {
			data := []complex128{randSym(r)}
			for role := 0; role < n; role++ {
				if enc := code.Encode(role, data); len(enc) != 1 || !same(enc[0], data[0]) {
					t.Fatalf("n=%d role %d: encoded %v, want %v", n, role, enc, data)
				}
			}
			h := make([]complex128, n)
			var sum complex128
			for j := range h {
				h[j] = randChan(r)
				sum += h[j]
			}
			y := []complex128{randSym(r)}
			if got := code.Decode(y, h); len(got) != 1 || !same(got[0], y[0]/sum) {
				t.Fatalf("n=%d: decoded %v, want %v", n, got, y[0]/sum)
			}
		}
	}
	// Channels that cancel leave nothing to divide by.
	code := Replicated{Base: Single{}, NumSenders: 2}
	if got := code.Decode([]complex128{1}, []complex128{complex(1, 2), complex(-1, -2)}); got[0] != 0 {
		t.Fatalf("cancelling channels decoded %v, want 0", got)
	}
}
