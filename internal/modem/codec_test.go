package modem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func TestScramblerInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bits := randBits(r, 500)
	orig := append([]byte(nil), bits...)
	NewScrambler(0x5d).XOR(bits)
	if CountBitErrors(orig, bits) == 0 {
		t.Fatal("scrambler did not change the bits")
	}
	NewScrambler(0x5d).XOR(bits)
	if CountBitErrors(orig, bits) != 0 {
		t.Fatal("descrambling failed")
	}
}

func TestScramblerPeriod127(t *testing.T) {
	s := NewScrambler(0x7f)
	var seq []byte
	for i := 0; i < 254; i++ {
		seq = append(seq, s.Next())
	}
	for i := 0; i < 127; i++ {
		if seq[i] != seq[i+127] {
			t.Fatalf("scrambler sequence not periodic with 127 at %d", i)
		}
	}
	// And it is not periodic with any smaller power-of-interest period.
	same := true
	for i := 0; i < 63; i++ {
		if seq[i] != seq[i+64] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scrambler period divides 64; LFSR is broken")
	}
}

func TestScramblerZeroSeedNormalized(t *testing.T) {
	s := NewScrambler(0)
	if s.state == 0 {
		t.Fatal("zero seed must be replaced")
	}
}

func TestConvEncodeKnownLength(t *testing.T) {
	bits := make([]byte, 24)
	if got := len(ConvEncode(bits, Rate12)); got != 48 {
		t.Fatalf("rate 1/2 coded len = %d, want 48", got)
	}
	if got := len(ConvEncode(bits, Rate34)); got != 32 {
		t.Fatalf("rate 3/4 coded len = %d, want 32", got)
	}
	if got := len(ConvEncode(bits, Rate23)); got != 36 {
		t.Fatalf("rate 2/3 coded len = %d, want 36", got)
	}
}

func TestViterbiRoundTripClean(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, rate := range []CodeRate{Rate12, Rate23, Rate34} {
		data := AppendTail(randBits(r, 120))
		coded := ConvEncode(data, rate)
		dec := ViterbiDecode(HardToSoft(coded), len(data), rate)
		if CountBitErrors(data, dec) != 0 {
			t.Fatalf("rate %v: clean round trip failed", rate)
		}
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := AppendTail(randBits(r, 200))
	coded := ConvEncode(data, Rate12)
	// Flip 4% of coded bits, spread out.
	soft := HardToSoft(coded)
	flips := 0
	for i := 0; i < len(soft); i += 25 {
		soft[i] = 1 - soft[i]
		flips++
	}
	if flips < 10 {
		t.Fatal("test setup: too few flips")
	}
	dec := ViterbiDecode(soft, len(data), Rate12)
	if n := CountBitErrors(data, dec); n != 0 {
		t.Fatalf("viterbi failed to correct spread errors: %d residual", n)
	}
}

func TestViterbiRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(200)
		rate := []CodeRate{Rate12, Rate23, Rate34}[r.Intn(3)]
		data := AppendTail(randBits(r, n))
		coded := ConvEncode(data, rate)
		dec := ViterbiDecode(HardToSoft(coded), len(data), rate)
		return CountBitErrors(data, dec) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDepunctureInverse(t *testing.T) {
	// Depuncturing a punctured stream must place kept bits back at their
	// mother positions with erasures elsewhere.
	r := rand.New(rand.NewSource(4))
	data := randBits(r, 30)
	motherLen := len(data) * 2
	for _, rate := range []CodeRate{Rate23, Rate34} {
		coded := ConvEncode(data, rate)
		soft := HardToSoft(coded)
		mother := Depuncture(soft, len(data), rate)
		if len(mother) != motherLen {
			t.Fatalf("rate %v: mother len %d, want %d", rate, len(mother), motherLen)
		}
		full := ConvEncode(data, Rate12)
		pat := rate.puncturePattern()
		for i := range mother {
			if pat[i%len(pat)] {
				if mother[i] != float64(full[i]) {
					t.Fatalf("rate %v: kept bit %d mismatched", rate, i)
				}
			} else if mother[i] != 0.5 {
				t.Fatalf("rate %v: punctured bit %d not erased", rate, i)
			}
		}
	}
}

func TestInterleaverBijective(t *testing.T) {
	for _, tc := range []struct{ ncbps, nbpsc int }{
		{48, 1}, {96, 2}, {192, 4}, {288, 6}, {16, 1}, {96, 6},
	} {
		seen := make([]bool, tc.ncbps)
		for k := 0; k < tc.ncbps; k++ {
			j := interleaveIndex(k, tc.ncbps, tc.nbpsc)
			if j < 0 || j >= tc.ncbps {
				t.Fatalf("ncbps=%d: index %d out of range", tc.ncbps, j)
			}
			if seen[j] {
				t.Fatalf("ncbps=%d nbpsc=%d: collision at %d", tc.ncbps, tc.nbpsc, j)
			}
			seen[j] = true
		}
	}
}

func TestInterleaveDeinterleaveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ ncbps, nbpsc int }{{48, 1}, {192, 4}, {288, 6}} {
		bits := randBits(r, tc.ncbps)
		back := Deinterleave(HardToSoft(Interleave(bits, tc.nbpsc)), tc.nbpsc)
		for i := range bits {
			if back[i] != float64(bits[i]) {
				t.Fatalf("ncbps=%d: round trip failed at %d", tc.ncbps, i)
			}
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on different subcarriers: for NCBPS=48,
	// BPSK, positions k and k+1 must map at least 2 bins apart.
	for k := 0; k < 47; k++ {
		a := interleaveIndex(k, 48, 1)
		b := interleaveIndex(k+1, 48, 1)
		d := a - b
		if d < 0 {
			d = -d
		}
		if d < 2 {
			t.Fatalf("adjacent bits %d,%d map %d apart", k, k+1, d)
		}
	}
}

func TestConstellationRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		n := m.BitsPerSymbol()
		for trial := 0; trial < 200; trial++ {
			bits := randBits(r, n)
			sym := m.Map(bits)
			got := m.Demap(sym, nil)
			if CountBitErrors(bits, got) != 0 {
				t.Fatalf("%v: bits %v -> %v -> %v", m, bits, sym, got)
			}
		}
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		n := m.BitsPerSymbol()
		total := 0.0
		count := 1 << n
		for code := 0; code < count; code++ {
			bits := make([]byte, n)
			for b := 0; b < n; b++ {
				bits[b] = byte(code >> uint(n-1-b) & 1)
			}
			s := m.Map(bits)
			total += real(s)*real(s) + imag(s)*imag(s)
		}
		avg := total / float64(count)
		if avg < 0.999 || avg > 1.001 {
			t.Fatalf("%v: average energy %g, want 1", m, avg)
		}
	}
}

func TestConstellationGrayNeighbors(t *testing.T) {
	// On each axis, adjacent amplitude levels must differ in exactly one
	// bit (Gray property) so noise-induced nearest-neighbor errors cost one
	// coded bit.
	for _, width := range []int{2, 3} {
		type lv struct {
			v    float64
			code int
		}
		var lvs []lv
		n := 1 << width
		for code := 0; code < n; code++ {
			bits := make([]byte, width)
			for b := 0; b < width; b++ {
				bits[b] = byte(code >> uint(width-1-b) & 1)
			}
			lvs = append(lvs, lv{grayAxis(bits), code})
		}
		for i := 0; i < len(lvs); i++ {
			for j := 0; j < len(lvs); j++ {
				if lvs[i].v+2 == lvs[j].v { // adjacent levels differ by 2
					diff := lvs[i].code ^ lvs[j].code
					if diff&(diff-1) != 0 {
						t.Fatalf("width %d: levels %g,%g differ in >1 bit", width, lvs[i].v, lvs[j].v)
					}
				}
			}
		}
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([]byte, 64)
	r.Read(data)
	bits := BytesToBits(data)
	if len(bits) != 512 {
		t.Fatalf("bit count %d", len(bits))
	}
	back := BitsToBytes(bits)
	for i := range data {
		if data[i] != back[i] {
			t.Fatalf("byte %d mismatched", i)
		}
	}
}

func TestCRC32Detects(t *testing.T) {
	data := []byte("sourcesync")
	framed := AppendCRC32(append([]byte(nil), data...))
	got, ok := CheckCRC32(framed)
	if !ok || string(got) != string(data) {
		t.Fatal("clean CRC failed")
	}
	framed[3] ^= 0x40
	if _, ok := CheckCRC32(framed); ok {
		t.Fatal("corrupted frame passed CRC")
	}
	if _, ok := CheckCRC32([]byte{1, 2}); ok {
		t.Fatal("short frame passed CRC")
	}
}

func TestRateTable(t *testing.T) {
	cfg := Profile80211()
	want := map[int]Rate{
		6:  {BPSK, Rate12},
		9:  {BPSK, Rate34},
		12: {QPSK, Rate12},
		18: {QPSK, Rate34},
		24: {QAM16, Rate12},
		36: {QAM16, Rate34},
		48: {QAM64, Rate23},
		54: {QAM64, Rate34},
	}
	for _, mbps := range slices.Sorted(maps.Keys(want)) {
		wr := want[mbps]
		r, err := RateByMbps(mbps)
		if err != nil {
			t.Fatalf("%d Mbps: %v", mbps, err)
		}
		if r != wr {
			t.Fatalf("%d Mbps: got %v, want %v", mbps, r, wr)
		}
		if got := r.BitRate(cfg) / 1e6; int(got+0.5) != mbps {
			t.Fatalf("%v: bitrate %g, want %d", r, got, mbps)
		}
	}
	if _, err := RateByMbps(11); err == nil {
		t.Fatal("11 Mbps should not exist in OFDM table")
	}
	// N_DBPS sanity: 6 Mbps -> 24 bits/symbol, 54 -> 216.
	r6, _ := RateByMbps(6)
	if r6.DataBitsPerSymbol(cfg) != 24 {
		t.Fatalf("6 Mbps NDBPS = %d", r6.DataBitsPerSymbol(cfg))
	}
	r54, _ := RateByMbps(54)
	if r54.DataBitsPerSymbol(cfg) != 216 {
		t.Fatalf("54 Mbps NDBPS = %d", r54.DataBitsPerSymbol(cfg))
	}
}
