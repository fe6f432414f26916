package modem

import "fmt"

// The 802.11 convolutional code: constraint length 7, generator polynomials
// g0 = 133 (octal), g1 = 171 (octal), base rate 1/2. Higher rates are
// obtained by puncturing.
const (
	convK      = 7
	convStates = 1 << (convK - 1) // 64
	genA       = 0o133
	genB       = 0o171
)

// CodeRate identifies a convolutional code rate.
type CodeRate int

// Supported code rates.
const (
	Rate12 CodeRate = iota // 1/2
	Rate23                 // 2/3
	Rate34                 // 3/4
)

// String implements fmt.Stringer.
func (r CodeRate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	}
	return fmt.Sprintf("CodeRate(%d)", int(r))
}

// Fraction returns the code rate as numerator and denominator of
// data-bits/coded-bits.
func (r CodeRate) Fraction() (num, den int) {
	switch r {
	case Rate12:
		return 1, 2
	case Rate23:
		return 2, 3
	case Rate34:
		return 3, 4
	}
	panic("modem: unknown code rate")
}

// puncturePattern returns the keep-mask applied to the rate-1/2 mother code
// output (A0 B0 A1 B1 ...), per 802.11a Figure 116. len is the pattern
// period in mother-code bits.
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate12:
		return []bool{true, true}
	case Rate23:
		// Per 2 input bits -> 4 mother bits A0 B0 A1 B1, drop B1.
		return []bool{true, true, true, false}
	case Rate34:
		// Per 3 input bits -> 6 mother bits, drop B1 and A2.
		return []bool{true, true, true, false, false, true}
	}
	panic("modem: unknown code rate")
}

func parity(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// ConvEncode encodes data bits with the 802.11 rate-1/2 mother code and then
// punctures to the requested rate. The encoder is zero-terminated: callers
// must append 6 tail zero bits to flush the trellis (AppendTail does this).
func ConvEncode(bits []byte, rate CodeRate) []byte {
	mother := make([]byte, 0, len(bits)*2)
	var state uint32
	for _, b := range bits {
		in := state | uint32(b&1)<<(convK-1)
		mother = append(mother, parity(in&genA), parity(in&genB))
		state = in >> 1
	}
	pat := rate.puncturePattern()
	out := make([]byte, 0, len(mother))
	for i, m := range mother {
		if pat[i%len(pat)] {
			out = append(out, m)
		}
	}
	return out
}

// AppendTail returns bits with 6 zero tail bits appended so the Viterbi
// decoder terminates in the all-zero state.
func AppendTail(bits []byte) []byte {
	out := make([]byte, len(bits)+convK-1)
	copy(out, bits)
	return out
}
