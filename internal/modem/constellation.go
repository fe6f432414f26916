package modem

import (
	"fmt"
	"math"
)

// Modulation identifies a constellation used on data subcarriers.
type Modulation int

// Supported constellations, in increasing spectral efficiency.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String implements fmt.Stringer.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// BitsPerSymbol returns the number of coded bits carried per subcarrier
// (N_BPSC in 802.11 terms).
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("modem: unknown modulation")
}

// normFactor returns the scale that makes average constellation energy 1.
func (m Modulation) normFactor() float64 {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt(2)
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	}
	panic("modem: unknown modulation")
}

// grayAxis maps groups of bits to one amplitude axis per 802.11a Table 81-84
// (Gray coding). bits are most-significant first.
func grayAxis(bits []byte) float64 {
	switch len(bits) {
	case 0:
		return 1
	case 1: // BPSK axis / one QPSK axis: 0 -> -1, 1 -> +1
		return float64(bits[0])*2 - 1
	case 2: // 16-QAM axis: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
		switch bits[0]<<1 | bits[1] {
		case 0b00:
			return -3
		case 0b01:
			return -1
		case 0b11:
			return 1
		default:
			return 3
		}
	case 3: // 64-QAM axis
		switch bits[0]<<2 | bits[1]<<1 | bits[2] {
		case 0b000:
			return -7
		case 0b001:
			return -5
		case 0b011:
			return -3
		case 0b010:
			return -1
		case 0b110:
			return 1
		case 0b111:
			return 3
		case 0b101:
			return 5
		default: // 0b100
			return 7
		}
	}
	panic("modem: bad axis width")
}

// axisBits inverts grayAxis: it returns the bit group whose axis value is
// nearest to v.
func axisBits(v float64, width int) []byte {
	best := -1
	bestD := math.Inf(1)
	n := 1 << width
	buf := make([]byte, width)
	for code := 0; code < n; code++ {
		for b := 0; b < width; b++ {
			buf[b] = byte(code >> (width - 1 - b) & 1)
		}
		d := math.Abs(grayAxis(buf) - v)
		if d < bestD {
			bestD = d
			best = code
		}
	}
	out := make([]byte, width)
	for b := 0; b < width; b++ {
		out[b] = byte(best >> (width - 1 - b) & 1)
	}
	return out
}

// Map converts a group of m.BitsPerSymbol() bits (values 0/1) into one
// unit-average-energy constellation point. Bits are consumed I-axis first,
// then Q-axis, most significant first, matching 802.11a.
func (m Modulation) Map(bits []byte) complex128 {
	n := m.BitsPerSymbol()
	if len(bits) != n {
		panic(fmt.Sprintf("modem: Map got %d bits, want %d", len(bits), n))
	}
	norm := m.normFactor()
	if m == BPSK {
		return complex(grayAxis(bits[:1])*norm, 0)
	}
	half := n / 2
	i := grayAxis(bits[:half])
	q := grayAxis(bits[half:])
	return complex(i*norm, q*norm)
}

// Demap performs a hard decision on sym, appending the decided bits to dst
// and returning the extended slice.
func (m Modulation) Demap(sym complex128, dst []byte) []byte {
	norm := m.normFactor()
	iv := real(sym) / norm
	qv := imag(sym) / norm
	switch m {
	case BPSK:
		if iv >= 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	case QPSK:
		dst = append(dst, axisBits(iv, 1)...)
		return append(dst, axisBits(qv, 1)...)
	case QAM16:
		dst = append(dst, axisBits(iv, 2)...)
		return append(dst, axisBits(qv, 2)...)
	case QAM64:
		dst = append(dst, axisBits(iv, 3)...)
		return append(dst, axisBits(qv, 3)...)
	}
	panic("modem: unknown modulation")
}

// MapBits maps a bitstream (len must be a multiple of BitsPerSymbol) to a
// sequence of constellation points.
func (m Modulation) MapBits(bits []byte) []complex128 {
	n := m.BitsPerSymbol()
	if len(bits)%n != 0 {
		panic("modem: MapBits length not a multiple of bits-per-symbol")
	}
	out := make([]complex128, len(bits)/n)
	for i := range out {
		out[i] = m.Map(bits[i*n : (i+1)*n])
	}
	return out
}
