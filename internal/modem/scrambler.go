package modem

// Scrambler implements the 802.11 frame-synchronous scrambler with generator
// polynomial S(x) = x^7 + x^4 + 1. The same object descrambles, since the
// operation is an involution for a given initial state.
type Scrambler struct {
	state byte // 7-bit LFSR state, never zero
}

// NewScrambler returns a scrambler seeded with the given nonzero 7-bit state.
func NewScrambler(seed byte) *Scrambler {
	seed &= 0x7f
	if seed == 0 {
		seed = 0x5d // 802.11 example initial state
	}
	return &Scrambler{state: seed}
}

// Next returns the next scrambler output bit and advances the LFSR.
func (s *Scrambler) Next() byte {
	out := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | out) & 0x7f
	return out
}

// XOR scrambles (or descrambles) bits in place and returns the same slice.
func (s *Scrambler) XOR(bits []byte) []byte {
	for i := range bits {
		bits[i] ^= s.Next()
	}
	return bits
}
