package modem

// The 802.11a block interleaver operates on one OFDM symbol's worth of coded
// bits (N_CBPS). It is defined by two permutations: the first spreads
// adjacent coded bits across nonadjacent subcarriers (16 columns); the
// second rotates bits within a subcarrier so adjacent bits alternate between
// more and less significant constellation bits.

// interleaveIndex returns the output position of input bit k for an OFDM
// symbol carrying ncbps coded bits with nbpsc bits per subcarrier.
func interleaveIndex(k, ncbps, nbpsc int) int {
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	i := (ncbps/16)*(k%16) + k/16
	j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
	return j
}

// Interleave permutes one symbol's coded bits per the 802.11a interleaver.
// len(bits) must equal ncbps.
func Interleave(bits []byte, nbpsc int) []byte {
	ncbps := len(bits)
	out := make([]byte, ncbps)
	for k, b := range bits {
		out[interleaveIndex(k, ncbps, nbpsc)] = b
	}
	return out
}

// Deinterleave inverts Interleave on one symbol's worth of soft values.
func Deinterleave(soft []float64, nbpsc int) []float64 {
	ncbps := len(soft)
	out := make([]float64, ncbps)
	for k := range soft {
		out[k] = soft[interleaveIndex(k, ncbps, nbpsc)]
	}
	return out
}
