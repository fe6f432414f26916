package modem

// Frame construction: payload bytes -> CRC -> scramble -> convolutional code
// (zero-terminated, punctured) -> per-symbol interleaving -> constellation
// mapping -> OFDM symbols appended to the training preamble.

// FrameParams fixes everything a receiver must know to decode a frame. In a
// real system most of this travels in a SIGNAL/sync header; here the MAC
// layer conveys it out of band (the SourceSync sync header is modeled
// explicitly at the PHY layer above this package).
type FrameParams struct {
	Cfg           *Config
	Rate          Rate
	CP            int  // cyclic prefix for data symbols
	PayloadLen    int  // bytes, before CRC
	ScramblerSeed byte // nonzero 7-bit seed
	// SymbolMultiple, when > 1, pads the frame so the number of data
	// symbols is a multiple of it. Space-time block codes need whole
	// blocks of symbols (2 for Alamouti, 4 for quasi-orthogonal).
	SymbolMultiple int
}

// NumDataSymbols returns the number of OFDM data symbols in the frame.
func (p FrameParams) NumDataSymbols() int {
	nBits := (p.PayloadLen+4)*8 + convK - 1 // payload + CRC32 + tail
	dbps := p.Rate.DataBitsPerSymbol(p.Cfg)
	n := (nBits + dbps - 1) / dbps
	if p.SymbolMultiple > 1 {
		if rem := n % p.SymbolMultiple; rem != 0 {
			n += p.SymbolMultiple - rem
		}
	}
	return n
}

// AirtimeSamples returns the total frame duration in samples, preamble
// included.
func (p FrameParams) AirtimeSamples() int {
	return p.Cfg.PreambleLen() + p.NumDataSymbols()*(p.CP+p.Cfg.NFFT)
}

// EncodePayloadSymbols runs the bit-level TX pipeline and returns the
// sequence of constellation points, grouped per OFDM symbol. This is shared
// between the single-sender path and the SourceSync joint path (which
// space-time codes these points before OFDM assembly).
func (p FrameParams) EncodePayloadSymbols(payload []byte) [][]complex128 {
	if len(payload) != p.PayloadLen {
		panic("modem: payload length does not match FrameParams")
	}
	bits := BytesToBits(AppendCRC32(append([]byte(nil), payload...)))
	NewScrambler(p.ScramblerSeed).XOR(bits)
	bits = AppendTail(bits)
	// Pad to the full symbol count at the data-bit level (this includes any
	// SymbolMultiple padding).
	dbps := p.Rate.DataBitsPerSymbol(p.Cfg)
	want := p.NumDataSymbols() * dbps
	for len(bits) < want {
		bits = append(bits, 0)
	}
	coded := ConvEncode(bits, p.Rate.Code)

	ncbps := p.Rate.CodedBitsPerSymbol(p.Cfg)
	nbpsc := p.Rate.Mod.BitsPerSymbol()
	nsym := len(coded) / ncbps
	out := make([][]complex128, nsym)
	for s := 0; s < nsym; s++ {
		chunk := coded[s*ncbps : (s+1)*ncbps]
		inter := Interleave(chunk, nbpsc)
		out[s] = p.Rate.Mod.MapBits(inter)
	}
	return out
}

// BuildFrame produces the complete baseband waveform for a single-sender
// frame: preamble followed by OFDM data symbols.
func BuildFrame(p FrameParams, payload []byte) []complex128 {
	syms := p.EncodePayloadSymbols(payload)
	wave := append(make([]complex128, 0, p.AirtimeSamples()), p.Cfg.Preamble()...)
	for i, s := range syms {
		wave = p.Cfg.AppendSymbol(wave, s, i, p.CP, true)
	}
	return wave
}

// DecodeSymbolsToPayload runs the bit-level RX pipeline on equalized
// constellation points (grouped per symbol) with hard decisions and returns
// the payload and CRC status. It is the inverse of EncodePayloadSymbols.
func (p FrameParams) DecodeSymbolsToPayload(syms [][]complex128) (payload []byte, ok bool) {
	return p.DecodeSymbolsToPayloadSoft(syms, 0)
}

// DecodeSymbolsToPayloadSoft is DecodeSymbolsToPayload with soft-decision
// demapping: noiseVar is the per-point error variance (a receiver's EVM
// estimate); zero selects hard decisions.
func (p FrameParams) DecodeSymbolsToPayloadSoft(syms [][]complex128, noiseVar float64) (payload []byte, ok bool) {
	nbpsc := p.Rate.Mod.BitsPerSymbol()
	var soft []float64
	sf := make([]float64, 0, p.Rate.CodedBitsPerSymbol(p.Cfg))
	for _, s := range syms {
		sf = sf[:0]
		for _, pt := range s {
			sf = p.Rate.Mod.DemapSoft(pt, noiseVar, sf)
		}
		soft = append(soft, Deinterleave(sf, nbpsc)...)
	}
	// Number of data bits that were encoded (payload+CRC+tail+pad).
	padded := p.NumDataSymbols() * p.Rate.DataBitsPerSymbol(p.Cfg)
	dec := ViterbiDecode(soft, padded, p.Rate.Code)
	dec = dec[:(p.PayloadLen+4)*8] // strip tail+pad before descrambling
	NewScrambler(p.ScramblerSeed).XOR(dec)
	return CheckCRC32(BitsToBytes(dec))
}
