package phy

import (
	"fmt"

	"repro/internal/modem"
	"repro/internal/sls"
	"repro/internal/stbc"
)

// Combining selects how concurrent senders code their data symbols.
type Combining int

// Combining modes.
const (
	// CombineSTBC uses the Smart Combiner's space-time block codes
	// (Alamouti / quasi-orthogonal), the SourceSync design.
	CombineSTBC Combining = iota
	// CombineNaive has every sender transmit identical symbols; signals can
	// combine destructively. Used as an ablation baseline (paper §6's
	// motivating failure case).
	CombineNaive
)

// JointFrameParams describes one joint transmission.
type JointFrameParams struct {
	Cfg        *modem.Config
	Rate       modem.Rate
	DataCP     int // cyclic prefix for data symbols (>= Cfg.CPLen typically)
	PayloadLen int
	Seed       byte
	NumCo      int // number of co-sender slots (total senders = NumCo + 1)
	Combining  Combining
	LeadID     uint16
	PacketID   uint16
}

// Senders returns the total number of concurrent senders.
func (p JointFrameParams) Senders() int { return p.NumCo + 1 }

// code returns the space-time code for this frame.
func (p JointFrameParams) code() stbc.Code {
	if p.Combining == CombineNaive {
		return nil
	}
	c, err := stbc.ForSenders(p.Senders())
	if err != nil {
		panic(err)
	}
	return c
}

// dataParams returns the modem parameters for the data portion.
func (p JointFrameParams) dataParams() modem.FrameParams {
	mult := 1
	if c := p.code(); c != nil {
		mult = c.BlockLen()
	}
	return modem.FrameParams{
		Cfg:            p.Cfg,
		Rate:           p.Rate,
		CP:             p.DataCP,
		PayloadLen:     p.PayloadLen,
		ScramblerSeed:  p.Seed,
		SymbolMultiple: mult,
	}
}

// Header returns the sync header advertising this frame.
func (p JointFrameParams) Header() SyncHeader {
	rateIdx := -1
	for i, r := range modem.StandardRates() {
		if r == p.Rate {
			rateIdx = i
		}
	}
	if rateIdx < 0 {
		panic(fmt.Sprintf("phy: rate %v is not a standard rate", p.Rate))
	}
	return SyncHeader{
		LeadID:     p.LeadID,
		Joint:      p.NumCo > 0,
		PacketID:   p.PacketID,
		RateIdx:    uint8(rateIdx),
		DataCP:     uint8(p.DataCP),
		NumCo:      uint8(p.NumCo),
		PayloadLen: uint16(p.PayloadLen),
		Seed:       p.Seed,
	}
}

// Frame layout offsets, all in samples from the start of the lead preamble.

// HeaderEnd returns the offset where the sync header (preamble + header
// symbols) ends.
func (p JointFrameParams) HeaderEnd() int {
	hp := headerFrameParams(p.Cfg)
	return hp.AirtimeSamples()
}

// GlobalRef returns the offset of the global time reference: SIFS after the
// header (paper §4.3).
func (p JointFrameParams) GlobalRef() int {
	return p.HeaderEnd() + int(sls.SIFSSamples(p.Cfg))
}

// ceSymbolLen returns the length of one channel-estimation symbol. CE
// symbols share the data symbols' cyclic prefix so a CP increase protects
// the channel estimates from the same residual misalignment it protects the
// data from.
func (p JointFrameParams) ceSymbolLen() int { return p.DataCP + p.Cfg.NFFT }

// CESlot returns the offset of co-sender i's first channel-estimation
// symbol (two symbols per slot).
func (p JointFrameParams) CESlot(i int) int {
	return p.GlobalRef() + i*2*p.ceSymbolLen()
}

// DataStart returns the offset of the first data symbol.
func (p JointFrameParams) DataStart() int {
	return p.GlobalRef() + p.NumCo*2*p.ceSymbolLen()
}

// NumDataSymbols returns the number of data OFDM symbols.
func (p JointFrameParams) NumDataSymbols() int { return p.dataParams().NumDataSymbols() }

// TotalLen returns the total frame length in samples.
func (p JointFrameParams) TotalLen() int {
	return p.DataStart() + p.NumDataSymbols()*(p.DataCP+p.Cfg.NFFT)
}

// AirtimeSeconds returns the total frame duration.
func (p JointFrameParams) AirtimeSeconds() float64 {
	return float64(p.TotalLen()) / p.Cfg.SampleRateHz
}

// OverheadFraction returns the fraction of the joint frame's airtime spent
// on synchronization: the SIFS switching gap plus two channel-estimation
// symbols per co-sender (paper §4.4's overhead accounting; the sync header
// replaces the preamble/PLCP any frame carries).
func (p JointFrameParams) OverheadFraction() float64 {
	extra := (p.GlobalRef() - p.HeaderEnd()) + p.NumCo*2*p.ceSymbolLen()
	return float64(extra) / float64(p.TotalLen())
}

// ceSymbolWave builds one channel-estimation OFDM symbol: the LTS pattern
// with the given cyclic prefix.
func ceSymbolWave(cfg *modem.Config, cp int) []complex128 {
	lts := cfg.LTSTime()
	out := make([]complex128, cp+cfg.NFFT)
	copy(out, lts[cfg.NFFT-cp:])
	copy(out[cp:], lts)
	return out
}

// encodeDataSymbols produces, for each sender role, the time-domain data
// portion (concatenated OFDM symbols). Role 0 is the lead.
func (p JointFrameParams) encodeDataSymbols(payload []byte) [][]complex128 {
	dp := p.dataParams()
	syms := dp.EncodePayloadSymbols(payload)
	senders := p.Senders()
	out := make([][]complex128, senders)

	if p.Combining == CombineNaive {
		for role := 0; role < senders; role++ {
			var wave []complex128
			for s, pts := range syms {
				owner := s%senders == role
				wave = append(wave, p.Cfg.AssembleSymbolPilots(pts, s, p.DataCP, owner)...)
			}
			out[role] = wave
		}
		return out
	}

	code := p.code()
	bl := code.BlockLen()
	nd := p.Cfg.NumData()
	for role := 0; role < senders; role++ {
		var wave []complex128
		txPts := make([]complex128, nd)
		for b0 := 0; b0 < len(syms); b0 += bl {
			// Encode each subcarrier's block for this role.
			encoded := make([][]complex128, bl) // [t][subcarrier]
			for t := range encoded {
				encoded[t] = make([]complex128, nd)
			}
			block := make([]complex128, bl)
			for j := 0; j < nd; j++ {
				for t := 0; t < bl; t++ {
					block[t] = syms[b0+t][j]
				}
				enc := code.Encode(role, block)
				for t := 0; t < bl; t++ {
					encoded[t][j] = enc[t]
				}
			}
			for t := 0; t < bl; t++ {
				s := b0 + t
				owner := s%senders == role
				copy(txPts, encoded[t])
				wave = append(wave, p.Cfg.AssembleSymbolPilots(txPts, s, p.DataCP, owner)...)
			}
		}
		out[role] = wave
	}
	return out
}

// leadPrefix renders the lead's transmission up to the data region:
// preamble + sync header symbols, then silence through SIFS and the
// co-sender CE slots. Sample 0 is the start of the preamble.
func (p JointFrameParams) leadPrefix() []complex128 {
	wave := modem.BuildFrame(headerFrameParams(p.Cfg), p.Header().Bytes())
	silence := p.DataStart() - len(wave)
	if silence < 0 {
		panic("phy: header longer than data start")
	}
	return append(wave, make([]complex128, silence)...)
}

// coPrefix renders co-sender i's transmission up to the data region.
// Sample 0 is the frame's global time reference; leading zeros cover the
// CE slots of earlier co-senders, then come its own two CE symbols and
// silence through the later slots.
func (p JointFrameParams) coPrefix(i int) []complex128 {
	if i < 0 || i >= p.NumCo {
		panic("phy: co-sender index out of range")
	}
	wave := make([]complex128, i*2*p.ceSymbolLen())
	ce := ceSymbolWave(p.Cfg, p.DataCP)
	wave = append(wave, ce...)
	wave = append(wave, ce...)
	return append(wave, make([]complex128, p.DataStart()-p.GlobalRef()-len(wave))...)
}

// BuildLeadWaveform renders the lead sender's complete transmission:
// preamble + sync header symbols, silence through SIFS and the co-sender CE
// slots, then its share of the data symbols. Sample 0 of the returned
// waveform is the start of the preamble.
func (p JointFrameParams) BuildLeadWaveform(payload []byte) []complex128 {
	return append(p.leadPrefix(), p.encodeDataSymbols(payload)[0]...)
}

// BuildCoWaveform renders co-sender i's transmission (role i+1 in the
// space-time code). Sample 0 of the returned waveform corresponds to the
// frame's global time reference, so a perfectly synchronized co-sender
// starts emitting it exactly at its (compensated) global reference time.
// Leading zeros cover the CE slots of earlier co-senders.
func (p JointFrameParams) BuildCoWaveform(i int, payload []byte) []complex128 {
	return append(p.coPrefix(i), p.encodeDataSymbols(payload)[i+1]...)
}
