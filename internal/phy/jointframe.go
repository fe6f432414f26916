package phy

import (
	"fmt"
	"math"

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
	// CombineNaive has every sender transmit identical symbols: the
	// one-sender code replicated to every sender, so signals can combine
	// destructively. Used as an ablation baseline (paper §6's motivating
	// failure case).
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

// code returns the frame's space-time code: the Smart Combiner's code for
// its number of senders, or under CombineNaive the one-sender code
// replicated to every sender.
func (p JointFrameParams) code() stbc.Code {
	if p.Combining == CombineNaive {
		return stbc.Replicated{Base: stbc.Single{}, NumSenders: p.Senders()}
	}
	c, err := stbc.ForSenders(p.Senders())
	if err != nil {
		panic(err)
	}
	return c
}

// dataParams returns the modem parameters for the data portion, padded to
// whole code blocks.
func (p JointFrameParams) dataParams() modem.FrameParams {
	return modem.FrameParams{
		Cfg:            p.Cfg,
		Rate:           p.Rate,
		CP:             p.DataCP,
		PayloadLen:     p.PayloadLen,
		ScramblerSeed:  p.Seed,
		SymbolMultiple: p.code().BlockLen(),
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

// checkHeaderFields reports a PayloadLen or DataCP that its sync-header
// field cannot carry, which Header would truncate, and a DataCP longer
// than the symbol it would copy, which no symbol can be built with.
func (p JointFrameParams) checkHeaderFields() error {
	if p.PayloadLen < 0 || p.PayloadLen > math.MaxUint16 {
		return fmt.Errorf("phy: payload length %d does not fit the sync header (0-%d)", p.PayloadLen, math.MaxUint16)
	}
	if p.DataCP < 0 || p.DataCP > math.MaxUint8 {
		return fmt.Errorf("phy: data cyclic prefix %d does not fit the sync header (0-%d)", p.DataCP, math.MaxUint8)
	}
	if p.DataCP > p.Cfg.NFFT {
		return fmt.Errorf("phy: data cyclic prefix %d is longer than the %d-sample symbol", p.DataCP, p.Cfg.NFFT)
	}
	return nil
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

// senderWaves renders every sender's complete transmission, indexed by
// role in the space-time code. Role 0 is the lead: preamble and sync header
// symbols, silence through SIFS and the co-sender CE slots, then its share
// of the data symbols; its sample 0 is the start of the preamble. Role i+1
// is co-sender i, whose sample 0 is the frame's global time reference, so a
// perfectly synchronized co-sender starts emitting it exactly at its
// (compensated) global reference time; leading zeros cover the CE slots of
// earlier co-senders.
func (p JointFrameParams) senderWaves(payload []byte) [][]complex128 {
	data := p.NumDataSymbols() * (p.DataCP + p.Cfg.NFFT)
	waves := make([][]complex128, p.Senders())
	waves[0] = p.leadPrefix(data)
	for i := 0; i < p.NumCo; i++ {
		waves[i+1] = p.coPrefix(i, data)
	}
	p.encodeDataSymbols(waves, payload)
	return waves
}

// encodeDataSymbols appends every sender role's data symbols to
// waves[role]: each block of the payload's constellation points is encoded
// per subcarrier by the frame's space-time code, and only the role that
// owns a symbol's pilots sends them.
func (p JointFrameParams) encodeDataSymbols(waves [][]complex128, payload []byte) {
	syms := p.dataParams().EncodePayloadSymbols(payload)
	code := p.code()
	bl := code.BlockLen()
	nd := p.Cfg.NumData()
	block := make([]complex128, bl)
	encoded := make([][]complex128, bl) // [t][subcarrier]
	for t := range encoded {
		encoded[t] = make([]complex128, nd)
	}
	for role := range waves {
		for b0 := 0; b0 < len(syms); b0 += bl {
			for j := 0; j < nd; j++ {
				for t := range block {
					block[t] = syms[b0+t][j]
				}
				for t, v := range code.Encode(role, block) {
					encoded[t][j] = v
				}
			}
			for t, pts := range encoded {
				s := b0 + t
				waves[role] = p.Cfg.AppendSymbol(waves[role], pts, s, p.DataCP, s%len(waves) == role)
			}
		}
	}
}

// leadPrefix renders the lead's transmission up to the data region:
// preamble + sync header symbols, then silence through SIFS and the
// co-sender CE slots, with room for tail more samples. Sample 0 is the
// start of the preamble.
func (p JointFrameParams) leadPrefix(tail int) []complex128 {
	hdr := modem.BuildFrame(headerFrameParams(p.Cfg), p.Header().Bytes())
	if len(hdr) > p.DataStart() {
		panic("phy: header longer than data start")
	}
	wave := make([]complex128, p.DataStart(), p.DataStart()+tail)
	copy(wave, hdr)
	return wave
}

// coPrefix renders co-sender i's transmission up to the data region, with
// room for tail more samples. Sample 0 is the frame's global time
// reference; leading zeros cover the CE slots of earlier co-senders, then
// come its own two CE symbols and silence through the later slots.
func (p JointFrameParams) coPrefix(i, tail int) []complex128 {
	if i < 0 || i >= p.NumCo {
		panic("phy: co-sender index out of range")
	}
	n := p.DataStart() - p.GlobalRef()
	wave := make([]complex128, n, n+tail)
	ce := ceSymbolWave(p.Cfg, p.DataCP)
	copy(wave[2*i*len(ce):], ce)
	copy(wave[(2*i+1)*len(ce):], ce)
	return wave
}
