// Package mac holds 802.11 DCF timing at the packet level: frame airtimes
// (from the modem's symbol accounting, joint frames included), SIFS/DIFS,
// the ACK exchange and timeout, the contention-window schedule, and the
// retry limit. internal/netsim applies these to every flow — it draws the
// backoffs and runs the retransmission loop — so every scheme (single
// path, ExOR, SourceSync) is charged through the same timing and
// comparisons are apples to apples.
package mac

import (
	"repro/internal/modem"
	"repro/internal/phy"
)

// Params carries the DCF timing configuration.
type Params struct {
	Cfg        *modem.Config
	SlotTime   float64 // seconds (9 us in 802.11g OFDM)
	SIFS       float64 // seconds (10 us)
	CWMin      int     // minimum contention window (15)
	CWMax      int     // maximum contention window (1023)
	AckBytes   int     // ACK frame body size
	AckRate    modem.Rate
	RetryLimit int // attempts per packet before giving up
}

// Default returns 802.11g-like DCF parameters for the given PHY config.
func Default(cfg *modem.Config) Params {
	return Params{
		Cfg:        cfg,
		SlotTime:   9e-6,
		SIFS:       10e-6,
		CWMin:      15,
		CWMax:      1023,
		AckBytes:   14,
		AckRate:    modem.Rate{Mod: modem.BPSK, Code: modem.Rate12},
		RetryLimit: 7,
	}
}

// DIFS returns the distributed interframe space: SIFS + 2 slots.
func (p Params) DIFS() float64 { return p.SIFS + 2*p.SlotTime }

// FrameDuration returns the airtime of a single-sender data frame.
func (p Params) FrameDuration(rate modem.Rate, payloadBytes int) float64 {
	fp := modem.FrameParams{
		Cfg: p.Cfg, Rate: rate, CP: p.Cfg.CPLen,
		PayloadLen: payloadBytes, ScramblerSeed: 1,
	}
	return float64(fp.AirtimeSamples()) / p.Cfg.SampleRateHz
}

// JointFrameDuration returns the airtime of a SourceSync joint frame,
// including the sync header, SIFS gap, CE slots and any CP increase.
func (p Params) JointFrameDuration(rate modem.Rate, payloadBytes, numCo, dataCP int) float64 {
	jp := phy.JointFrameParams{
		Cfg: p.Cfg, Rate: rate, DataCP: dataCP,
		PayloadLen: payloadBytes, Seed: 1, NumCo: numCo,
	}
	return jp.AirtimeSeconds()
}

// AckDuration returns the airtime of an ACK frame.
func (p Params) AckDuration() float64 {
	return p.FrameDuration(p.AckRate, p.AckBytes)
}

// AckTimeout returns how long a transmitter waits before concluding no ACK
// is coming: SIFS + one slot + the time to detect a preamble (the 802.11
// ACKTimeout). This is shorter than a full ACK exchange — a failed attempt
// must not be billed as if the ACK had arrived.
func (p Params) AckTimeout() float64 {
	return p.SIFS + p.SlotTime + float64(p.Cfg.PreambleLen())/p.Cfg.SampleRateHz
}

// CW returns the contention window for the given retry attempt (0-based):
// CWMin doubled per retry, saturating at CWMax.
func (p Params) CW(attempt int) int {
	cw := p.CWMin
	for i := 0; i < attempt; i++ {
		cw = cw*2 + 1
		if cw > p.CWMax {
			return p.CWMax
		}
	}
	return cw
}
