package jce

import (
	"math/cmplx"

	"repro/internal/modem"
)

// Estimator maintains per-sender channel estimates and phase trajectories
// for one joint frame and synthesizes the rotated per-sender channels the
// space-time decoder consumes.
type Estimator struct {
	Cfg     *modem.Config
	Senders int // total concurrent senders (lead + co-senders)

	h        [][]complex128 // per sender, per FFT bin; nil until estimated
	active   []bool
	trackers []*PhaseTracker
}

// NewEstimator creates an estimator for the given number of senders
// (lead + co-senders).
func NewEstimator(cfg *modem.Config, senders int) *Estimator {
	e := &Estimator{
		Cfg:      cfg,
		Senders:  senders,
		h:        make([][]complex128, senders),
		active:   make([]bool, senders),
		trackers: make([]*PhaseTracker, senders),
	}
	for i := range e.trackers {
		e.trackers[i] = NewPhaseTracker()
	}
	return e
}

// SetChannel installs a per-bin channel estimate for a sender (index 0 is
// the lead) and marks it active.
func (e *Estimator) SetChannel(sender int, h []complex128) {
	e.h[sender] = h
	e.active[sender] = true
}

// EstimateFromCE estimates a sender's channel from its two channel
// estimation symbols (NFFT samples each, CP stripped) and installs it.
func (e *Estimator) EstimateFromCE(sender int, ce1, ce2 []complex128) {
	e.SetChannel(sender, e.Cfg.EstimateChannelLTS(ce1, ce2))
}

// MarkAbsent records that a sender did not join the transmission; its
// channel is treated as zero everywhere.
func (e *Estimator) MarkAbsent(sender int) {
	e.h[sender] = nil
	e.active[sender] = false
}

// Active reports whether a sender joined the transmission.
func (e *Estimator) Active(sender int) bool { return e.active[sender] }

// PilotOwner returns which sender owns the pilot subcarriers during data
// symbol symIdx (paper §5: pilots shared round-robin across symbols).
func (e *Estimator) PilotOwner(symIdx int) int { return symIdx % e.Senders }

// UpdatePilots absorbs the pilot observations of one received data symbol:
// it measures the owner's current phase relative to its static channel
// estimate and updates the owner's tracker. Symbols owned by absent senders
// are skipped.
func (e *Estimator) UpdatePilots(symIdx int, bins []complex128) {
	owner := e.PilotOwner(symIdx)
	if !e.active[owner] || e.h[owner] == nil {
		return
	}
	phase, ok := e.Cfg.PilotPhase(bins, e.h[owner], symIdx)
	if !ok {
		return
	}
	e.trackers[owner].Update(symIdx, phase)
}

// ChannelAt returns sender's channel on FFT bin b as of data symbol symIdx,
// i.e. the static estimate rotated by the tracked residual phase. Absent
// senders return 0.
func (e *Estimator) ChannelAt(sender, symIdx int, b int) complex128 {
	if !e.active[sender] || e.h[sender] == nil {
		return 0
	}
	theta := e.trackers[sender].At(symIdx)
	return e.h[sender][b] * cmplx.Exp(complex(0, theta))
}

// SenderChannels gathers every sender's rotated channel on bin b at symbol
// symIdx into dst (len Senders), for the STBC decoder.
func (e *Estimator) SenderChannels(dst []complex128, symIdx, b int) []complex128 {
	if cap(dst) < e.Senders {
		dst = make([]complex128, e.Senders)
	}
	dst = dst[:e.Senders]
	for j := range dst {
		dst[j] = e.ChannelAt(j, symIdx, b)
	}
	return dst
}

// Channel returns the raw (unrotated) channel estimate of a sender, or nil.
func (e *Estimator) Channel(sender int) []complex128 { return e.h[sender] }

// ResidualCFO returns the tracked residual frequency of a sender in cycles
// per data symbol.
func (e *Estimator) ResidualCFO(sender int) float64 {
	return e.trackers[sender].ResidualCFO()
}
