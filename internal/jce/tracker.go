// Package jce implements SourceSync's Joint Channel Estimator (paper §5):
// per-sender channel estimates from the joint frame's dedicated channel
// estimation symbols, and per-sender residual-frequency phase tracking via
// pilots shared across symbols (the lead sender owns the pilot subcarriers
// in symbols 0, k, 2k, ...; co-sender i in symbols i, k+i, ...). The
// space-time decoder reads every sender's channel rotated by its sender's
// tracked phase; senders that share a codeword add up to the composite
// channel of §5.
package jce

import (
	"math"
	"sort"
)

// PhaseTracker tracks one sender's residual phase trajectory theta(t) from
// sparse, noisy observations at the symbols where that sender owns the
// pilots. It stores the full unwrapped trajectory: queries between
// observations interpolate linearly and queries outside the observed span
// extrapolate with the locally fitted slope. Interpolation matters: a
// tracker that only remembers its latest state would have to extrapolate
// backwards across the whole frame when decoding starts, amplifying slope
// noise over hundreds of symbols.
type PhaseTracker struct {
	syms   []float64 // observation symbol indices, ascending
	phases []float64 // unwrapped phases
	slope  float64   // smoothed rad/symbol, for extrapolation
	hasSlp bool
}

// NewPhaseTracker returns an empty tracker.
func NewPhaseTracker() *PhaseTracker { return &PhaseTracker{} }

// Update incorporates a measured phase (radians, wrapped) at symbol index
// sym. Measurements must arrive in increasing symbol order; each is
// unwrapped against the prediction so 2*pi ambiguities resolve in favor of
// trajectory continuity.
func (p *PhaseTracker) Update(sym int, phase float64) {
	s := float64(sym)
	if len(p.syms) == 0 {
		p.syms = append(p.syms, s)
		p.phases = append(p.phases, phase)
		return
	}
	pred := p.At(sym)
	k := math.Round((pred - phase) / (2 * math.Pi))
	unwrapped := phase + 2*math.Pi*k
	last := len(p.syms) - 1
	if ds := s - p.syms[last]; ds > 0 {
		newSlope := (unwrapped - p.phases[last]) / ds
		if p.hasSlp {
			p.slope += 0.5 * (newSlope - p.slope)
		} else {
			p.slope = newSlope
			p.hasSlp = true
		}
	}
	p.syms = append(p.syms, s)
	p.phases = append(p.phases, unwrapped)
}

// At returns the tracked phase at symbol index sym: interpolated inside the
// observed span, extrapolated with the smoothed slope outside it.
func (p *PhaseTracker) At(sym int) float64 {
	n := len(p.syms)
	if n == 0 {
		return 0
	}
	s := float64(sym)
	if s <= p.syms[0] {
		return p.phases[0] + p.slope*(s-p.syms[0])
	}
	last := n - 1
	if s >= p.syms[last] {
		return p.phases[last] + p.slope*(s-p.syms[last])
	}
	// Binary search for the bracketing observations.
	i := sort.SearchFloat64s(p.syms, s)
	lo, hi := i-1, i
	span := p.syms[hi] - p.syms[lo]
	if span == 0 {
		return p.phases[lo]
	}
	f := (s - p.syms[lo]) / span
	return p.phases[lo]*(1-f) + p.phases[hi]*f
}

// Observations returns how many measurements the tracker has absorbed.
func (p *PhaseTracker) Observations() int { return len(p.syms) }

// ResidualCFO returns the tracked residual frequency in cycles per symbol.
func (p *PhaseTracker) ResidualCFO() float64 { return p.slope / (2 * math.Pi) }
