package netsim

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/modem"
	"repro/internal/permodel"
)

// This file is the pluggable interference layer: how a frame's decode is
// priced against the simultaneous interference it saw in the air. The
// simulator computes the physics — the effective SNR at the receiver, i.e.
// the serving link's signal over noise plus the worst simultaneous
// interference power — and hands it to an InterferenceModel, which judges
// whether the frame survives to its delivery draw at all and how much that
// draw is degraded. Models are pure functions of the Reception (no RNG, no
// state mutation), so interference decisions never perturb the
// deterministic draw stream.

// Reception describes one interfered frame at settle time, as the
// simulator hands it to the interference model.
type Reception struct {
	// SINRdB is the frame's effective SNR at its receiver: the serving
	// link's signal over noise plus the worst *simultaneous* interference
	// power, in dB.
	SINRdB float64
	// ServingSNRdB is the serving link's interference-free average SNR; the
	// gap to SINRdB is the interference degradation.
	ServingSNRdB float64
	// RateIdx is the rate index the frame was transmitted at (the Flow's
	// Prepare result).
	RateIdx int
	// Collision reports whether the overlap was an in-range collision
	// (simultaneous starts in one neighborhood) rather than out-of-range
	// hidden-terminal interference.
	Collision bool
}

// Verdict is an interference model's pricing of one reception.
type Verdict struct {
	// Survives reports whether the frame reaches its delivery draw at all;
	// a false verdict corrupts the frame outright (a collision loss or a
	// hidden-terminal corruption).
	Survives bool
	// SNRScale is the linear factor (<= 1) the delivery draw must apply to
	// the serving link's per-subcarrier SNRs — the continuous effective-SNR
	// degradation. 1 means the draw runs undegraded.
	SNRScale float64
	// MarginDB is the decode margin the model applied: the effective SINR
	// minus the threshold it was held against. Negative for corrupted
	// frames; the per-rate corruption stats aggregate it.
	MarginDB float64
}

// InterferenceModel decides how simultaneous interference affects a
// frame's decode. Implementations must be deterministic: the same
// Reception always yields the same Verdict, and no randomness is consumed.
type InterferenceModel interface {
	// Settle judges one interfered frame. It is called only when the
	// simulator's interference model is engaged (Env and Radio present)
	// and the frame actually overlapped other transmissions in the air.
	Settle(rx Reception) Verdict
}

// RateAware prices partial overlap per rate: a frame is corrupted outright
// only when its effective SINR falls below its *own rate's* decode
// threshold (robust rates ride out interference that destroys fast ones),
// and a frame that clears its threshold still pays for the overlap — its
// delivery draw runs at the interference-degraded effective SNR instead of
// the clean serving SNR. The same rule settles capture within collisions:
// a colliding frame survives iff its SINR clears its rate's threshold.
type RateAware struct {
	// ThresholdsDB[r] is rate index r's decode threshold: the flat-channel
	// SNR in dB at which the rate's packet error rate crosses 1/2 (from the
	// permodel curves). Frames at rate indices beyond the table clamp to
	// the last entry.
	ThresholdsDB []float64
}

// NewRateAware derives per-rate decode thresholds from the permodel PER
// curves for the given rate table and payload size — the rate-dependent
// decode margins of the effective-SNR interference model. The table is
// memoized process-wide (see thresholds), and each call gets a private
// copy, so a caller mutating its RateAware.ThresholdsDB cannot poison the
// memo.
func NewRateAware(cfg *modem.Config, rates []modem.Rate, payloadBytes int) *RateAware {
	thr := thresholds.Get(thresholdKey(cfg, rates, payloadBytes), func(string) []float64 {
		thr := make([]float64, len(rates))
		for i, r := range rates {
			thr[i] = DecodeThresholdDB(cfg, r, payloadBytes)
		}
		return thr
	})
	return &RateAware{ThresholdsDB: append([]float64(nil), thr...)}
}

// thresholds memoizes decode-threshold tables by thresholdKey. A table is
// a pure function of its key, and bisecting the PER curves (about 2 ms a
// table) is the most expensive cross-job invariant a long-running service
// would otherwise recompute on every job.
var thresholds = engine.NewMemo[string, []float64]("netsim.thresholds")

// thresholdKey fingerprints everything DecodeThresholdDB's result depends
// on: the OFDM profile's physical parameters, the rate table, and the
// payload size. It is a value, so two configs built alike share a table.
func thresholdKey(cfg *modem.Config, rates []modem.Rate, payloadBytes int) string {
	return fmt.Sprintf("%s|%g|%d|%d|%d|%v|%v|%d",
		cfg.Name, cfg.SampleRateHz, cfg.NFFT, cfg.CPLen, cfg.UsedHalf, cfg.Pilots, rates, payloadBytes)
}

// Settle implements InterferenceModel.
func (m *RateAware) Settle(rx Reception) Verdict {
	thr := m.ThresholdsDB[len(m.ThresholdsDB)-1]
	if rx.RateIdx < len(m.ThresholdsDB) {
		thr = m.ThresholdsDB[rx.RateIdx]
	}
	margin := rx.SINRdB - thr
	if margin < 0 {
		return Verdict{Survives: false, SNRScale: 1, MarginDB: margin}
	}
	// The draw runs at the effective SNR: scale the serving link's
	// subcarrier SNRs by SINR/SNR = 1/(1 + I/N), never above 1.
	scale := math.Pow(10, (rx.SINRdB-rx.ServingSNRdB)/10)
	if scale > 1 {
		scale = 1
	}
	return Verdict{Survives: true, SNRScale: scale, MarginDB: margin}
}

// DecodeThresholdDB returns the flat-channel SNR in dB at which the rate's
// packet error rate crosses 1/2 for the given payload — the decode floor
// the rate-aware model gates on. PER is monotone in SNR, so a bisection
// over the operational range converges.
func DecodeThresholdDB(cfg *modem.Config, rate modem.Rate, payloadBytes int) float64 {
	lo, hi := -10.0, 50.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if permodel.FlatPER(cfg, rate, payloadBytes, mid) > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RateCorruption accumulates one rate index's interference outcomes on a
// flow — the per-rate corruption stats the scenario layers surface.
type RateCorruption struct {
	// Interfered counts settled attempts at this rate that saw simultaneous
	// interference (collisions or hidden terminals) with the model engaged.
	Interfered int
	// Corrupted counts interfered attempts the model destroyed outright
	// (below the decode threshold).
	Corrupted int
	// Degraded counts interfered attempts that survived to a delivery draw
	// at interference-degraded effective SNR (SNRScale < 1).
	Degraded int
	// MarginDB sums the decode margins of the interfered attempts (mean =
	// MarginDB / Interfered); negative contributions are corrupted frames.
	MarginDB float64
}

// add folds one verdict into the accumulator.
func (c *RateCorruption) add(v Verdict) {
	c.Interfered++
	c.MarginDB += v.MarginDB
	if !v.Survives {
		c.Corrupted++
	} else if v.SNRScale < 1 {
		c.Degraded++
	}
}

// Merge adds other's counts into c (for aggregating flows into a result).
func (c *RateCorruption) Merge(other RateCorruption) {
	c.Interfered += other.Interfered
	c.Corrupted += other.Corrupted
	c.Degraded += other.Degraded
	c.MarginDB += other.MarginDB
}

// MergeRateCorruption sums per-rate stats slices of possibly different
// lengths, index by index (index = rate index).
func MergeRateCorruption(dst []RateCorruption, src []RateCorruption) []RateCorruption {
	for len(dst) < len(src) {
		dst = append(dst, RateCorruption{})
	}
	for i, s := range src {
		dst[i].Merge(s)
	}
	return dst
}
