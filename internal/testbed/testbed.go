// Package testbed models the indoor deployment the paper evaluates on
// (Fig. 11): node placements on an office floor, link budgets from a
// log-distance path loss model with shadowing, LOS/NLOS multipath draws,
// and the SNR-regime classification of §8.2.
package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/modem"
)

// Point is a node position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Testbed carries the radio environment parameters. Cfg, DelaySpreadNs
// and KFactorDB are fixed at construction: Default builds the
// environment's per-packet fading draws from them.
type Testbed struct {
	Cfg           *modem.Config
	PL            channel.PathLossModel
	TxPowerDBm    float64
	NoiseFigureDB float64
	Width, Height float64 // floor dimensions in meters
	DelaySpreadNs float64 // RMS multipath delay spread
	LOSThresholdM float64 // links shorter than this get a Rician component
	KFactorDB     float64 // Rician K for LOS links

	// rayleigh and rician draw one packet's multipath on Cfg's FFT grid:
	// NewIndoor's channel at the delay spread, with K 0 and with
	// KFactorDB (Rayleigh too unless KFactorDB > 0).
	rayleigh, rician *channel.Fading
}

// Default returns an environment modeled on the paper's office floor:
// a 30 x 15 m floor, 5.8 GHz carrier, indoor path loss with shadowing.
func Default(cfg *modem.Config) *Testbed {
	t := &Testbed{
		Cfg:           cfg,
		PL:            channel.DefaultIndoor(),
		TxPowerDBm:    15,
		NoiseFigureDB: 7,
		Width:         30,
		Height:        15,
		DelaySpreadNs: 50,
		LOSThresholdM: 6,
		KFactorDB:     6,
	}
	t.rayleigh = channel.NewFading(cfg.NFFT, cfg.SampleRateHz, t.DelaySpreadNs, 0)
	t.rician = channel.NewFading(cfg.NFFT, cfg.SampleRateHz, t.DelaySpreadNs, t.KFactorDB)
	return t
}

// Mesh returns an environment tuned for the multi-hop experiments (§8.4):
// lower transmit power and heavier obstruction (as across many office
// walls), so links at mesh spans sit near the 6-12 Mbps waterfall and
// exhibit the intermediate loss rates opportunistic routing exploits.
func Mesh(cfg *modem.Config) *Testbed {
	t := Default(cfg)
	t.TxPowerDBm = 10
	t.PL.Exponent = 3.5
	t.PL.ShadowSigma = 5
	t.Width = 50
	t.Height = 15
	return t
}

// NoiseFloorDBm returns the receiver noise floor for this environment.
func (t *Testbed) NoiseFloorDBm() float64 {
	return channel.NoiseFloorDBm(t.Cfg.SampleRateHz, t.NoiseFigureDB)
}

// MeanSNRdB returns the median-shadowing SNR a transmission would have at
// distance d — the deterministic link budget (no RNG drawn) netsim's
// capture model uses to price interference from a concurrent transmitter.
func (t *Testbed) MeanSNRdB(d float64) float64 {
	return channel.SNRFromBudget(t.TxPowerDBm, t.PL.LossDB(d, nil), t.NoiseFloorDBm())
}

// RandomPoint draws a uniform position on the floor.
func (t *Testbed) RandomPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64() * t.Width, Y: rng.Float64() * t.Height}
}

// RandomPointWhere draws uniform positions until pred accepts one.
// Rejection sampling must fail loudly rather than spin forever when the
// constraint is geometrically unsatisfiable, so after maxTries draws
// (<= 0 selects a generous default) it panics with the acceptance count.
func (t *Testbed) RandomPointWhere(rng *rand.Rand, maxTries int, pred func(Point) bool) Point {
	if maxTries <= 0 {
		maxTries = 100000
	}
	for i := 0; i < maxTries; i++ {
		if p := t.RandomPoint(rng); pred(p) {
			return p
		}
	}
	panic(fmt.Sprintf("testbed: no point on the %gx%g m floor satisfied the constraint in %d draws",
		t.Width, t.Height, maxTries))
}

// Link is a static directed link snapshot: its average SNR (path loss +
// shadowing, drawn once per topology) and geometry. Per-packet multipath is
// drawn fresh from it.
type Link struct {
	SNRdB  float64
	DistM  float64
	LOS    bool
	lin    float64 // SNRdB as a linear power ratio
	parent *Testbed
}

// NewLink draws a link between two placed nodes: the shadowing term is
// sampled once, making the link's average SNR static for the topology's
// lifetime (as in a static testbed).
func (t *Testbed) NewLink(rng *rand.Rand, a, b Point) Link {
	d := Dist(a, b)
	loss := t.PL.LossDB(d, rng)
	snr := channel.SNRFromBudget(t.TxPowerDBm, loss, t.NoiseFloorDBm())
	return t.LinkAtSNR(snr, d)
}

// LinkAtSNR fabricates a link with a prescribed average SNR (used by
// experiments that sweep SNR directly).
func (t *Testbed) LinkAtSNR(snrDB, distM float64) Link {
	return Link{SNRdB: snrDB, DistM: distM, LOS: distM <= t.LOSThresholdM, lin: math.Pow(10, snrDB/10), parent: t}
}

// fading is the draw of this link's multipath: the environment's K-factor
// on line-of-sight links, Rayleigh otherwise.
func (l Link) fading() *channel.Fading {
	if l.LOS {
		return l.parent.rician
	}
	return l.parent.rayleigh
}

// maxStackNFFT is the largest FFT whose scratch AppendSubcarrierSNRs keeps
// on its stack; it covers both shipped profiles (64 and 128 points).
const maxStackNFFT = 128

// AppendSubcarrierSNRs samples the per-data-subcarrier linear SNRs of one
// packet on this link (block fading: fresh multipath per packet), appends
// them to dst in data-bin order, and returns the extended slice. The draw
// is the frequency response of channel.NewIndoor's realization at the
// environment's delay spread and the link's K-factor, shaped by the
// link's average SNR, bit for bit, but allocates nothing when dst has
// room.
func (l Link) AppendSubcarrierSNRs(dst []float64, rng *rand.Rand) []float64 {
	cfg := l.parent.Cfg
	var buf [maxStackNFFT]complex128
	var h []complex128
	if cfg.NFFT <= len(buf) {
		h = buf[:cfg.NFFT]
	} else {
		h = make([]complex128, cfg.NFFT)
	}
	l.fading().Response(rng, h)
	for _, k := range cfg.DataBins() {
		v := h[cfg.Bin(k)]
		dst = append(dst, l.lin*(real(v)*real(v)+imag(v)*imag(v)))
	}
	return dst
}

// PropDelaySamples returns the line-of-flight delay of this link in samples.
func (l Link) PropDelaySamples() float64 {
	return channel.PropagationDelaySamples(l.DistM, l.parent.Cfg.SampleRateHz)
}

// Regime buckets link quality as in the paper's §8.2 grouping.
type Regime int

// SNR regimes.
const (
	LowSNR    Regime = iota // < 6 dB
	MediumSNR               // 6-12 dB
	HighSNR                 // > 12 dB
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case LowSNR:
		return "low"
	case MediumSNR:
		return "medium"
	case HighSNR:
		return "high"
	}
	return "unknown"
}

// ClassifyRegime maps an average SNR in dB to its regime.
func ClassifyRegime(snrDB float64) Regime {
	switch {
	case snrDB < 6:
		return LowSNR
	case snrDB <= 12:
		return MediumSNR
	default:
		return HighSNR
	}
}
