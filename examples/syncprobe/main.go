// Synchronization measurement walkthrough (paper §4.2): the building blocks
// the Symbol Level Synchronizer is made of.
//
//  1. Fig. 5: a detection delay shifts every OFDM subcarrier's channel phase
//     by an amount proportional to the subcarrier index — the slope recovers
//     the delay to sub-sample accuracy.
//  2. Eq. 2: a probe/response round trip with measured detection delays and
//     turnaround times yields the one-way propagation delay.
//  3. §4.5: the ACK misalignment feedback loop converges even with noisy
//     measurements.
//
// Run: go run ./examples/syncprobe
package main

import (
	"fmt"
	"math/cmplx"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/sls"
)

func main() {
	cfg := modem.ProfileWiGLAN()
	rng := rand.New(rand.NewSource(5))

	// --- 1. Fig. 5: channel phase slope vs detection delay -------------
	fmt.Println("Fig. 5 — unwrapped channel phase per subcarrier, flat channel:")
	for _, delta := range []float64{0, 2, 5} {
		h := channel.Flat().FreqResponse(cfg.NFFT)
		dsp.PhaseRampDelay(h, delta)
		// Print phases of a few subcarriers; the slope grows with delta.
		fmt.Printf("  detection offset %3.0f samples: phase(k=-10..10 by 5) =", delta)
		for _, k := range []int{-10, -5, 5, 10} {
			fmt.Printf(" %+6.2f", cmplx.Phase(h[cfg.Bin(k)]))
		}
		est := sls.EstimateDelay(cfg, zeroUnused(cfg, h))
		fmt.Printf("  -> slope-estimated delay %5.2f\n", est)
	}

	// With multipath the estimator still tracks induced delay differences.
	m := channel.NewIndoor(rng, cfg.SampleRateHz, 40, 3)
	h1 := m.FreqResponse(cfg.NFFT)
	h2 := m.FreqResponse(cfg.NFFT)
	dsp.PhaseRampDelay(h2, 3.5)
	d := sls.EstimateDelay(cfg, zeroUnused(cfg, h2)) - sls.EstimateDelay(cfg, zeroUnused(cfg, h1))
	fmt.Printf("multipath channel, induced 3.50-sample shift: measured %.2f\n\n", d)

	// --- 2. Eq. 2: probe/response propagation delay --------------------
	fmt.Println("Eq. 2 — probe/response round trip:")
	prop := 7.3 // samples one way (17 m at 128 MHz)
	ex := sls.ProbeExchange{
		DetectRx:    4.2, // responder's detection-delay estimate
		TurnRx:      900, // responder's turnaround (measured in clock ticks)
		DetectTx:    3.9, // prober's detection delay for the response
		ExtraWaitRx: 0,
	}
	ex.RoundTrip = 2*prop + ex.DetectRx + ex.TurnRx + ex.DetectTx
	fmt.Printf("  round trip %.1f samples -> one-way propagation %.2f samples (truth %.2f)\n\n",
		ex.RoundTrip, ex.OneWayDelay(), prop)

	// --- 3. §4.5: delay tracking from data frames ----------------------
	fmt.Println("§4.5 — ACK feedback converges on a drifting co-sender:")
	trueOffset := 4.0 // co-sender initially 4 samples late
	w := 0.0
	for i := 0; i < 12; i++ {
		measured := trueOffset + w + rng.NormFloat64()*0.3 // noisy estimate
		w = sls.TrackWait(w, measured, 0.5)
		if i%3 == 2 {
			fmt.Printf("  after %2d frames: wait adjustment %+5.2f, residual %+5.2f samples\n",
				i+1, w, trueOffset+w)
		}
	}

	// --- 4. §4.6: several receivers cannot all be aligned --------------
	fmt.Println("\n§4.6 — two receivers, conflicting alignments (paper Fig. 8):")
	wls, maxMis, err := sls.MultiReceiverWaits([]float64{5, 1}, [][]float64{{1, 5}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  LP wait %.2f samples, residual worst-case misalignment %.2f samples\n", wls[0], maxMis)
	fmt.Printf("  -> lead advertises a CP increase of %d samples in its sync header\n",
		sls.CPIncreaseSamples(maxMis))
}

// zeroUnused blanks the unused FFT bins like a real channel estimator.
func zeroUnused(cfg *modem.Config, h []complex128) []complex128 {
	used := map[int]bool{}
	for _, k := range cfg.UsedBins() {
		used[cfg.Bin(k)] = true
	}
	for b := range h {
		if !used[b] {
			h[b] = 0
		}
	}
	return h
}
