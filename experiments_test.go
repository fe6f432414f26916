package sourcesync

import (
	"math"
	"testing"

	"repro/internal/engine"
)

// The experiment smoke tests run shrunken versions of every figure's
// workload and assert the paper's qualitative shape: who wins, roughly by
// how much, and where knees fall. Full-size runs live in bench_test.go and
// cmd/ssbench.

func TestFig12ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	o := Fig12Options{SNRsdB: []float64{6, 25}, Trials: 8, Reps: 30}
	pts := RunFig12(engine.Config{Seed: 1}, o)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Usable < 5 {
			t.Fatalf("SNR %.0f: only %d usable frames", p.SNRdB, p.Usable)
		}
		// Paper: <= 20 ns across the operational range. Allow slack for the
		// small sample count but the order of magnitude must hold.
		if p.P95Ns > 40 {
			t.Fatalf("SNR %.0f: p95 sync error %.1f ns", p.SNRdB, p.P95Ns)
		}
	}
	// Error should not improve when SNR degrades.
	if pts[0].P95Ns < pts[1].P95Ns*0.2 {
		t.Fatalf("low-SNR error %.1f unexpectedly far below high-SNR %.1f", pts[0].P95Ns, pts[1].P95Ns)
	}
}

func TestFig13ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	o := Fig13Options{CPsNs: []float64{39, 234, 625}, FramesPerCP: 3}
	pts := RunFig13(engine.Config{Seed: 2}, o)
	// SourceSync at a moderate CP (234 ns = 30 samples, just past the
	// channel's delay spread) should already be near its plateau; the
	// baseline needs far more. At the largest CP both should be close.
	ssMid, blMid := pts[1].SourceSyncSNR, pts[1].BaselineSNR
	ssBig, blBig := pts[2].SourceSyncSNR, pts[2].BaselineSNR
	if ssMid < ssBig-3 {
		t.Fatalf("SourceSync mid-CP %.1f dB far below plateau %.1f dB", ssMid, ssBig)
	}
	if blMid > ssMid-3 {
		t.Fatalf("baseline mid-CP %.1f dB should trail SourceSync %.1f dB", blMid, ssMid)
	}
	if math.Abs(blBig-ssBig) > 6 {
		t.Fatalf("at large CP both should converge: ss %.1f bl %.1f", ssBig, blBig)
	}
	// Tiny CP hurts SourceSync too (multipath ISI).
	if pts[0].SourceSyncSNR > pts[2].SourceSyncSNR-1 {
		t.Fatalf("CP=39ns (%.1f dB) should lose to CP=625ns (%.1f dB)", pts[0].SourceSyncSNR, pts[2].SourceSyncSNR)
	}
}

func TestFig14Shape(t *testing.T) {
	pts := RunFig14(engine.Config{Seed: 3}, Fig14Options{Draws: 120, Taps: 70})
	if len(pts) != 70 {
		t.Fatalf("%d taps", len(pts))
	}
	n := SignificantTaps(pts, 0.01)
	// Paper: ~15 significant taps at 128 MHz.
	if n < 8 || n > 30 {
		t.Fatalf("%d significant taps, want ~15", n)
	}
	// Power must decay overall.
	if pts[40].Power > pts[2].Power {
		t.Fatalf("tap 40 (%.3g) above tap 2 (%.3g)", pts[40].Power, pts[2].Power)
	}
}

func TestFig15Fig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	ec := engine.Config{Seed: 4}
	o := Fig15Options{Placements: 12, Frames: 1}
	rows := RunFig15(ec, o)
	if len(rows) == 0 {
		t.Fatal("no regimes measured")
	}
	for _, r := range rows {
		if r.GainDB < 1.0 || r.GainDB > 5.5 {
			t.Fatalf("%s regime gain %.2f dB, want ~2-3", r.Regime, r.GainDB)
		}
	}
	series := RunFig16(ec, o)
	if len(series) == 0 {
		t.Fatal("no Fig16 series")
	}
	for _, s := range series {
		// The joint profile should be at least as flat as the flattest
		// individual sender (usually much flatter).
		best := math.Min(s.Flatness.Sender1, s.Flatness.Sender2)
		if s.Flatness.Joint > best*1.1 {
			t.Fatalf("%s: joint flatness %.2f vs best single %.2f", s.Regime, s.Flatness.Joint, best)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	o := Fig17Options{Placements: 14, Packets: 200}
	res := RunFig17(engine.Config{Seed: 5}, o)
	if len(res.Schemes[0].AggMbps) != 14 || len(res.Schemes[1].AggMbps) != 14 {
		t.Fatalf("CDF lengths %d %d", len(res.Schemes[0].AggMbps), len(res.Schemes[1].AggMbps))
	}
	// Paper: median gain 1.57x. Accept a generous band for the small run.
	if gain := res.MedianGain(1, 0); gain < 1.1 || gain > 2.6 {
		t.Fatalf("median last-hop gain %.2f, want ~1.5", gain)
	}
}

func TestFig18Shape(t *testing.T) {
	o := MeshOptions{Topologies: 8, Packets: 80, RateMbps: 6, Probes: 40}
	res := RunFig18(engine.Config{Seed: 6}, o)
	exOverSP, ssOverEx, ssOverSP := res.MedianGain(1, 0), res.MedianGain(2, 1), res.MedianGain(2, 0)
	// Paper at 6 Mbps: ExOR 1.26-1.4x over single path; SourceSync
	// 1.35-1.45x over ExOR. Accept generous bands.
	if exOverSP < 1.0 {
		t.Fatalf("ExOR/SP gain %.2f", exOverSP)
	}
	if ssOverEx < 1.05 {
		t.Fatalf("SS/ExOR gain %.2f", ssOverEx)
	}
	if ssOverSP < exOverSP {
		t.Fatalf("SS/SP %.2f below ExOR/SP %.2f", ssOverSP, exOverSP)
	}
}

func TestMeshRowsCarryMediumCounters(t *testing.T) {
	o := MeshOptions{Topologies: 4, Packets: 40, CrossFlows: 2, CrossPackets: 40, RateMbps: 12, Probes: 30}
	res := RunCrossTraffic(engine.Config{Seed: 9}, o)
	for i, s := range res.Schemes[:4] {
		// One collision domain: a routed run keeps the medium busy some
		// but not all of the time, and only a loaded run has a second
		// flow to collide with.
		if s.MeanUtilization <= 0 || s.MeanUtilization > 1 {
			t.Errorf("%s: mean utilization %.3f, want in (0, 1]", s.Scheme, s.MeanUtilization)
		}
		if loaded := i%2 == 1; loaded != (s.CollisionRate > 0) {
			t.Errorf("%s: collision rate %.3f", s.Scheme, s.CollisionRate)
		}
	}
	// The cross row adds up flows of several runs, so it carries no
	// medium counters.
	if cross := res.Schemes[4]; cross.CollisionRate != 0 || cross.MeanUtilization != 0 {
		t.Errorf("cross row: collision rate %.3f, utilization %.3f", cross.CollisionRate, cross.MeanUtilization)
	}
}

func TestOverheadTable(t *testing.T) {
	rows := RunOverheadTable()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper: ~1.7% for 2 senders; increases with sender count.
	if rows[0].OverheadFraction < 0.012 || rows[0].OverheadFraction > 0.022 {
		t.Fatalf("2-sender overhead %.4f", rows[0].OverheadFraction)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].OverheadFraction <= rows[i-1].OverheadFraction {
			t.Fatal("overhead must grow with sender count")
		}
	}
}

func TestDetDelayPremise(t *testing.T) {
	pts := RunDetDelay(engine.Config{Seed: 1}, []float64{4, 25}, 25)
	low, high := pts[0], pts[1]
	if low.Detected < 15 || high.Detected < 23 {
		t.Fatalf("detections: low %d high %d", low.Detected, high.Detected)
	}
	// Detection delay variability should be on the order of hundreds of ns
	// at low SNR (the paper's premise) and smaller at high SNR.
	if low.StdNs < high.StdNs {
		t.Fatalf("low-SNR std %.0f ns below high-SNR %.0f ns", low.StdNs, high.StdNs)
	}
	if high.MeanNs < 0 {
		t.Fatalf("high-SNR mean detection delay %.0f ns negative", high.MeanNs)
	}
}

func TestAblationSlopeWindow(t *testing.T) {
	res := RunAblationSlopeWindow(engine.Config{Seed: 1}, 150)
	// The whole-band fit's unwrap errors are rare events; a run where no
	// draw hits one leaves both RMS values at machine epsilon and the
	// comparison below would be noise. Require a real signal.
	if res.WindowedRMS <= 0 || res.WholeBandRMS <= 1e-6 {
		t.Fatalf("degenerate ablation: windowed %.3g whole-band %.3g", res.WindowedRMS, res.WholeBandRMS)
	}
	// The windowed fit must not be worse than the whole-band fit.
	if res.WindowedRMS > res.WholeBandRMS*1.05 {
		t.Fatalf("windowed RMS %.3f worse than whole band %.3f", res.WindowedRMS, res.WholeBandRMS)
	}
}

func TestAblationNaiveCombining(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	res := RunAblationNaiveCombining(engine.Config{Seed: 9}, 8)
	if math.IsInf(res.STBCWorstSNRdB, 1) {
		t.Fatal("no STBC frames measured")
	}
	worstNaive := res.NaiveWorstSNRdB
	if res.NaiveFailures > 0 {
		worstNaive = -10 // total failures are worse than any SNR
	}
	if res.STBCWorstSNRdB < worstNaive+3 {
		t.Fatalf("STBC worst %.1f dB not clearly above naive worst %.1f dB (failures %d)",
			res.STBCWorstSNRdB, res.NaiveWorstSNRdB, res.NaiveFailures)
	}
}

func TestAblationPilotSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform experiment")
	}
	res := RunAblationPilotSharing(engine.Config{Seed: 10}, 4)
	if res.SharedPilotsEVM <= 0 || res.NaiveTrackEVM <= 0 {
		t.Fatalf("EVMs %.4f %.4f", res.SharedPilotsEVM, res.NaiveTrackEVM)
	}
	if res.NaiveTrackEVM < 2*res.SharedPilotsEVM {
		t.Fatalf("naive tracking EVM %.4f not clearly worse than shared %.4f",
			res.NaiveTrackEVM, res.SharedPilotsEVM)
	}
}

func TestAblationMultiRxLP(t *testing.T) {
	res := RunAblationMultiRxLP(engine.Config{Seed: 11}, 60)
	if res.LPMaxMisalign <= 0 {
		t.Fatal("LP produced zero misalignment on random configs")
	}
	if res.LPMaxMisalign > res.FirstRxMisalign {
		t.Fatalf("LP worst-case %.2f above first-rx alignment %.2f", res.LPMaxMisalign, res.FirstRxMisalign)
	}
}
