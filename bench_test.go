package sourcesync

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§8). Each benchmark runs a shrunken-but-representative version
// of the experiment per iteration and reports the headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` yields a machine-readable
// summary of the reproduction. cmd/ssbench runs the full-size versions and
// prints the complete series.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/modem"
	"repro/internal/permodel"
	"repro/internal/phy"
)

// --------------------------------------------------------------- figures

func BenchmarkFig12SyncError(b *testing.B) {
	o := Fig12Options{SNRsdB: []float64{6, 12, 25}, Trials: 6, Reps: 30}
	var last []Fig12Point
	for i := 0; i < b.N; i++ {
		last = RunFig12(engine.Config{Seed: int64(1 + i)}, o)
	}
	var worstP95 float64
	for _, p := range last {
		if p.P95Ns > worstP95 {
			worstP95 = p.P95Ns
		}
	}
	b.ReportMetric(worstP95, "p95-sync-error-ns")
}

var engineFig12SerialOnce sync.Once //sslint:allow detgoroutine one-shot serial-baseline memoization in benchmark scaffolding, not simulation state
var engineFig12SerialSec float64

func BenchmarkEngineFig12Parallel(b *testing.B) {
	// Speedup of the engine's worker pool over its serial path on the same
	// workload. Output is identical in both modes; only wall clock differs.
	// The serial baseline is measured once per process (the harness calls
	// this function repeatedly while ramping b.N).
	o := Fig12Options{SNRsdB: []float64{6, 12, 25}, Trials: 8, Reps: 30}
	engineFig12SerialOnce.Do(func() {
		serial := engine.Config{Seed: 1, Workers: 1}
		RunFig12(serial, o) // warm process-wide caches before timing anything
		const serialRuns = 3
		start := time.Now() //sslint:allow detwallclock measures benchmark wall clock; experiment output is unaffected
		for i := 0; i < serialRuns; i++ {
			RunFig12(serial, o)
		}
		engineFig12SerialSec = time.Since(start).Seconds() / serialRuns //sslint:allow detwallclock measures benchmark wall clock; experiment output is unaffected
		// Warm the parallel path too: at -benchtime 1x the timed loop below
		// runs exactly once, and without this the worker pool's spin-up and
		// first-use scheduling costs land inside that single timed run —
		// the recorded "speedup" dipped below 1.0 on an 8-way box purely
		// from startup overhead the serial baseline never paid.
		RunFig12(engine.Config{Seed: 1}, o)
	})

	par := engine.Config{Seed: 1} // Workers 0: GOMAXPROCS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunFig12(par, o)
	}
	parallelSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(engineFig12SerialSec/parallelSec, "speedup-x")
}

func BenchmarkFig13CPSweep(b *testing.B) {
	o := Fig13Options{CPsNs: []float64{117, 469}, FramesPerCP: 3}
	var pts []Fig13Point
	for i := 0; i < b.N; i++ {
		pts = RunFig13(engine.Config{Seed: int64(2 + i)}, o)
	}
	// SourceSync at 117 ns vs baseline at 117 ns: the gap is the paper's
	// headline (baseline needs ~469 ns to catch up).
	b.ReportMetric(pts[0].SourceSyncSNR, "ss-snr-at-117ns-dB")
	b.ReportMetric(pts[0].BaselineSNR, "baseline-snr-at-117ns-dB")
	b.ReportMetric(pts[1].BaselineSNR, "baseline-snr-at-469ns-dB")
}

func BenchmarkFig14DelaySpread(b *testing.B) {
	var pts []Fig14Point
	for i := 0; i < b.N; i++ {
		pts = RunFig14(engine.Config{Seed: int64(3 + i)}, Fig14Options{Draws: 150, Taps: 70})
	}
	b.ReportMetric(float64(SignificantTaps(pts, 0.01)), "significant-taps")
}

func BenchmarkFig15PowerGain(b *testing.B) {
	var rows []Fig15Row
	for i := 0; i < b.N; i++ {
		rows = RunFig15(engine.Config{Seed: int64(4 + i)}, Fig15Options{Placements: 12, Frames: 1})
	}
	for _, r := range rows {
		b.ReportMetric(r.GainDB, "gain-dB-"+r.Regime)
	}
}

func BenchmarkFig16SubcarrierSNR(b *testing.B) {
	var series []Fig16Series
	for i := 0; i < b.N; i++ {
		series = RunFig16(engine.Config{Seed: int64(5 + i)}, Fig15Options{Placements: 12, Frames: 1})
	}
	for _, s := range series {
		flattening := (s.Flatness.Sender1+s.Flatness.Sender2)/2 - s.Flatness.Joint
		b.ReportMetric(flattening, "flattening-dB-"+s.Regime)
	}
}

func BenchmarkFig17LastHop(b *testing.B) {
	var res PointStats
	for i := 0; i < b.N; i++ {
		res = RunFig17(engine.Config{Seed: int64(6 + i)}, Fig17Options{Placements: 16, Packets: 250})
	}
	b.ReportMetric(res.MedianGain(1, 0), "median-gain-x")
}

func BenchmarkFig18OppRouting6(b *testing.B) {
	benchFig18(b, 6)
}

func BenchmarkFig18OppRouting12(b *testing.B) {
	benchFig18(b, 12)
}

func benchFig18(b *testing.B, mbps int) {
	b.Helper()
	var res PointStats
	for i := 0; i < b.N; i++ {
		res = RunFig18(engine.Config{Seed: int64(7 + i)}, MeshOptions{
			Topologies: 10, Packets: 100,
			RateMbps: mbps, Probes: 40,
		})
	}
	b.ReportMetric(res.MedianGain(1, 0), "exor-over-sp-x")
	b.ReportMetric(res.MedianGain(2, 1), "ss-over-exor-x")
	b.ReportMetric(res.MedianGain(2, 0), "ss-over-sp-x")
}

func BenchmarkTabOverhead(b *testing.B) {
	var rows []OverheadRow
	for i := 0; i < b.N; i++ {
		rows = RunOverheadTable()
	}
	b.ReportMetric(rows[0].OverheadFraction*100, "overhead-2senders-pct")
	b.ReportMetric(rows[3].OverheadFraction*100, "overhead-5senders-pct")
}

func BenchmarkDetDelayPremise(b *testing.B) {
	var pts []DetDelayPoint
	for i := 0; i < b.N; i++ {
		pts = RunDetDelay(engine.Config{Seed: int64(8 + i)}, []float64{4, 25}, 20)
	}
	b.ReportMetric(pts[0].StdNs, "det-delay-std-ns-4dB")
	b.ReportMetric(pts[1].StdNs, "det-delay-std-ns-25dB")
}

// -------------------------------------------------------------- ablations

func BenchmarkAblationSlopeWindow(b *testing.B) {
	var res SlopeWindowResult
	for i := 0; i < b.N; i++ {
		res = RunAblationSlopeWindow(engine.Config{Seed: int64(9 + i)}, 100)
	}
	b.ReportMetric(res.WindowedRMS, "windowed-rms-samples")
	b.ReportMetric(res.WholeBandRMS, "wholeband-rms-samples")
}

func BenchmarkAblationNaiveCombining(b *testing.B) {
	var res NaiveCombiningResult
	for i := 0; i < b.N; i++ {
		res = RunAblationNaiveCombining(engine.Config{Seed: int64(10 + i)}, 8)
	}
	b.ReportMetric(res.STBCWorstSNRdB, "stbc-worst-dB")
	b.ReportMetric(res.NaiveWorstSNRdB, "naive-worst-dB")
	b.ReportMetric(float64(res.NaiveFailures), "naive-failures")
}

func BenchmarkAblationPilotSharing(b *testing.B) {
	var res PilotSharingResult
	for i := 0; i < b.N; i++ {
		res = RunAblationPilotSharing(engine.Config{Seed: int64(11 + i)}, 3)
	}
	b.ReportMetric(res.SharedPilotsEVM, "shared-evm")
	b.ReportMetric(res.NaiveTrackEVM, "naive-evm")
}

func BenchmarkAblationSoftDecision(b *testing.B) {
	// Coding gain of soft-decision demapping near the 12 Mbps waterfall
	// (an extension beyond the paper's hard-decision FPGA pipeline).
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	var hard, soft float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(20 + i)))
		hard = permodel.EmpiricalPEROpts(cfg, rate, 300, 7, 30, rng, false)
		rng = rand.New(rand.NewSource(int64(20 + i)))
		soft = permodel.EmpiricalPEROpts(cfg, rate, 300, 7, 30, rng, true)
	}
	b.ReportMetric(hard, "hard-per")
	b.ReportMetric(soft, "soft-per")
}

func BenchmarkAblationMultiRxLP(b *testing.B) {
	var res MultiRxLPResult
	for i := 0; i < b.N; i++ {
		res = RunAblationMultiRxLP(engine.Config{Seed: int64(12 + i)}, 50)
	}
	b.ReportMetric(res.LPMaxMisalign, "lp-maxmis-samples")
	b.ReportMetric(res.FirstRxMisalign, "firstrx-maxmis-samples")
}

// ---------------------------------------------------- hot-path benchmarks

func BenchmarkFFT64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FFTInto(dst, x)
	}
}

func BenchmarkViterbiDecode1500B(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	bits := make([]byte, 1500*8)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	data := modem.AppendTail(bits)
	coded := modem.ConvEncode(data, modem.Rate12)
	soft := modem.HardToSoft(coded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		modem.ViterbiDecode(soft, len(data), modem.Rate12)
	}
}

var benchFrameOnce sync.Once //sslint:allow detgoroutine one-shot fixture memoization in benchmark scaffolding, not simulation state
var benchFrameWave []complex128
var benchFrameParams modem.FrameParams

func benchFrameSetup() {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(54)
	benchFrameParams = modem.FrameParams{
		Cfg: cfg, Rate: rate, CP: cfg.CPLen, PayloadLen: 1460, ScramblerSeed: 0x5d,
	}
	payload := make([]byte, 1460)
	rand.New(rand.NewSource(3)).Read(payload)
	benchFrameWave = modem.BuildFrame(benchFrameParams, payload)
}

func BenchmarkModemEncode1460B54M(b *testing.B) {
	benchFrameOnce.Do(benchFrameSetup)
	payload := make([]byte, 1460)
	rand.New(rand.NewSource(4)).Read(payload)
	b.SetBytes(1460)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		modem.BuildFrame(benchFrameParams, payload)
	}
}

func BenchmarkModemDecode1460B54M(b *testing.B) {
	benchFrameOnce.Do(benchFrameSetup)
	cfg := benchFrameParams.Cfg
	buf := make([]complex128, 300+len(benchFrameWave)+300)
	copy(buf[300:], benchFrameWave)
	rng := rand.New(rand.NewSource(5))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4)
	}
	rx := &modem.Receiver{Cfg: cfg, FFTBackoff: 3}
	b.SetBytes(1460)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := rx.Receive(benchFrameParams, buf, 0); err != nil || !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkJointFrameRoundTrip(b *testing.B) {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	p := phy.JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 256, Seed: 0x5d, NumCo: 1, LeadID: 1, PacketID: 2,
	}
	rng := rand.New(rand.NewSource(6))
	sim := &phy.JointSimConfig{
		P:        p,
		LeadToCo: []phy.Link{{Gain: 1, Delay: 3}},
		LeadToRx: phy.Link{Gain: 1, Delay: 5},
		CoToRx:   []phy.Link{{Gain: 1, Delay: 2}},
		Co: []phy.CoSenderSim{{
			Turnaround: 120, EstDelayFromLead: 3, TxOffset: 3,
			NoisePower: 1e-5, FFTBackoff: 3,
		}},
		NoiseRx: 1e-5,
		Rng:     rng,
	}
	payload := make([]byte, 256)
	rng.Read(payload)
	rx := &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3}
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sim.Run(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rx.Receive(run.RxWave, 0); err != nil {
			b.Fatal(err)
		}
	}
}
