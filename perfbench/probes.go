package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/dsp"
	"repro/internal/exor"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/permodel"
	"repro/internal/phy"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Layer probes call single layers' public functions directly, on inputs
// shaped like the workloads'. Each timed probe warms up once, grows its
// batch until one batch takes probeBatch, and reports the median per-call
// time over probeBatches batches.
const (
	probeBatch   = 20 * time.Millisecond
	probeBatches = 5
)

// timeOp returns op's median cost in nanoseconds. op's error fails the
// probe.
func timeOp(op func() error) (float64, error) {
	if err := op(); err != nil {
		return 0, err
	}
	batch := func(k int) (time.Duration, error) {
		t := time.Now() //sslint:allow detwallclock probe timing is the benchmark's measurement
		for i := 0; i < k; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil //sslint:allow detwallclock probe timing is the benchmark's measurement
	}
	k := 1
	for {
		d, err := batch(k)
		if err != nil {
			return 0, err
		}
		if d >= probeBatch || k >= 1<<20 {
			break
		}
		k *= 2
	}
	per := make([]float64, probeBatches)
	for b := range per {
		d, err := batch(k)
		if err != nil {
			return 0, err
		}
		per[b] = float64(d.Nanoseconds()) / float64(k)
	}
	return median(per), nil
}

// runProbes runs every layer probe in this fresh process and returns the
// metrics, plus one failure per probe whose call failed.
func runProbes() childResult {
	res := childResult{Layer: map[string]float64{}}
	cfg := modem.Profile80211()

	// First, before anything else builds a decode-threshold table: the
	// process-wide memo is still cold.
	t := time.Now() //sslint:allow detwallclock probe timing is the benchmark's measurement
	ra := netsim.NewRateAware(cfg, modem.StandardRates(), 1460)
	ra.Settle(netsim.Reception{SINRdB: 12, ServingSNRdB: 25, RateIdx: 4, Collision: true})
	res.Layer["netsim.rateaware_cold_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6 //sslint:allow detwallclock probe timing is the benchmark's measurement
	res.Ops++

	timed := []struct {
		name  string
		scale float64 // nanoseconds per reported unit
		build func() (op func() error, calls int)
	}{
		{"dsp.fft64_ns", 1, fftProbe},
		{"modem.viterbi_1500B_us", 1e3, viterbiProbe},
		{"modem.decode_1460B_54M_us", 1e3, decodeProbe},
		{"phy.joint_frame_us", 1e3, jointFrameProbe},
		{"permodel.per_ns", 1, perProbe},
		{"netsim.small_us", 1e3, smallSimProbe},
		{"lasthop.cell_joint_ms", 1e6, func() (func() error, int) { return cellProbe(true) }},
		{"lasthop.cell_single_ms", 1e6, func() (func() error, int) { return cellProbe(false) }},
		{"exor.run_ms", 1e6, exorProbe},
		{"scenario.parse_us", 1e3, scenarioProbe},
	}
	for _, p := range timed {
		res.Ops++
		op, calls := p.build()
		ns, err := timeOp(op)
		if err != nil {
			res.fail("probe %s: %v", p.name, err)
			continue
		}
		res.Layer[p.name] = ns / float64(calls) / p.scale
	}

	res.Ops++
	if err := cityProbe(res.Layer); err != nil {
		res.fail("probe netsim.city: %v", err)
	}
	return res
}

func fftProbe() (func() error, int) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 64)
	return func() error {
		dsp.FFTInto(dst, x)
		return nil
	}, 1
}

func viterbiProbe() (func() error, int) {
	rng := rand.New(rand.NewSource(2))
	bits := make([]byte, 1500*8)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	data := modem.AppendTail(bits)
	soft := modem.HardToSoft(modem.ConvEncode(data, modem.Rate12))
	return func() error {
		if got := modem.ViterbiDecode(soft, len(data), modem.Rate12); modem.CountBitErrors(got[:len(bits)], bits) != 0 {
			return errors.New("clean Viterbi decode has bit errors")
		}
		return nil
	}, 1
}

func decodeProbe() (func() error, int) {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(54)
	p := modem.FrameParams{Cfg: cfg, Rate: rate, CP: cfg.CPLen, PayloadLen: 1460, ScramblerSeed: 0x5d}
	payload := make([]byte, 1460)
	rand.New(rand.NewSource(3)).Read(payload)
	wave := modem.BuildFrame(p, payload)
	buf := make([]complex128, 300+len(wave)+300)
	copy(buf[300:], wave)
	rng := rand.New(rand.NewSource(5))
	for i := range buf {
		buf[i] += complex(rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4)
	}
	rx := &modem.Receiver{Cfg: cfg, FFTBackoff: 3}
	return func() error {
		if _, ok, _, err := rx.Receive(p, buf, 0); err != nil || !ok {
			return fmt.Errorf("54 Mbps frame did not decode (err %v)", err)
		}
		return nil
	}, 1
}

// jointFrameProbe is the two-sender SourceSync frame: simulate the lead
// and one co-sender through their channels, then jointly receive.
func jointFrameProbe() (func() error, int) {
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
	return func() error {
		run, err := sim.Run(payload)
		if err != nil {
			return err
		}
		_, err = rx.Receive(run.RxWave, 0)
		return err
	}, 1
}

// perProbe prices a 48-bin SNR vector at every standard rate; the metric
// is per PER call.
func perProbe() (func() error, int) {
	rates := modem.StandardRates()
	bins := make([]float64, 48)
	for i := range bins {
		bins[i] = dsp.FromDB(14 + 6*math.Sin(float64(i)/5))
	}
	var sink float64
	return func() error {
		for _, r := range rates {
			sink += permodel.PER(r, 1460, bins)
		}
		if math.IsNaN(sink) {
			return errors.New("PER returned NaN")
		}
		return nil
	}, len(rates)
}

// placedFlow is a backlogged downlink from tx to rx whose delivery draw is
// a fixed coin: the probes time the simulator, not the PHY.
func placedFlow(packets int, tx, rx testbed.Point) *netsim.Flow {
	remaining := packets
	return &netsim.Flow{
		Name:       "f",
		Acked:      true,
		Radio:      &netsim.Radio{TxPos: tx, RxPos: rx, SNRdB: 25},
		HasTraffic: func() bool { return remaining > 0 },
		FrameTime:  func(int) float64 { return 3e-4 },
		Deliver:    func(rng *rand.Rand, _ int, _ netsim.Interference) bool { return rng.Float64() < 0.9 },
		Done:       func(int, bool, float64) { remaining-- },
	}
}

// newSim is a rate-aware simulator over the default testbed.
func newSim(seed int64, csRange, ixRange float64) *netsim.Sim {
	cfg := modem.Profile80211()
	s := netsim.New(mac.Default(cfg), rand.New(rand.NewSource(seed)))
	s.CSRangeM = csRange
	s.InterferenceRangeM = ixRange
	s.Model = netsim.NewRateAware(cfg, modem.StandardRates(), 1460)
	s.Env = testbed.Default(cfg)
	return s
}

// addCell places clients downlinks in a cell centred at (cx, cy).
func addCell(s *netsim.Sim, cx, cy float64, clients, packets int) {
	for k := 0; k < clients; k++ {
		x := cx + 2*float64(k)
		s.AddFlow(placedFlow(packets, testbed.Point{X: x, Y: cy}, testbed.Point{X: x, Y: cy + 10}))
	}
}

// smallSimProbe builds and runs an 8-flow, two-cell sim with an unbounded
// interference scan, the cell-family regime.
func smallSimProbe() (func() error, int) {
	return func() error {
		s := newSim(11, 45, 0)
		addCell(s, 0, 0, 4, 20)
		addCell(s, 60, 0, 4, 20)
		s.Run()
		if s.Now() <= 0 {
			return errors.New("small sim never advanced its clock")
		}
		return nil
	}, 1
}

// City shape: metro's 4-client cells on its max(2*CS, CS+45) m pitch,
// CS 45 m, interference range 150 m.
const (
	citySide    = 10
	cityClients = 4
	cityPackets = 8
	cityPitch   = 90
	cityRuns    = 3
)

func buildCity(seed int64) *netsim.Sim {
	s := newSim(seed, 45, 150)
	for c := 0; c < citySide*citySide; c++ {
		addCell(s, float64(c%citySide)*cityPitch, float64(c/citySide)*cityPitch, cityClients, cityPackets)
	}
	return s
}

// cityProbe steps a metro-shaped city through the public New/AddFlow/Step
// API and reports the median ns per event, allocations per event, and the
// heap bytes a built city holds per flow.
func cityProbe(layer map[string]float64) error {
	flows := float64(citySide * citySide * cityClients)
	var ns, allocs []float64
	var ms0, ms1 runtime.MemStats
	for run := 0; run < cityRuns; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		s := buildCity(int64(20 + run))
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		layer["netsim.city_bytes_per_flow"] = float64(ms1.HeapAlloc-ms0.HeapAlloc) / flows
		events := 0
		t := time.Now() //sslint:allow detwallclock probe timing is the benchmark's measurement
		for s.Step() {
			events++
		}
		d := time.Since(t) //sslint:allow detwallclock probe timing is the benchmark's measurement
		runtime.ReadMemStats(&ms0)
		if events == 0 {
			return errors.New("city ran no events")
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(events))
		allocs = append(allocs, float64(ms0.Mallocs-ms1.Mallocs)/float64(events))
	}
	layer["netsim.city_ns_per_event"] = median(ns)
	layer["netsim.city_allocs_per_event"] = median(allocs)
	return nil
}

// cellProbe runs one lasthop.Cell at the cell experiment's defaults (8
// clients, 2 APs, 120 packets of 1460 B, rate-aware model, one collision
// domain), placed the way that experiment places it.
func cellProbe(joint bool) (func() error, int) {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	rng := rand.New(rand.NewSource(12))
	const nAPs, nClients = 2, 8
	aps := make([]testbed.Point, nAPs)
	for a := range aps {
		aps[a] = env.RandomPointWhere(rng, 100000, func(p testbed.Point) bool {
			for _, q := range aps[:a] {
				if testbed.Dist(p, q) < env.Width/4 {
					return false
				}
			}
			return true
		})
	}
	links := make([][]testbed.Link, nClients)
	clientPos := make([]testbed.Point, nClients)
	apPos := make([][]testbed.Point, nClients)
	for c := range links {
		pos := env.RandomPointWhere(rng, 100000, func(p testbed.Point) bool {
			d := math.Min(testbed.Dist(p, aps[0]), testbed.Dist(p, aps[1]))
			return d >= 8 && d <= 25
		})
		links[c] = []testbed.Link{env.NewLink(rng, aps[0], pos), env.NewLink(rng, aps[1], pos)}
		clientPos[c], apPos[c] = pos, aps
	}
	cell := lasthop.Cell{
		Mac: mac.Default(cfg), PayloadBytes: 1460, Links: links, PacketsPerClient: 120,
		APPos: apPos, ClientPos: clientPos, Env: env,
		Model: netsim.NewRateAware(cfg, modem.StandardRates(), 1460),
	}
	return func() error {
		var r lasthop.CellResult
		if joint {
			r = cell.RunJoint(rand.New(rand.NewSource(13)))
		} else {
			r = cell.RunBestSingleAP(rand.New(rand.NewSource(13)))
		}
		if r.AggregateBps <= 0 {
			return errors.New("cell delivered nothing")
		}
		return nil
	}, 1
}

// exorProbe runs ExOR+SourceSync over one fig18-sized mesh: a source,
// three relays and a destination at 12 Mbps, 150 packets of 1000 B. It
// draws meshes from a fixed seed until one carries traffic.
func exorProbe() (func() error, int) {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	rate, _ := modem.RateByMbps(12)
	rng := rand.New(rand.NewSource(14))
	w, h := env.Width, env.Height
	var sim *exor.Sim
	for try := 0; try < 20; try++ {
		pts := []testbed.Point{{X: rng.Float64() * 0.08 * w, Y: rng.Float64() * h}}
		for r := 0; r < 3; r++ {
			pts = append(pts, testbed.Point{X: (0.25 + rng.Float64()*0.2) * w, Y: rng.Float64() * h})
		}
		pts = append(pts, testbed.Point{X: (0.92 + rng.Float64()*0.08) * w, Y: rng.Float64() * h})
		topo := exor.NewTopology(rng, env, pts)
		sim = &exor.Sim{Topo: topo, Meas: topo.Measure(rng, rate, 1000, 60, 0.1), Mac: mac.Default(cfg), Rate: rate, Payload: 1000}
		if sim.Run(rand.New(rand.NewSource(15)), exor.ExORSourceSync, 150).ThroughputBps > 0 {
			break
		}
	}
	return func() error {
		if r := sim.Run(rand.New(rand.NewSource(15)), exor.ExORSourceSync, 150); r.ThroughputBps <= 0 {
			return errors.New("ExOR+SourceSync delivered nothing")
		}
		return nil
	}, 1
}

// scenarioProbe parses and validates every builtin spec and every
// examples/*.json; the metric is per spec.
func scenarioProbe() (func() error, int) {
	var specs [][]byte
	for _, name := range scenario.BuiltinNames() {
		_, b := scenario.Builtin(name)
		specs = append(specs, b)
	}
	files, _ := filepath.Glob(filepath.Join("examples", "*.json"))
	slices.Sort(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return func() error { return err }, 1
		}
		specs = append(specs, b)
	}
	return func() error {
		for _, b := range specs {
			sp, err := scenario.Parse(b)
			if err != nil {
				return err
			}
			if err := sp.Validate(); err != nil {
				return err
			}
		}
		return nil
	}, len(specs)
}
