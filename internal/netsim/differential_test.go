package netsim_test

// The SoA scheduler refactor (hot per-flow state in dense parallel arrays,
// memoized interference pricing, the 4-ary event heap) must be an access-
// path change only: every run must stay draw-for-draw and bit-for-bit
// identical to the pre-refactor scheduler. This harness pins that: ~30
// randomized mixed topologies — spatial cells, Poisson/on-off traffic with
// deadlines and churn, waypoint-style mobility epochs with Reindex,
// mid-run AddFlow, bounded and unbounded interference range, no model,
// the legacy gate and the rate-aware model — are each fingerprinted
// (every counter, every clock value in exact hex-float form, plus one
// post-run RNG draw that pins the total randomness consumed) and diffed
// against testdata/differential_head.txt, which was generated by the
// pre-SoA scheduler at HEAD. Regenerate with -update ONLY when a
// deliberate, documented behavior change moves the simulation (same
// contract as the experiment goldens).
//
// Every trial is stepped by hand with CheckMemos after each Step, so a
// geometry memo that outlives its topology generation fails the trial at
// the step it went stale. TestBoundedInterferenceMatchesUnbounded reuses
// the same trials to pin a floor-covering interference range as an
// access-path change only.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

var updateDifferential = flag.Bool("update", false, "regenerate testdata/differential_head.txt from the current scheduler")

// diffFlow is one randomized flow of the differential harness.
type diffFlow struct {
	tx, rx  testbed.Point
	snr     float64
	packets int // backlog size; 0 means traffic-driven
	ft      float64
	placed  bool
	acked   bool
	traffic *netsim.TrafficConfig
}

// diffTrial is one randomized scenario: topology, interference model
// choice, and run mode.
type diffTrial struct {
	flows    []diffFlow
	cs       float64
	capture  float64
	ixRange  float64
	model    int // trial % 3: 0 and 1 run LegacyThreshold, 2 runs RateAware
	window   float64
	mobility float64 // epoch period; 0 = static
	addAt    float64 // mid-run AddFlow instant; 0 = none
}

// buildTrial draws one scenario from the trial's own topology RNG (never
// the simulation RNG, so the drawn scenario is independent of scheduler
// internals).
func buildTrial(trial int) diffTrial {
	rng := rand.New(rand.NewSource(int64(9000 + trial)))
	var t diffTrial
	nCells := 1 + rng.Intn(5)
	clients := 1 + rng.Intn(4)
	hasTraffic := trial%3 != 0
	for c := 0; c < nCells; c++ {
		cx, cy := rng.Float64()*300, rng.Float64()*300
		ap := testbed.Point{X: cx, Y: cy}
		for k := 0; k < clients; k++ {
			cl := testbed.Point{X: cx + rng.Float64()*40 - 20, Y: cy + rng.Float64()*40 - 20}
			f := diffFlow{
				tx: ap, rx: cl, snr: 10 + rng.Float64()*20,
				packets: 4 + rng.Intn(8), ft: 5e-4 + rng.Float64()*1e-3,
				placed: true, acked: rng.Intn(4) > 0,
			}
			if hasTraffic && rng.Intn(2) == 0 {
				f.packets = 0
				cfg := &netsim.TrafficConfig{}
				if rng.Intn(2) == 0 {
					cfg.Process = netsim.Poisson{RatePps: 100 + rng.Float64()*400}
				} else {
					cfg.Process = &netsim.OnOff{
						RatePps:    200 + rng.Float64()*400,
						MeanOnSec:  0.01 + rng.Float64()*0.03,
						MeanOffSec: 0.01 + rng.Float64()*0.02,
					}
				}
				if rng.Intn(3) == 0 {
					cfg.DeadlineSec = 0.005 + rng.Float64()*0.03
				}
				if rng.Intn(3) == 0 {
					cfg.StartSec = rng.Float64() * 0.02
				}
				if rng.Intn(4) == 0 {
					cfg.StopSec = 0.04 + rng.Float64()*0.04
				}
				f.traffic = cfg
			}
			t.flows = append(t.flows, f)
		}
	}
	// A couple of unplaced flows (heard everywhere), like routed flows.
	for k := 0; k < rng.Intn(3); k++ {
		t.flows = append(t.flows, diffFlow{
			packets: 3 + rng.Intn(6), ft: 5e-4 + rng.Float64()*1e-3, acked: rng.Intn(2) == 0,
		})
	}
	t.cs = 25 + rng.Float64()*55
	t.capture = 6 + rng.Float64()*6
	t.model = trial % 3
	switch rng.Intn(3) {
	case 0:
		t.ixRange = 0 // unbounded: every flow is a candidate
	case 1:
		t.ixRange = 1000 // bounded, but covering the whole floor
	default:
		t.ixRange = 150 + rng.Float64()*100 // genuinely bounding horizon
	}
	if hasTraffic {
		t.window = 0.08 + rng.Float64()*0.08
	}
	if trial%4 == 1 {
		t.mobility = 0.01 + rng.Float64()*0.02
		if t.window == 0 {
			t.window = 0.08 + rng.Float64()*0.08
		}
	}
	if trial%5 == 2 {
		t.addAt = 0.005 + rng.Float64()*0.02
	}
	return t
}

// runDifferential drains one scenario and fingerprints everything the run
// produced, with clock values in exact hex-float form and a final RNG
// draw pinning total randomness consumption. It steps the simulator by
// hand — the same loop Run and RunUntil drive — and checks the geometry
// memos after every step, failing with the first stale one.
func runDifferential(trial int, t diffTrial) (string, error) {
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(int64(100 + trial)))
	s := netsim.New(mac.Default(cfg), rng)
	s.CSRangeM = t.cs
	s.InterferenceRangeM = t.ixRange
	s.Env = testbed.Default(cfg)
	switch t.model {
	case 0, 1:
		s.Model = netsim.LegacyThreshold{CaptureDB: t.capture}
	case 2:
		s.Model = netsim.NewRateAware(cfg, modem.StandardRates(), 1460)
	}

	var flows []*netsim.Flow
	var queues []*netsim.Traffic
	addFlow := func(sp diffFlow) {
		remaining := sp.packets
		f := &netsim.Flow{
			Name:       fmt.Sprint(len(flows)),
			Acked:      sp.acked,
			HasTraffic: func() bool { return remaining > 0 },
			Prepare:    func(rng *rand.Rand) int { return rng.Intn(3) },
			FrameTime:  func(r int) float64 { return sp.ft * float64(r+1) },
			Deliver: func(rng *rand.Rand, r int, ix netsim.Interference) bool {
				return rng.Float64() < 0.9*ix.SNRScale && ix.SINRdB > -10
			},
			Done: func(r int, ok bool, air float64) { remaining-- },
		}
		if sp.placed {
			f.Radio = &netsim.Radio{TxPos: sp.tx, RxPos: sp.rx, SNRdB: sp.snr}
		}
		s.AddFlow(f)
		flows = append(flows, f)
		if sp.traffic != nil {
			queues = append(queues, s.AttachTraffic(f, *sp.traffic))
		} else {
			queues = append(queues, nil)
		}
	}
	for _, sp := range t.flows {
		addFlow(sp)
	}

	if t.mobility > 0 {
		// Waypoint-style epochs, exactly as lasthop.Cell runs them: install
		// fresh *Radio values, wake every flow, Reindex, reschedule. Moves
		// come from a dedicated RNG (callbacks fire in deterministic heap
		// order, so its draws are reproducible) and never touch Sim.Rng.
		moveRng := rand.New(rand.NewSource(int64(7000 + trial)))
		var epoch func()
		epoch = func() {
			for i, f := range flows {
				if f.Radio == nil {
					continue
				}
				r := *f.Radio
				r.RxPos.X += moveRng.Float64()*10 - 5
				r.RxPos.Y += moveRng.Float64()*10 - 5
				r.SNRdB = s.Env.MeanSNRdB(testbed.Dist(r.TxPos, r.RxPos))
				flows[i].Radio = &r
				s.Wake(flows[i])
			}
			s.Reindex()
			s.ScheduleAt(s.Now()+t.mobility, epoch)
		}
		s.ScheduleAt(t.mobility, epoch)
	}
	if t.addAt > 0 {
		// Mid-run churn through AddFlow itself (beyond the traffic layer's
		// start/stop): the spatial index and the hot-state arrays must grow
		// live.
		late := t.flows[0]
		late.tx.X += 11
		late.rx.X += 13
		late.packets, late.traffic = 5, nil
		s.ScheduleAt(t.addAt, func() { addFlow(late) })
	}

	for steps := 0; t.window == 0 || s.Now() < t.window; steps++ {
		if !s.Step() {
			break
		}
		if err := netsim.CheckMemos(s); err != nil {
			return "", fmt.Errorf("trial %d, step %d (t=%.6fs): %v", trial, steps+1, s.Now(), err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trial=%d now=%x busy=%x acq=%d coll=%d hid=%d\n",
		trial, s.Now(), s.BusyTime(), s.Acquisitions, s.CollisionRounds, s.HiddenCorruptions)
	for i, f := range s.Flows {
		fmt.Fprintf(&b, "  %s d=%d dr=%d at=%d co=%d ca=%d hl=%d air=%x",
			f.Name, f.Delivered, f.Dropped, f.Attempts, f.Collisions, f.Captures, f.HiddenLosses, f.AirTime)
		for r, rc := range f.RateCorruption {
			if rc.Interfered > 0 {
				fmt.Fprintf(&b, " r%d=%d/%d/%d/%x", r, rc.Interfered, rc.Corrupted, rc.Degraded, rc.MarginDB)
			}
		}
		if i < len(queues) && queues[i] != nil {
			fmt.Fprintf(&b, " arr=%d exp=%d aband=%d", queues[i].Arrived, queues[i].Expired, queues[i].Abandoned)
		}
		b.WriteString("\n")
	}
	// One draw past the end pins the exact number of RNG values the run
	// consumed — any scheduler change that adds or drops a draw moves it.
	fmt.Fprintf(&b, "  rng=%d\n", rng.Int63())
	return b.String(), nil
}

const differentialTrials = 30

func TestDifferentialHeadEquivalence(t *testing.T) {
	path := filepath.Join("testdata", "differential_head.txt")
	var b strings.Builder
	for trial := 0; trial < differentialTrials; trial++ {
		fp, err := runDifferential(trial, buildTrial(trial))
		if err != nil {
			t.Error(err) // keep going: a stale memo's reach shows in which trials fail
			continue
		}
		b.WriteString(fp)
	}
	if t.Failed() {
		t.FailNow()
	}
	got := b.String()
	if *updateDifferential {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d trials)", path, differentialTrials)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update on the PRE-refactor scheduler): %v", path, err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range wantLines {
			if i >= len(gotLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("scheduler diverged from the pre-SoA fingerprints at line %d:\n  head: %s\n  now:  %s",
					i+1, wantLines[i], gotLines[min(i, len(gotLines)-1)])
			}
		}
		t.Fatalf("scheduler diverged from the pre-SoA fingerprints (extra output beyond line %d)", len(wantLines))
	}
	// The harness itself must exercise bounded and unbounded ranges and
	// all models — guard against a refactor of buildTrial silently
	// narrowing coverage.
	var models, bounded, unbounded, mobile, churn int
	for trial := 0; trial < differentialTrials; trial++ {
		tr := buildTrial(trial)
		models |= 1 << tr.model
		if tr.ixRange > 0 {
			bounded++
		} else {
			unbounded++
		}
		if tr.mobility > 0 {
			mobile++
		}
		if tr.addAt > 0 || anyTrafficChurn(tr) {
			churn++
		}
	}
	if models != 7 || bounded == 0 || unbounded == 0 || mobile == 0 || churn == 0 {
		t.Fatalf("harness coverage narrowed: models=%b bounded=%d unbounded=%d mobile=%d churn=%d",
			models, bounded, unbounded, mobile, churn)
	}
}

// TestBoundedInterferenceMatchesUnbounded pins the interference range as
// an access-path change only. A range covering the whole floor (~340 m
// diagonally plus the 20 m client offset) bounds nothing, so the grid
// query must visit exactly the transmissions the every-flow candidate
// list visits: each trial drawn unbounded (range 0) or at 1000 m is rerun
// at the other value and must fingerprint identically.
func TestBoundedInterferenceMatchesUnbounded(t *testing.T) {
	checked := 0
	for trial := 0; trial < differentialTrials; trial++ {
		tr := buildTrial(trial)
		if tr.ixRange != 0 && tr.ixRange != 1000 {
			continue
		}
		other := buildTrial(trial) // fresh on-off arrival state: the processes are stateful
		other.ixRange = 1000 - tr.ixRange
		fp, err := runDifferential(trial, tr)
		if err != nil {
			t.Error(err)
			continue
		}
		switch ofp, err := runDifferential(trial, other); {
		case err != nil:
			t.Error(err)
		case ofp != fp:
			t.Errorf("trial %d: interference range %g and %g diverged:\n%g:\n%s\n%g:\n%s",
				trial, tr.ixRange, other.ixRange, tr.ixRange, fp, other.ixRange, ofp)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial drawn at range 0 or 1000: the range cross-check compared nothing")
	}
}

// anyTrafficChurn reports whether a trial has traffic-layer churn (a flow
// joining or leaving mid-run).
func anyTrafficChurn(tr diffTrial) bool {
	for _, f := range tr.flows {
		if f.traffic != nil && (f.traffic.StartSec > 0 || f.traffic.StopSec > 0) {
			return true
		}
	}
	return false
}
