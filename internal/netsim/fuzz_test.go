package netsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// FuzzSim decodes arbitrary bytes into a small simulation — 1 to 12
// flows, placed or unplaced, acked or not, each backlogged or fed by
// Poisson or on-off arrivals with optional deadlines and churn; a
// carrier-sense range and an interference range, each 0 or finite; no
// interference model, LegacyThreshold or RateAware; mobility epochs that
// move transmitters as well as receivers; an optional mid-run AddFlow —
// and runs it under RunChecked. Nothing may panic, CheckMemos and
// CheckEvents must hold after every Step, the run must drain or reach its
// window within fuzzMaxSteps, and a second run of the same input must
// fingerprint identically.
func FuzzSim(f *testing.F) {
	rateAware := netsim.NewRateAware(modem.Profile80211(), modem.StandardRates(), 1460)
	f.Fuzz(func(t *testing.T, data []byte) {
		first := runFuzzSim(t, data, rateAware)
		if again := runFuzzSim(t, data, rateAware); again != first {
			t.Fatalf("one input, two runs:\n%s\n%s", first, again)
		}
	})
}

// fuzzMaxSteps caps one FuzzSim run. The busiest decodable sim (13 flows
// at the top arrival rates through the longest window, with mobility
// epochs) takes a few thousand Steps.
const fuzzMaxSteps = 1 << 18

// fuzzBytes reads a fuzz input front to back; an exhausted input reads
// as zeros, so every input decodes to some simulation.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// frac maps the next byte linearly onto [lo, hi].
func (b *fuzzBytes) frac(lo, hi float64) float64 { return lo + (hi-lo)*float64(b.next())/255 }

// runFuzzSim builds the simulation data decodes to, runs it under
// RunChecked, and returns its fingerprint. An 8-byte header sets the
// seed, flow count, ranges, model, window, mobility and late join; seven
// bytes per flow set its kind, placement, load, airtime and churn; the
// bytes after those seed the mobility moves and shape the late joiner, a
// backlogged flow.
func runFuzzSim(t *testing.T, data []byte, rateAware netsim.InterferenceModel) string {
	in := fuzzBytes(data)
	cfg := modem.Profile80211()
	seed := int64(in.next())
	rng := rand.New(rand.NewSource(seed))
	s := netsim.New(mac.Default(cfg), rng)
	env := testbed.Default(cfg)
	s.Env = env
	nFlows := 1 + in.next()%12
	if c := in.next(); c >= 64 {
		s.CSRangeM = 10 + 70*float64(c-64)/191
	}
	if c := in.next(); c >= 128 {
		s.InterferenceRangeM = 30 + 2*float64(c-128)
	}
	switch c := in.next(); c % 3 {
	case 1:
		s.Model = netsim.LegacyThreshold{CaptureDB: float64(c % 16)}
	case 2:
		s.Model = rateAware
	}
	// Arrivals and mobility epochs never end on their own, so only a
	// backlog-only sim may run without a window.
	window := in.frac(0.01, 0.15)
	drainable := window < 0.04
	mobility := 0.0
	if c := in.next(); c >= 128 {
		mobility = 0.002 + 0.02*float64(c-128)/127
		drainable = false
	}
	addAt := 0.0
	if c := in.next(); c >= 170 {
		addAt = 0.001 + 0.03*float64(c-170)/85
	}

	radio := func(tx, rx testbed.Point) *netsim.Radio {
		return &netsim.Radio{TxPos: tx, RxPos: rx, SNRdB: env.MeanSNRdB(testbed.Dist(tx, rx))}
	}
	var queues []*netsim.Traffic
	addFlow := func(kind int, tx, rx testbed.Point, load int, ft float64, churn int) {
		fl := &netsim.Flow{
			Name:      fmt.Sprint(len(s.Flows)),
			Acked:     kind&2 != 0,
			Prepare:   func(rng *rand.Rand) int { return rng.Intn(3) },
			FrameTime: func(r int) float64 { return ft * float64(r+1) },
			Deliver: func(rng *rand.Rand, r int, ix netsim.Interference) bool {
				return rng.Float64() < 0.9*ix.SNRScale && ix.SINRdB > -10
			},
		}
		if kind&1 != 0 {
			fl.Radio = radio(tx, rx)
		}
		var process netsim.ArrivalProcess
		switch (kind >> 2) % 3 {
		case 0:
			remaining := 1 + load%8
			fl.HasTraffic = func() bool { return remaining > 0 }
			fl.Done = func(int, bool, float64) { remaining-- }
		case 1:
			process = netsim.Poisson{RatePps: 50 + 4*float64(load)}
			drainable = false
		default:
			process = &netsim.OnOff{
				RatePps:    100 + 4*float64(load),
				MeanOnSec:  0.002 + float64(churn%8)*0.004,
				MeanOffSec: 0.002 + float64(churn/8%8)*0.003,
			}
			drainable = false
		}
		s.AddFlow(fl)
		if process == nil {
			queues = append(queues, nil)
			return
		}
		tc := netsim.TrafficConfig{Process: process}
		if churn&3 == 0 {
			tc.DeadlineSec = 0.001 + float64(churn>>2)*1e-4
		}
		if churn&12 == 0 {
			tc.StartSec = float64(churn>>4) * 2e-3
		}
		if churn&48 == 0 {
			tc.StopSec = 0.01 + float64(churn>>6)*0.02
		}
		queues = append(queues, s.AttachTraffic(fl, tc))
	}
	for k := 0; k < nFlows; k++ {
		kind := in.next()
		tx := testbed.Point{X: in.frac(0, 150), Y: in.frac(0, 150)}
		off := in.next()
		// Odd offsets in [-15, 15] m: a receiver never sits on its transmitter.
		rx := testbed.Point{X: tx.X + float64(off%16*2-15), Y: tx.Y + float64(off/16*2-15)}
		addFlow(kind, tx, rx, in.next(), in.frac(2e-4, 2e-3), in.next())
	}

	if mobility > 0 {
		// Epochs as lasthop runs them — fresh *Radio values, Wake, Reindex —
		// but a quarter of the moves land a transmitter next to another
		// flow's, so countdowns in flight meet a newly busy neighborhood.
		// Moves draw from their own RNG, never Sim.Rng.
		moveSeed := int64(in.next())
		moves := rand.New(rand.NewSource(moveSeed))
		var epoch func()
		epoch = func() {
			for _, fl := range s.Flows {
				if fl.Radio == nil {
					continue
				}
				tx, rx := fl.Radio.TxPos, fl.Radio.RxPos
				switch moves.Intn(4) {
				case 0:
					if o := s.Flows[moves.Intn(len(s.Flows))].Radio; o != nil {
						tx = testbed.Point{X: o.TxPos.X + moves.Float64()*4 - 2, Y: o.TxPos.Y + moves.Float64()*4 - 2}
					}
				case 1:
					tx.X += moves.Float64()*20 - 10
					tx.Y += moves.Float64()*20 - 10
				default:
					rx.X += moves.Float64()*10 - 5
					rx.Y += moves.Float64()*10 - 5
				}
				fl.Radio = radio(tx, rx)
				s.Wake(fl)
			}
			s.Reindex()
			s.ScheduleAt(s.Now()+mobility, epoch)
		}
		s.ScheduleAt(mobility, epoch)
	}
	if addAt > 0 {
		kind, tx, load, ft := in.next()&3, testbed.Point{X: in.frac(0, 150), Y: in.frac(0, 150)}, in.next(), in.frac(2e-4, 2e-3)
		s.ScheduleAt(addAt, func() { addFlow(kind, tx, testbed.Point{X: tx.X + 3, Y: tx.Y + 4}, load, ft, 0) })
	}

	deadline := window
	if drainable {
		deadline = math.Inf(1)
	}
	n, err := netsim.RunChecked(s, deadline, fuzzMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if n == fuzzMaxSteps {
		t.Fatalf("neither drained nor reached its %.3fs window in %d steps (clock %.6fs)", deadline, n, s.Now())
	}
	return fingerprint("fuzz", s, queues, rng)
}
