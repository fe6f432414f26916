package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// CheckMemos verifies the geometry memos against fresh rebuilds: every
// flow whose nbList or ixCands stamp (topology generation plus the Radio
// it was built against) says fresh must hold exactly what its builder
// would produce now — the same flow ids in the same order, the same
// carrier-sense bits, and bit-identical prices, the serving power built
// beside ixCands (sigPow) included. A stale entry means a
// missed generation bump or an in-place Radio mutation. The rebuilds run
// into fresh slices and the cached entries are restored afterwards, so the
// check consumes no randomness and leaves the run's behavior untouched.
//
// Flows registered since the last Step (AddFlow from a timer callback)
// are indexed, and every memo invalidated, at the top of the next Step;
// until then the memos knowingly predate them, so the check waits.
func CheckMemos(s *Sim) error {
	if s.indexed != len(s.Flows) {
		return nil
	}
	for _, f := range s.Flows {
		i := f.idx
		if f.Radio != nil && s.nbGen[i] == s.topoGen && s.nbRadio[i] == f.Radio {
			cached := s.nbList[i]
			s.nbList[i], s.nbRadio[i] = nil, nil
			fresh := s.nearby(f)
			s.nbList[i] = cached
			if !slices.Equal(cached, fresh) {
				return fmt.Errorf("flow %d (%s): stale nbList %v, rebuild %v", i, f.Name, cached, fresh)
			}
		}
		if s.ixGen[i] == s.topoGen && s.ixRadio[i] == f.Radio {
			cached, cachedPow := s.ixCands[i], s.sigPow[i]
			s.ixCands[i] = nil
			fresh := s.buildIxCands(f)
			freshPow := s.sigPow[i]
			s.ixCands[i], s.sigPow[i] = cached, cachedPow
			if err := candsEqual(cached, fresh); err != nil {
				return fmt.Errorf("flow %d (%s): stale ixCands: %v", i, f.Name, err)
			}
			if math.Float64bits(cachedPow) != math.Float64bits(freshPow) {
				return fmt.Errorf("flow %d (%s): stale sigPow %x, rebuild %x", i, f.Name, cachedPow, freshPow)
			}
		}
	}
	return nil
}

// candsEqual compares two candidate lists entry by entry, prices by bits.
func candsEqual(cached, fresh []ixCand) error {
	if len(cached) != len(fresh) {
		return fmt.Errorf("%d candidates cached, %d on rebuild", len(cached), len(fresh))
	}
	for k, c := range cached {
		g := fresh[k]
		if c.fi != g.fi || c.inCS != g.inCS || math.Float64bits(c.pow) != math.Float64bits(g.pow) {
			return fmt.Errorf("entry %d cached {fi:%d inCS:%t pow:%x}, rebuild {fi:%d inCS:%t pow:%x}",
				k, c.fi, c.inCS, c.pow, g.fi, g.inCS, g.pow)
		}
	}
	return nil
}

// CheckEvents verifies the event heap against the per-flow state: the
// 4-ary heap order holds; every start entry sits at the slot its flow
// records and is keyed at that flow's countdown expiry; a flow holds
// exactly one start entry while it is in flight, waiting and off the air,
// and none otherwise; every flow on the air has exactly one entry for
// its transmission — the air end before the frame settles, the occupancy
// end after; each flow's air-end mark (lastAirEnd), which lets a settle
// skip the flow unread, equals its live transmission's air end and bounds
// the air end of every past interval it keeps; and a flow sits on the
// admission queue exactly once while its fQueued bit is set, and never
// otherwise. It only reads, so it leaves the run's behavior untouched.
func CheckEvents(s *Sim) error {
	h := s.events
	starts := make([]int, len(s.Flows))
	txEntries := make([]int, len(s.Flows))
	queued := make([]int, len(s.Flows))
	for _, i := range s.admitQ {
		queued[i]++
	}
	for k, e := range h {
		if k > 0 && eventLess(e, h[(k-1)/4]) {
			return fmt.Errorf("heap order: slot %d (t=%v kind=%d seq=%d) precedes its parent", k, e.t, e.kind, e.seq)
		}
		switch e.kind {
		case evStart:
			i := int32(e.seq)
			starts[i]++
			if s.startPos[i] != int32(k+1) {
				return fmt.Errorf("flow %d: start entry at slot %d, flow records slot+1 = %d", i, k, s.startPos[i])
			}
			if _, st := s.startTime(i); e.t != st {
				return fmt.Errorf("flow %d: start entry at t=%v, countdown expires at t=%v", i, e.t, st)
			}
		case evAirEnd, evOccEnd:
			i := e.r.f.idx
			txEntries[i]++
			if s.curTx[i] != e.r {
				return fmt.Errorf("flow %d: kind-%d entry for a transmission that is not on the air", i, e.kind)
			}
			if settled := e.kind == evOccEnd; e.r.resolved != settled {
				return fmt.Errorf("flow %d: kind-%d entry, frame resolved=%t", i, e.kind, e.r.resolved)
			}
		}
	}
	for i, f := range s.Flows {
		fl := s.flags[i]
		onAir := s.curTx[i] != nil
		if fl&fWaiting != 0 && (fl&(fInFlight|fCounterValid) != fInFlight|fCounterValid || onAir) {
			return fmt.Errorf("flow %d (%s): waiting with flags %04b, on air %t", i, f.Name, fl, onAir)
		}
		want := 0
		if fl&fWaiting != 0 {
			want = 1
		}
		if starts[i] != want || (want == 0 && s.startPos[i] != 0) {
			return fmt.Errorf("flow %d (%s): %d start entries (slot+1 %d) with flags %04b", i, f.Name, starts[i], s.startPos[i], fl)
		}
		want = 0
		if fl&fQueued != 0 {
			want = 1
		}
		if queued[i] != want {
			return fmt.Errorf("flow %d (%s): %d admission-queue entries with flags %04b", i, f.Name, queued[i], fl)
		}
		if onAir && txEntries[i] != 1 {
			return fmt.Errorf("flow %d (%s): on the air with %d transmission entries", i, f.Name, txEntries[i])
		}
		mark := s.lastAirEnd[i]
		if onAir && mark != s.curTx[i].airEnd {
			return fmt.Errorf("flow %d (%s): air-end mark %v, live frame leaves the air at %v", i, f.Name, mark, s.curTx[i].airEnd)
		}
		for _, p := range s.flowPast[i] {
			if p.airEnd > mark {
				return fmt.Errorf("flow %d (%s): past interval ends at %v, after the air-end mark %v", i, f.Name, p.airEnd, mark)
			}
		}
	}
	return nil
}

// RunChecked is RunUntil under the invariant checks: it steps s until the
// clock reaches deadline, every flow drains, or limit Steps have run, and
// runs CheckMemos and then CheckEvents after every Step. It returns the
// number of Steps that ran and the first violation, tagged with its step
// and clock.
func RunChecked(s *Sim, deadline float64, limit int) (int, error) {
	for n := 0; n < limit; n++ {
		if s.now >= deadline {
			return n, nil
		}
		ran := s.Step()
		for _, check := range [...]func(*Sim) error{CheckMemos, CheckEvents} {
			if err := check(s); err != nil {
				return n, fmt.Errorf("step %d (t=%.6fs): %v", n+1, s.now, err)
			}
		}
		if !ran {
			return n, nil
		}
	}
	return limit, nil
}

// runChecked is the tests' RunUntil: RunChecked under the scheduler's own
// step cap, failing tb at the first violation.
func runChecked(tb testing.TB, s *Sim, deadline float64) {
	tb.Helper()
	if n, err := RunChecked(s, deadline, maxSteps); err != nil {
		tb.Fatal(err)
	} else if n == maxSteps {
		tb.Fatalf("still running after %d steps", n)
	}
}

// stepChecked is the tests' Step: one Step under RunChecked, reporting
// whether it ran and failing tb at a violation.
func stepChecked(tb testing.TB, s *Sim) bool {
	tb.Helper()
	n, err := RunChecked(s, math.Inf(1), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return n == 1
}
