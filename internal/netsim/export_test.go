package netsim

import (
	"fmt"
	"math"
	"slices"
)

// CheckMemos verifies the geometry memos against fresh rebuilds: every
// flow whose nbList, ixCands or sigPow stamp (topology generation plus the
// Radio it was built against) says fresh must hold exactly what its
// builder would produce now — the same flow ids in the same order, the
// same carrier-sense bits, and bit-identical prices. A stale entry means a
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
			cached := s.ixCands[i]
			s.ixCands[i] = nil
			fresh := s.buildIxCands(f)
			s.ixCands[i] = cached
			if err := candsEqual(cached, fresh); err != nil {
				return fmt.Errorf("flow %d (%s): stale ixCands: %v", i, f.Name, err)
			}
		}
		if f.Radio != nil && s.sigGen[i] == s.topoGen && s.sigRadio[i] == f.Radio {
			cached := s.sigPow[i]
			s.sigRadio[i] = nil
			fresh := s.servingPow(f)
			s.sigPow[i] = cached
			if math.Float64bits(cached) != math.Float64bits(fresh) {
				return fmt.Errorf("flow %d (%s): stale sigPow %x, rebuild %x", i, f.Name, cached, fresh)
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
