package sourcesync

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// TestMobilityHandoffsAreSchemeIndependent holds the premise behind the
// mobility table's handoff rate, which counts one scheme's handoffs per
// trial: the drift trajectory does not depend on the serving scheme, so
// each trial's single and joint runs make the same serving-cell changes.
// It runs the full-size mobility builtin at seeds 1-4 as ssbench seeds it
// (base seed plus the spec's offset).
func TestMobilityHandoffsAreSchemeIndependent(t *testing.T) {
	sp, _ := scenario.Builtin("mobility")
	schemes := sp.SchemeList()
	if len(schemes) != 2 {
		t.Fatalf("mobility builtin runs schemes %v, want single and joint", schemes)
	}
	for seed := int64(1); seed <= 4; seed++ {
		ec := engine.Config{Seed: seed + sp.SeedOffset}
		total := 0
		for pl, tr := range scenarioTrials(ec, sp, []float64{sp.Traffic.RatePps})[0] {
			if tr[0].handoffs != tr[1].handoffs {
				t.Errorf("seed %d placement %d: %s run made %d handoffs, %s run %d",
					seed, pl, schemes[0], tr[0].handoffs, schemes[1], tr[1].handoffs)
			}
			total += tr[0].handoffs
		}
		if total == 0 {
			t.Errorf("seed %d: no placement made a handoff, so the comparison shows nothing", seed)
		}
	}
}
