package scenario

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/stbc"
)

// validArrivals returns a minimal valid poisson spec tests mutate.
func validArrivals() *Spec {
	return &Spec{
		Version:  1,
		Name:     "t",
		Topology: Topology{Family: FamilyCell, Placements: 2, APs: 2, Clients: 4},
		Traffic:  Traffic{Model: ModelPoisson, PayloadBytes: 1460, RatePps: 100, WindowSec: 1},
	}
}

func TestParseRoundTrip(t *testing.T) {
	// A spec survives marshal -> Parse unchanged: the JSON form is the
	// complete wire representation.
	want := &Spec{
		Version:    1,
		Name:       "roundtrip",
		Title:      "Round trip",
		SeedOffset: 7,
		Topology: Topology{Family: FamilyMulticell, Placements: 3, Cells: 2,
			APs: 2, Clients: 4, CSRangeM: 30, InterferenceRangeM: 100},
		Traffic: Traffic{Model: ModelOnOff, PayloadBytes: 1000, RatePps: 500,
			BurstOnSec: 0.02, BurstOffSec: 0.08, DeadlineSec: 0.05, WindowSec: 2},
		Mobility: &Mobility{EpochSec: 0.25, SpeedMps: 10},
		Churn:    &Churn{JoinStaggerSec: 0.05, LeaveAfterSec: 1},
		Schemes:  []string{"joint"},
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the spec:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseRejectsUnknownFieldByName(t *testing.T) {
	// The classic typo: the error must name the offending field so the
	// submitter knows exactly what to fix.
	_, err := Parse([]byte(`{"version":1,"name":"t",
		"topology":{"family":"cell","placements":2,"aps":2,"clients":4,"cs_rangs":20},
		"traffic":{"model":"backlogged","packets":10,"payload_bytes":1460}}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "cs_rangs") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	const doc = `{"version":1,"name":"t",
		"topology":{"family":"cell","placements":2,"aps":2,"clients":4},
		"traffic":{"model":"backlogged","packets":10,"payload_bytes":1460}}`
	if _, err := Parse([]byte(doc + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{` {"extra":1}`, `}`, ` ]`, `{}`, ` x`} {
		if _, err := Parse([]byte(doc + tail)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("tail %q: trailing data not rejected: %v", tail, err)
		}
	}
}

func TestValidateErrorTable(t *testing.T) {
	// Every rejection names the offending field (or value); the table is
	// the contract for actionable errors.
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"missing version", func(s *Spec) { s.Version = 0 }, `"version"`},
		{"future version", func(s *Spec) { s.Version = 2 }, "unsupported"},
		{"missing name", func(s *Spec) { s.Name = "" }, `"name"`},
		{"uppercase name", func(s *Spec) { s.Name = "Bad Name" }, "lowercase"},
		{"unknown family", func(s *Spec) { s.Topology.Family = "mesh" }, `"topology.family"`},
		{"missing family", func(s *Spec) { s.Topology.Family = "" }, `"topology.family"`},
		{"no placements", func(s *Spec) { s.Topology.Placements = 0 }, `"topology.placements"`},
		{"no aps", func(s *Spec) { s.Topology.APs = 0 }, `"topology.aps"`},
		{"too many aps", func(s *Spec) { s.Topology.APs = 9 }, `"topology.aps"`},
		{"no clients", func(s *Spec) { s.Topology.Clients = 0 }, `"topology.clients"`},
		{"cells without multicell", func(s *Spec) { s.Topology.Cells = 3 }, `"topology.cells"`},
		{"multicell without cells", func(s *Spec) {
			s.Topology.Family = FamilyMulticell
			s.Topology.CSRangeM = 30
		}, `"topology.cells"`},
		{"multicell without cs range", func(s *Spec) {
			s.Topology.Family = FamilyMulticell
			s.Topology.Cells = 2
		}, `"topology.cs_range_m"`},
		// cells × clients wraps an int64 to a negative flow count, which
		// the churn check would otherwise pass.
		{"flows past int32, multicell with churn", func(s *Spec) {
			s.Topology.Family = FamilyMulticell
			s.Topology.Cells = 3037000500
			s.Topology.Clients = 3037000501
			s.Topology.CSRangeM = 30
			s.Churn = &Churn{JoinStaggerSec: 0.05}
		}, `"topology.cells" 3037000500 × "topology.clients" 3037000501`},
		{"flows past int32, one cell", func(s *Spec) { s.Topology.Clients = 1 << 31 },
			`"topology.cells" 1 × "topology.clients" 2147483648`},
		{"unknown model", func(s *Spec) { s.Traffic.Model = "cbr" }, `"traffic.model"`},
		{"missing model", func(s *Spec) { s.Traffic.Model = "" }, `"traffic.model"`},
		{"no payload", func(s *Spec) { s.Traffic.PayloadBytes = 0 }, `"traffic.payload_bytes"`},
		{"poisson without rate", func(s *Spec) { s.Traffic.RatePps = 0 }, `"traffic.rate_pps"`},
		{"poisson with rate and sweep", func(s *Spec) {
			s.Traffic.RateSweepPps = []float64{10}
		}, "exactly one"},
		{"poisson without window", func(s *Spec) { s.Traffic.WindowSec = 0 }, `"traffic.window_sec"`},
		{"poisson with packets", func(s *Spec) { s.Traffic.Packets = 5 }, `"traffic.packets"`},
		{"poisson with burst fields", func(s *Spec) { s.Traffic.BurstOnSec = 0.1 }, "burst"},
		{"negative sweep entry", func(s *Spec) {
			s.Traffic.RatePps = 0
			s.Traffic.RateSweepPps = []float64{10, -1}
		}, `"traffic.rate_sweep_pps"`},
		{"backlogged without size", func(s *Spec) {
			s.Traffic = Traffic{Model: ModelBacklogged, PayloadBytes: 1460}
		}, `"traffic.packets"`},
		{"backlogged with rate", func(s *Spec) {
			s.Traffic = Traffic{Model: ModelBacklogged, PayloadBytes: 1460, Packets: 10, RatePps: 5}
		}, "takes no"},
		{"backlogged multicell", func(s *Spec) {
			s.Topology.Family = FamilyMulticell
			s.Topology.Cells = 2
			s.Topology.CSRangeM = 30
			s.Traffic = Traffic{Model: ModelBacklogged, PayloadBytes: 1460, Packets: 10}
		}, "cellsweep"},
		{"onoff without burst", func(s *Spec) {
			s.Traffic = Traffic{Model: ModelOnOff, PayloadBytes: 1460, RatePps: 100, WindowSec: 1}
		}, `"traffic.burst_on_sec"`},
		{"onoff with sweep", func(s *Spec) {
			s.Traffic = Traffic{Model: ModelOnOff, PayloadBytes: 1460, RatePps: 100,
				BurstOnSec: 0.1, WindowSec: 1, RateSweepPps: []float64{10}}
		}, `"traffic.rate_sweep_pps"`},
		{"mobility without multicell", func(s *Spec) {
			s.Mobility = &Mobility{EpochSec: 0.25, SpeedMps: 10}
		}, `"mobility"`},
		{"mobility zero epoch", func(s *Spec) {
			s.Mobility = &Mobility{SpeedMps: 10}
		}, `"mobility.epoch_sec"`},
		{"mobility zero speed", func(s *Spec) {
			s.Mobility = &Mobility{EpochSec: 0.25}
		}, `"mobility.speed_mps"`},
		{"churn with backlogged", func(s *Spec) {
			s.Traffic = Traffic{Model: ModelBacklogged, PayloadBytes: 1460, Packets: 10}
			s.Churn = &Churn{JoinStaggerSec: 0.1}
		}, `"churn"`},
		{"empty churn", func(s *Spec) { s.Churn = &Churn{} }, `"churn"`},
		{"churn past window", func(s *Spec) {
			s.Churn = &Churn{JoinStaggerSec: 0.5} // 4 clients: last join at 1.5s of a 1s window
		}, "beyond"},
		{"unknown scheme", func(s *Spec) { s.Schemes = []string{"triple"} }, `"schemes"`},
		{"duplicate scheme", func(s *Spec) { s.Schemes = []string{"joint", "joint"} }, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := validArrivals()
			tc.mutate(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidAcceptsEveryModel(t *testing.T) {
	specs := map[string]*Spec{
		"backlogged": {
			Version:  1,
			Name:     "b",
			Topology: Topology{Family: FamilyCell, Placements: 1, APs: 1, Clients: 1},
			Traffic:  Traffic{Model: ModelBacklogged, Packets: 10, PayloadBytes: 1000},
		},
		"poisson": validArrivals(),
		"onoff": {
			Version:  1,
			Name:     "o",
			Topology: Topology{Family: FamilyCell, Placements: 1, APs: 1, Clients: 1},
			Traffic: Traffic{Model: ModelOnOff, PayloadBytes: 1000, RatePps: 100,
				BurstOnSec: 0.1, BurstOffSec: 0.2, WindowSec: 1},
		},
	}
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		if err := specs[name].Validate(); err != nil {
			t.Errorf("%s: valid spec rejected: %v", name, err)
		}
	}
}

func TestBuiltinsParseAndMirrorExamples(t *testing.T) {
	// The registered data-driven scenarios must parse, and the copies
	// under examples/ (what users start from, what CI runs) must be
	// byte-identical to the embedded ones.
	for _, name := range BuiltinNames() {
		sp, raw := Builtin(name)
		if sp.Name != name {
			t.Errorf("builtin %q declares name %q", name, sp.Name)
		}
		example, err := os.ReadFile(filepath.Join("..", "..", "examples", name+".json"))
		if err != nil {
			t.Fatalf("builtin %q has no examples/ mirror: %v", name, err)
		}
		if string(example) != string(raw) {
			t.Errorf("examples/%s.json differs from the embedded builtin; copy one over the other", name)
		}
	}
}

func TestMaxAPsMatchesJointCodes(t *testing.T) {
	// topology.aps is capped where the joint transmission codes end: every
	// AP count a spec accepts must have a code, and the first one it
	// rejects must not.
	if _, err := stbc.ForSenders(maxAPs); err != nil {
		t.Fatalf("the cap admits %d APs, but the joint codes stop short: %v", maxAPs, err)
	}
	if _, err := stbc.ForSenders(maxAPs + 1); err == nil {
		t.Fatalf("the joint codes cover %d senders; raise the cap to match", maxAPs+1)
	}
}

func TestSchemeListDefaultsAndOrders(t *testing.T) {
	sp := validArrivals()
	if got := sp.SchemeList(); !reflect.DeepEqual(got, []string{SchemeSingle, SchemeJoint}) {
		t.Fatalf("default scheme list %v", got)
	}
	sp.Schemes = []string{SchemeJoint, SchemeSingle}
	if got := sp.SchemeList(); !reflect.DeepEqual(got, []string{SchemeSingle, SchemeJoint}) {
		t.Fatalf("scheme list not canonicalized: %v", got)
	}
	sp.Schemes = []string{SchemeJoint}
	if got := sp.SchemeList(); !reflect.DeepEqual(got, []string{SchemeJoint}) {
		t.Fatalf("single-scheme list mangled: %v", got)
	}
}
