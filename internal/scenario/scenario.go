// Package scenario defines the declarative scenario spec: a versioned
// JSON document describing a topology family, a traffic model, optional
// mobility and churn, and the scheme set to compare — everything a
// simulation run needs, as data instead of per-experiment Go code
// (ROADMAP item 4).
//
// Specs are strict: decoding rejects unknown fields (so a typo like
// "cs_rangs" fails loudly, naming the field), requires an explicit
// "version", and validation errors name the offending field with the
// accepted values. The executor for a parsed spec lives in the root
// package (RunScenario); the renderer in internal/experiments. This
// package stays pure data so ssserve can validate an inline spec at
// submit time without pulling in the simulator.
package scenario

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Version is the spec schema version this package decodes.
const Version = 1

// Spec is one declarative scenario. The JSON form is the wire format
// accepted by `ssbench -scenario` and ssserve's inline "scenario" jobs;
// see examples/*.json for complete documents.
type Spec struct {
	// Version is the spec schema version; must be exactly 1.
	Version int `json:"version"`
	// Name identifies the scenario (lowercase, no spaces). Registered
	// builtin scenarios use their experiment name here.
	Name string `json:"name"`
	// Title overrides the rendered header; empty derives one from Name.
	Title string `json:"title,omitempty"`
	// SeedOffset is added to Params.Seed, mirroring how every registered
	// experiment derives its own seed stream from the base seed.
	SeedOffset int64 `json:"seed_offset,omitempty"`
	// Topology picks the floor layout family and its dimensions.
	Topology Topology `json:"topology"`
	// Traffic picks the per-client arrival model.
	Traffic Traffic `json:"traffic"`
	// Mobility, when present, drifts every client between waypoint epochs.
	Mobility *Mobility `json:"mobility,omitempty"`
	// Churn, when present, staggers client joins and schedules leaves.
	Churn *Churn `json:"churn,omitempty"`
	// Schemes lists the serving schemes to run ("single", "joint");
	// empty runs both.
	Schemes []string `json:"schemes,omitempty"`
}

// Topology describes the floor layout.
type Topology struct {
	// Family is "cell" (one collision domain, APs spread over one floor)
	// or "multicell" (Cells cells in a row, carrier sense splitting them
	// into neighborhoods).
	Family string `json:"family"`
	// Placements is the number of random placements averaged over.
	Placements int `json:"placements"`
	// Cells is the number of cells for the multicell family.
	Cells int `json:"cells,omitempty"`
	// APs is the number of APs per cell, at most 8: a cell's APs transmit
	// jointly, and the joint codes cover at most 8 senders.
	APs int `json:"aps"`
	// Clients is the number of clients per cell.
	Clients int `json:"clients"`
	// CSRangeM is the carrier-sense range in meters; required for
	// multicell (it is what makes cells distinct neighborhoods).
	CSRangeM float64 `json:"cs_range_m,omitempty"`
	// InterferenceRangeM bounds the per-frame interference scan; 0 scans
	// every concurrent transmission (exact, fine at these sizes).
	InterferenceRangeM float64 `json:"interference_range_m,omitempty"`
}

// Traffic describes the per-client arrival model.
type Traffic struct {
	// Model is "backlogged" (classic saturation), "poisson" (memoryless
	// arrivals), or "onoff" (bursty arrivals).
	Model string `json:"model"`
	// Packets is the per-client backlog for the backlogged model.
	Packets int `json:"packets,omitempty"`
	// PayloadBytes is the downlink payload size.
	PayloadBytes int `json:"payload_bytes"`
	// RatePps is the per-client arrival rate (poisson: mean rate; onoff:
	// rate while a burst is on).
	RatePps float64 `json:"rate_pps,omitempty"`
	// RateSweepPps sweeps the per-client poisson rate over these values,
	// one table row each (poisson only, exclusive with RatePps).
	RateSweepPps []float64 `json:"rate_sweep_pps,omitempty"`
	// BurstOnSec / BurstOffSec are the onoff model's mean burst and
	// silence durations.
	BurstOnSec  float64 `json:"burst_on_sec,omitempty"`
	BurstOffSec float64 `json:"burst_off_sec,omitempty"`
	// DeadlineSec expires a queued packet whose wait exceeds it before
	// service starts; 0 means no deadline.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// WindowSec is the run's virtual-time window; required for arrival
	// models, optional for backlogged (fixed-window saturation mode).
	WindowSec float64 `json:"window_sec,omitempty"`
}

// Mobility drifts every client along +X by SpeedMps·EpochSec at each
// epoch boundary, re-deriving its serving cell, links, and the spatial
// index deterministically.
type Mobility struct {
	EpochSec float64 `json:"epoch_sec"`
	SpeedMps float64 `json:"speed_mps"`
}

// Churn staggers client lifetimes inside the run window.
type Churn struct {
	// JoinStaggerSec delays client i's join to i·JoinStaggerSec.
	JoinStaggerSec float64 `json:"join_stagger_sec,omitempty"`
	// LeaveAfterSec makes each client leave that long after joining,
	// abandoning its queue; 0 stays to the end.
	LeaveAfterSec float64 `json:"leave_after_sec,omitempty"`
}

// Topology families and traffic models accepted by Validate.
const (
	FamilyCell      = "cell"
	FamilyMulticell = "multicell"

	ModelBacklogged = "backlogged"
	ModelPoisson    = "poisson"
	ModelOnOff      = "onoff"

	SchemeSingle = "single"
	SchemeJoint  = "joint"
)

// maxAPs caps topology.aps: a cell's APs serve its clients jointly, and
// the simulator's space-time block codes (internal/stbc) cover 1 to 8
// senders. A test pins it to that package; this one stays free of
// simulator imports.
const maxAPs = 8

// Parse strictly decodes one spec document: unknown fields, trailing
// data, a missing or unsupported version, and invalid field values are
// all errors that name what is wrong.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario spec: %w", err)
	}
	// Anything but whitespace after the document is trailing data. dec.More
	// would miss a stray '}' or ']', which it reads as the end of an
	// enclosing value.
	if len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		return nil, fmt.Errorf("scenario spec: trailing data after the JSON document")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate reports the first invalid field, naming it and the accepted
// values, so a rejected submit tells the caller exactly what to fix.
func (sp *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario spec: "+format, args...)
	}
	if sp.Version == 0 {
		return bad(`missing "version" (this decoder accepts version %d)`, Version)
	}
	if sp.Version != Version {
		return bad(`"version" %d unsupported (this decoder accepts version %d)`, sp.Version, Version)
	}
	if sp.Name == "" {
		return bad(`missing "name"`)
	}
	if strings.ToLower(sp.Name) != sp.Name || strings.ContainsAny(sp.Name, " \t\n") {
		return bad(`"name" %q must be lowercase with no spaces`, sp.Name)
	}
	if err := sp.Topology.validate(); err != nil {
		return err
	}
	if err := sp.Traffic.validate(); err != nil {
		return err
	}
	if sp.Traffic.Model == ModelBacklogged && sp.Topology.Family != FamilyCell {
		return bad(`"traffic.model" %q requires the %q topology family (multicell saturation is the cellsweep experiment)`,
			ModelBacklogged, FamilyCell)
	}
	if sp.Mobility != nil {
		if sp.Mobility.EpochSec <= 0 {
			return bad(`"mobility.epoch_sec" must be > 0`)
		}
		if sp.Mobility.SpeedMps <= 0 {
			return bad(`"mobility.speed_mps" must be > 0 (clients drift along +X)`)
		}
		if sp.Topology.Family != FamilyMulticell {
			return bad(`"mobility" requires the %q topology family (cells to drift between)`, FamilyMulticell)
		}
		if sp.Traffic.WindowSec <= 0 {
			return bad(`"mobility" requires "traffic.window_sec" > 0 (epochs need a run window)`)
		}
		if len(sp.Traffic.RateSweepPps) > 0 {
			return bad(`"mobility" cannot be combined with "traffic.rate_sweep_pps" (one table at a time)`)
		}
	}
	if sp.Churn != nil {
		if sp.Traffic.Model == ModelBacklogged {
			return bad(`"churn" requires an arrival traffic model (%q or %q), not %q`,
				ModelPoisson, ModelOnOff, ModelBacklogged)
		}
		if sp.Churn.JoinStaggerSec < 0 || sp.Churn.LeaveAfterSec < 0 {
			return bad(`"churn" times must be >= 0`)
		}
		if sp.Churn.JoinStaggerSec == 0 && sp.Churn.LeaveAfterSec == 0 {
			return bad(`"churn" present but empty: set "join_stagger_sec" and/or "leave_after_sec"`)
		}
		n := sp.Topology.totalClients()
		if last := sp.Churn.JoinStaggerSec * float64(n-1); last >= sp.Traffic.WindowSec {
			return bad(`"churn.join_stagger_sec" %g puts the last of %d clients' join at %gs, beyond the %gs window`,
				sp.Churn.JoinStaggerSec, n, last, sp.Traffic.WindowSec)
		}
	}
	seen := map[string]bool{}
	for _, s := range sp.Schemes {
		if s != SchemeSingle && s != SchemeJoint {
			return bad(`"schemes" entry %q unknown (valid: %q, %q)`, s, SchemeSingle, SchemeJoint)
		}
		if seen[s] {
			return bad(`"schemes" lists %q twice`, s)
		}
		seen[s] = true
	}
	if sp.Traffic.Model == ModelBacklogged && len(sp.Schemes) == 1 {
		return bad(`backlogged scenarios always compare both schemes; drop "schemes" or list both`)
	}
	return nil
}

func (t *Topology) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario spec: "+format, args...)
	}
	switch t.Family {
	case FamilyCell:
		if t.Cells > 1 {
			return bad(`"topology.cells" %d needs the %q family`, t.Cells, FamilyMulticell)
		}
	case FamilyMulticell:
		if t.Cells < 2 {
			return bad(`"topology.family" %q requires "topology.cells" >= 2`, FamilyMulticell)
		}
		if t.CSRangeM <= 0 {
			return bad(`"topology.family" %q requires "topology.cs_range_m" > 0 (carrier sense is what separates the cells)`, FamilyMulticell)
		}
	case "":
		return bad(`missing "topology.family" (valid: %q, %q)`, FamilyCell, FamilyMulticell)
	default:
		return bad(`"topology.family" %q unknown (valid: %q, %q)`, t.Family, FamilyCell, FamilyMulticell)
	}
	if t.Placements < 1 {
		return bad(`"topology.placements" must be >= 1`)
	}
	if t.APs < 1 || t.APs > maxAPs {
		return bad(`"topology.aps" %d must be between 1 and %d (joint transmission codes cover at most %d senders)`,
			t.APs, maxAPs, maxAPs)
	}
	if t.Clients < 1 {
		return bad(`"topology.clients" must be >= 1`)
	}
	// netsim indexes flows with int32 (Flow.idx, startPos, grid ids). The
	// check divides, so it cannot overflow as totalClients' product can.
	if cells := max(t.Cells, 1); t.Clients > math.MaxInt32/cells {
		return bad(`"topology.cells" %d × "topology.clients" %d exceeds %d flows, the most netsim indexes`, cells, t.Clients, math.MaxInt32)
	}
	if t.CSRangeM < 0 {
		return bad(`"topology.cs_range_m" must be >= 0`)
	}
	if t.InterferenceRangeM < 0 {
		return bad(`"topology.interference_range_m" must be >= 0`)
	}
	return nil
}

func (tr *Traffic) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario spec: "+format, args...)
	}
	if tr.PayloadBytes < 1 {
		return bad(`"traffic.payload_bytes" must be >= 1`)
	}
	if tr.WindowSec < 0 || tr.DeadlineSec < 0 || tr.RatePps < 0 ||
		tr.BurstOnSec < 0 || tr.BurstOffSec < 0 {
		return bad(`"traffic" durations and rates must be >= 0`)
	}
	for _, v := range tr.RateSweepPps {
		if v <= 0 {
			return bad(`"traffic.rate_sweep_pps" entries must be > 0`)
		}
	}
	switch tr.Model {
	case ModelBacklogged:
		if tr.Packets < 1 && tr.WindowSec == 0 {
			return bad(`"traffic.model" %q requires "traffic.packets" >= 1 or "traffic.window_sec" > 0`, ModelBacklogged)
		}
		if tr.RatePps != 0 || len(tr.RateSweepPps) != 0 || tr.BurstOnSec != 0 ||
			tr.BurstOffSec != 0 || tr.DeadlineSec != 0 {
			return bad(`"traffic.model" %q takes no arrival-rate, burst, or deadline fields`, ModelBacklogged)
		}
	case ModelPoisson:
		if (tr.RatePps > 0) == (len(tr.RateSweepPps) > 0) {
			return bad(`"traffic.model" %q requires exactly one of "traffic.rate_pps" or "traffic.rate_sweep_pps"`, ModelPoisson)
		}
		if tr.BurstOnSec != 0 || tr.BurstOffSec != 0 {
			return bad(`"traffic" burst fields need the %q model`, ModelOnOff)
		}
		if tr.WindowSec <= 0 {
			return bad(`"traffic.model" %q requires "traffic.window_sec" > 0`, ModelPoisson)
		}
		if tr.Packets != 0 {
			return bad(`"traffic.packets" is a %q-model field`, ModelBacklogged)
		}
	case ModelOnOff:
		if tr.RatePps <= 0 {
			return bad(`"traffic.model" %q requires "traffic.rate_pps" > 0 (the in-burst rate)`, ModelOnOff)
		}
		if len(tr.RateSweepPps) != 0 {
			return bad(`"traffic.rate_sweep_pps" is only supported for the %q model`, ModelPoisson)
		}
		if tr.BurstOnSec <= 0 {
			return bad(`"traffic.model" %q requires "traffic.burst_on_sec" > 0`, ModelOnOff)
		}
		if tr.WindowSec <= 0 {
			return bad(`"traffic.model" %q requires "traffic.window_sec" > 0`, ModelOnOff)
		}
		if tr.Packets != 0 {
			return bad(`"traffic.packets" is a %q-model field`, ModelBacklogged)
		}
	case "":
		return bad(`missing "traffic.model" (valid: %q, %q, %q)`, ModelBacklogged, ModelPoisson, ModelOnOff)
	default:
		return bad(`"traffic.model" %q unknown (valid: %q, %q, %q)`, tr.Model, ModelBacklogged, ModelPoisson, ModelOnOff)
	}
	return nil
}

// totalClients is the number of client flows the spec instantiates.
func (t *Topology) totalClients() int {
	cells := t.Cells
	if cells < 1 {
		cells = 1
	}
	return cells * t.Clients
}

// SchemeList returns the schemes to run in canonical order (single before
// joint), defaulting to both when the spec names none.
func (sp *Spec) SchemeList() []string {
	if len(sp.Schemes) == 0 {
		return []string{SchemeSingle, SchemeJoint}
	}
	out := append([]string(nil), sp.Schemes...)
	sort.Slice(out, func(i, j int) bool { return out[i] == SchemeSingle && out[j] == SchemeJoint })
	return out
}

// DisplayTitle is the rendered header: Title, or one derived from Name.
func (sp *Spec) DisplayTitle() string {
	if sp.Title != "" {
		return sp.Title
	}
	return fmt.Sprintf("Scenario %s", sp.Name)
}

//go:embed builtin/cell.json builtin/arrivals.json builtin/mobility.json
var builtinFS embed.FS

// BuiltinNames lists the registered data-driven scenarios, in experiment
// registration order.
func BuiltinNames() []string { return []string{"cell", "arrivals", "mobility"} }

// Builtin returns the named registered scenario, parsed and validated,
// plus its raw JSON document (the bytes mirrored under examples/). It
// panics on an unknown name or an invalid embedded spec — both are
// programming errors caught by the package tests.
func Builtin(name string) (*Spec, []byte) {
	raw, err := builtinFS.ReadFile("builtin/" + name + ".json")
	if err != nil {
		panic(fmt.Sprintf("scenario: no builtin %q: %v", name, err))
	}
	sp, err := Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("scenario: builtin %q: %v", name, err))
	}
	return sp, raw
}
