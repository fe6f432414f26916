package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioCellMatchesCellExperiment is the faithfulness contract for
// the declarative spec path: examples/cell.json run through the generic
// "scenario" experiment must reproduce the registered "cell" experiment
// (the embedded builtin copy of the same spec) byte for byte.
func TestScenarioCellMatchesCellExperiment(t *testing.T) {
	sp := readCellSpec(t)
	p := Params{Seed: 1, Quick: true, Workers: 2}
	var direct bytes.Buffer
	if err := Run(&direct, "cell", p); err != nil {
		t.Fatal(err)
	}
	p.Scenario = sp
	var viaSpec bytes.Buffer
	if err := Run(&viaSpec, "scenario", p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
		t.Fatalf("scenario spec diverged from the cell experiment\n--- cell ---\n%s--- scenario ---\n%s",
			direct.String(), viaSpec.String())
	}
}

// readCellSpec parses examples/cell.json, the cell experiment's spec.
func readCellSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "cell.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("examples/cell.json does not parse: %v", err)
	}
	return sp
}

// TestScenarioWindowOverridesBackloggedSpec: -window (Options.WindowSec)
// drives a backlogged spec the way it drives the cell experiment, so the
// spec run with a window still reproduces `ssbench -window SEC cell`.
func TestScenarioWindowOverridesBackloggedSpec(t *testing.T) {
	p := Params{Seed: 1, Quick: true, Workers: 2, Options: Options{WindowSec: 0.05}}
	var direct bytes.Buffer
	if err := Run(&direct, "cell", p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(direct.Bytes(), []byte("window=0.05s")) {
		t.Fatalf("cell ignored the window:\n%s", direct.String())
	}
	p.Scenario = readCellSpec(t)
	var viaSpec bytes.Buffer
	if err := Run(&viaSpec, "scenario", p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaSpec.Bytes()) {
		t.Fatalf("windowed spec diverged from the windowed cell experiment\n--- cell ---\n%s--- scenario ---\n%s",
			direct.String(), viaSpec.String())
	}
}

// TestBackloggedSpecHonorsCSRange: a backlogged spec's carrier-sense range
// reaches the simulator (spatial reuse inside the cell), as it does for
// arrival-driven specs.
func TestBackloggedSpecHonorsCSRange(t *testing.T) {
	render := func(sp *scenario.Spec) string {
		var b bytes.Buffer
		if err := Run(&b, "scenario", Params{Seed: 1, Quick: true, Workers: 2, Scenario: sp}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	sp := readCellSpec(t)
	whole := render(sp)
	sp.Topology.CSRangeM = 20
	if split := render(sp); split == whole {
		t.Fatalf("cs_range_m 20 left the backlogged cell unchanged:\n%s", split)
	}
}

// TestScenarioRequiresSpec pins the error for the generic experiment
// invoked without a spec (e.g. ssserve without an inline scenario).
func TestScenarioRequiresSpec(t *testing.T) {
	err := Run(&bytes.Buffer{}, "scenario", Params{Seed: 1, Quick: true})
	if err == nil {
		t.Fatal("scenario experiment ran without a spec")
	}
}
