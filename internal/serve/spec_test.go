package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// validScenarioJSON is examples/arrivals.json shrunk to one rate, small
// enough for unit tests that never run it.
const validScenarioJSON = `{
	"version": 1, "name": "t", "seed_offset": 18,
	"topology": {"family": "cell", "placements": 2, "aps": 2, "clients": 4},
	"traffic": {"model": "poisson", "payload_bytes": 1460, "rate_pps": 100, "window_sec": 0.5}
}`

// TestNormalizeRejectionTable drives every normalize() rejection path and
// pins that each error names what is wrong — these surface to clients as
// the body of a 400.
func TestNormalizeRejectionTable(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"future version", Spec{Version: "v3", Experiment: "fig12"}, "v3"},
		{"retired version", Spec{Version: "v1", Experiment: "fig12"}, "v1"},
		{"garbage version", Spec{Version: "latest", Experiment: "fig12"}, "version"},
		{"missing experiment", Spec{}, "missing an experiment"},
		{"unknown experiment", Spec{Experiment: "nope"}, `"nope"`},
		{"negative workers", Spec{Experiment: "fig12", Workers: -1}, "workers"},
		{"negative timeout", Spec{Experiment: "fig12", TimeoutSec: -2}, "timeout_sec"},
		{"bad option value", Spec{Experiment: "cellsweep",
			Options: &experiments.Options{Cells: []int{0}}}, "cell count"},
		{"bad carrier-sense range", Spec{Experiment: "cellsweep",
			Options: &experiments.Options{CSRanges: []float64{-1}}}, "carrier-sense"},
		{"scenario without spec", Spec{Experiment: "scenario"}, "requires an inline"},
		{"scenario on other experiment", Spec{Experiment: "fig12",
			Scenario: json.RawMessage(validScenarioJSON)}, `only accepted with experiment "scenario"`},
		{"scenario with typo field", Spec{Experiment: "scenario",
			Scenario: json.RawMessage(`{"version":1,"name":"t",
				"topology":{"family":"cell","placements":2,"aps":2,"clients":4,"cs_rangs":20},
				"traffic":{"model":"poisson","payload_bytes":1460,"rate_pps":100,"window_sec":0.5}}`)},
			"cs_rangs"},
		{"scenario failing validation", Spec{Experiment: "scenario",
			Scenario: json.RawMessage(`{"version":1,"name":"t",
				"topology":{"family":"cell","placements":2,"aps":2,"clients":4},
				"traffic":{"model":"poisson","payload_bytes":1460,"window_sec":0.5}}`)},
			"rate_pps"},
		{"over the work cap", Spec{Experiment: "cellsweep",
			Options: &experiments.Options{Cells: []int{1000000}}}, "options.cells"},
		{"window over the work cap", Spec{Experiment: "metro",
			Options: &experiments.Options{WindowSec: 1e6}}, "options.window_sec"},
		{"scenario over the work cap", Spec{Experiment: "scenario",
			Scenario: json.RawMessage(strings.Replace(validScenarioJSON, `"placements": 2`, `"placements": 1000000000`, 1))},
			"scenario.topology.placements"},
		// cells × clients is past int64's range: a wrapped product would
		// read as negative work and pass. The spec's own flow-count check
		// rejects it before the work estimate.
		{"work past int64", Spec{Experiment: "scenario",
			Scenario: json.RawMessage(`{"version":1,"name":"t",
				"topology":{"family":"multicell","cells":3037000500,"placements":1,"aps":1,"clients":3037000501,"cs_range_m":30},
				"traffic":{"model":"poisson","payload_bytes":1,"rate_pps":1,"window_sec":1}}`)},
			`"topology.clients"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.normalize()
			if err == nil {
				t.Fatal("bad spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestWorkCapAdmitsEveryDefault holds the work cap above every registered
// experiment and "all" at full size with default options, and above every
// examples/*.json spec submitted inline at full size.
func TestWorkCapAdmitsEveryDefault(t *testing.T) {
	for _, name := range append(experiments.Names(), "all") {
		if _, err := (Spec{Experiment: name}).normalize(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	specs, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs found (%v)", err)
	}
	for _, path := range specs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Spec{Experiment: "scenario", Scenario: raw}).normalize(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestScenarioKeyIsWhitespaceBlind pins that re-submitting the same
// scenario with different formatting hits the same cache entry, while a
// semantically different scenario does not.
func TestScenarioKeyIsWhitespaceBlind(t *testing.T) {
	a, err := Spec{Experiment: "scenario", Scenario: json.RawMessage(validScenarioJSON)}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(validScenarioJSON)); err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Experiment: "scenario", Scenario: compact.Bytes()}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("formatting reached the cache key:\n %s\n %s", a.Key(), b.Key())
	}
	other := strings.Replace(validScenarioJSON, `"rate_pps": 100`, `"rate_pps": 200`, 1)
	c, err := Spec{Experiment: "scenario", Scenario: json.RawMessage(other)}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("different scenarios share a cache key")
	}
}

// TestSubmitHTTPRejectionsAre400 exercises the rejection paths through
// the real handler: each bad body must produce a 400 whose JSON error
// names the offending field.
func TestSubmitHTTPRejectionsAre400(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cases := []struct {
		name    string
		body    string
		wantSub string
	}{
		{"unknown spec field", `{"experiment":"fig12","cs_rangs":[20]}`, "cs_rangs"},
		{"future version", `{"version":"v3","experiment":"fig12"}`, "v3"},
		{"retired version", `{"version":"v1","experiment":"fig12"}`, "v1"},
		// The v1 flat option aliases and options.legacy were removed in
		// v2; each is now an unknown field, rejected by name.
		{"removed alias cells", `{"experiment":"cellsweep","options":{"cells":[2]},"cells":[3]}`, `"cells"`},
		{"removed alias cs_ranges", `{"experiment":"cellsweep","cs_ranges":[25]}`, `"cs_ranges"`},
		{"removed alias window_sec", `{"experiment":"cell","window_sec":1.5}`, `"window_sec"`},
		{"removed alias legacy", `{"experiment":"cell","legacy":true}`, `"legacy"`},
		{"removed option legacy", `{"experiment":"cell","options":{"legacy":true}}`, `"legacy"`},
		{"scenario typo", `{"experiment":"scenario","scenario":{"version":1,"name":"t",
			"topology":{"family":"cell","placements":2,"aps":2,"clients":4,"cs_rangs":20},
			"traffic":{"model":"poisson","payload_bytes":1460,"rate_pps":100,"window_sec":0.5}}}`, "cs_rangs"},
		{"scenario missing", `{"experiment":"scenario"}`, "requires an inline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e errorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Fatalf("400 body %q does not mention %q", e.Error, tc.wantSub)
			}
		})
	}
}

// TestSpecEndpointMatchesSpecStruct holds GET /spec to the Spec struct:
// every JSON tag the struct accepts must be documented, and nothing else.
func TestSpecEndpointMatchesSpecStruct(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc SpecDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "v2" {
		t.Errorf("doc version %q", doc.Version)
	}

	check := func(section string, got map[string]string, typ reflect.Type) {
		want := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]
			if tag != "" && tag != "-" {
				want[tag] = true
			}
		}
		for _, tag := range slices.Sorted(maps.Keys(want)) {
			if got[tag] == "" {
				t.Errorf("GET /spec %s omits field %q", section, tag)
			}
		}
		for _, tag := range slices.Sorted(maps.Keys(got)) {
			if !want[tag] {
				t.Errorf("GET /spec %s documents %q, which Spec does not accept", section, tag)
			}
		}
	}
	check("fields", doc.Fields, reflect.TypeOf(Spec{}))
	check("options", doc.Options, reflect.TypeOf(experiments.Options{}))

	found := false
	for _, name := range doc.Experiments {
		if name == "scenario" {
			found = true
		}
	}
	if !found {
		t.Errorf("GET /spec experiments omit \"scenario\": %v", doc.Experiments)
	}
}
