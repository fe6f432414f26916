package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec feeds raw bytes through POST /jobs' strict decode and then
// normalize. Neither may panic, and an accepted spec must be a fixed
// point: normalizing it again, or marshaling it to JSON and putting that
// through the decode and normalize, gives the same Key() and the same
// params(nil). So a spec's key names one normalized job: specs with equal
// keys normalize identically. The seed corpus (testdata/fuzz/FuzzSpec)
// holds every registered experiment, an inline builtin scenario and one
// body per TestNormalizeRejectionTable family.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil {
			return
		}
		norm, err := spec.normalize()
		if err != nil {
			return
		}
		again, err := norm.normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected by a second normalize: %v", err)
		}
		sameJob(t, "normalizing twice", norm, again)
		wire, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("normalized spec does not marshal: %v", err)
		}
		decoded, err := decodeSpec(wire)
		if err != nil {
			t.Fatalf("normalized spec's JSON fails the strict decode: %v\n%s", err, wire)
		}
		round, err := decoded.normalize()
		if err != nil {
			t.Fatalf("normalized spec's JSON fails normalize: %v\n%s", err, wire)
		}
		sameJob(t, "marshal, decode and normalize", norm, round)
	})
}

// sameJob fails unless got has want's cache key and run parameters.
func sameJob(t *testing.T, how string, want, got Spec) {
	t.Helper()
	if want.Key() != got.Key() {
		t.Fatalf("%s moved the key:\n %s\n %s", how, want.Key(), got.Key())
	}
	if w, g := want.params(nil), got.params(nil); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s moved the params:\n %#v\n %#v", how, w, g)
	}
}
