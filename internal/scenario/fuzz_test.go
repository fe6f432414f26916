package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParse feeds raw bytes to Parse. Nothing may panic, and an accepted
// spec must re-marshal to a fixed point: Marshal -> Parse -> Marshal gives
// the same bytes. Bytes, not structs, are compared, because documents that
// marshal alike can decode differently ("schemes": [] and an omitted
// "schemes" field, for one).
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("accepted spec re-marshals to a rejected document: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Marshal -> Parse -> Marshal is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
