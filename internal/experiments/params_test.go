package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestParamsValidate holds the one validation path every caller shares:
// ssbench's flags, ssserve's job options and Run itself. A carrier-sense
// range or window no run can finish must be rejected up front, before any
// experiment writes output: a NaN floor panics cellsweep mid-run, so does
// a range past 1 km (client placement fails), and an infinite window never
// drains.
func TestParamsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		opts    Options
		wantSub string // "" means valid
	}{
		{"defaults", Options{}, ""},
		{"explicit sweeps", Options{Cells: []int{1, 4}, CSRanges: []float64{0.5, 30}}, ""},
		{"zero window", Options{WindowSec: 0}, ""},
		{"finite window", Options{WindowSec: 0.05}, ""},
		{"zero cell count", Options{Cells: []int{1, 0}}, "cell count"},
		{"negative cell count", Options{Cells: []int{-2}}, "cell count"},
		{"NaN carrier-sense range", Options{CSRanges: []float64{20, nan}}, "carrier-sense range"},
		{"+Inf carrier-sense range", Options{CSRanges: []float64{inf}}, "carrier-sense range"},
		{"-Inf carrier-sense range", Options{CSRanges: []float64{-inf}}, "carrier-sense range"},
		{"zero carrier-sense range", Options{CSRanges: []float64{0}}, "carrier-sense range"},
		{"negative carrier-sense range", Options{CSRanges: []float64{-30}}, "carrier-sense range"},
		{"1 km carrier-sense range", Options{CSRanges: []float64{1000}}, ""},
		{"1e6 m carrier-sense range", Options{CSRanges: []float64{20, 1e6}}, "carrier-sense range"},
		{"NaN window", Options{WindowSec: nan}, "window"},
		{"+Inf window", Options{WindowSec: inf}, "window"},
		{"-Inf window", Options{WindowSec: -inf}, "window"},
		{"negative window", Options{WindowSec: -0.5}, "window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Params{Seed: 1, Options: tc.opts}.Validate()
			switch {
			case tc.wantSub == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.wantSub != "" && err == nil:
				t.Fatalf("Validate() = nil, want an error naming %q", tc.wantSub)
			case tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub):
				t.Fatalf("Validate() = %v, want it to name %q", err, tc.wantSub)
			}
		})
	}
}
