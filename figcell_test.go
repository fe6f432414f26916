package sourcesync

import (
	"math"
	"testing"
)

// TestPointStatsMedianGain holds MedianGain to its contract on hand-built
// rows: it pairs the two schemes' runs of each placement, skips the
// placements whose baseline delivered nothing, and is NaN when none is
// left.
func TestPointStatsMedianGain(t *testing.T) {
	row := func(bps ...[]float64) PointStats {
		var pt PointStats
		for _, b := range bps {
			pt.Schemes = append(pt.Schemes, SchemeStats{Bps: b})
		}
		return pt
	}
	tests := []struct {
		name     string
		pt       PointStats
		num, den int
		want     float64
	}{
		{
			// Pairing the sorted CDFs instead would give median(2, 0.75) = 1.375.
			name: "pairs by placement, not by CDF rank",
			pt:   row([]float64{1, 4}, []float64{3, 2}),
			num:  1, den: 0,
			want: 1.75, // median(3/1, 2/4)
		},
		{
			name: "skips a baseline that delivered nothing",
			pt:   row([]float64{0, 2}, []float64{5, 3}),
			num:  1, den: 0,
			want: 1.5,
		},
		{
			name: "no positive baseline",
			pt:   row([]float64{0, 0}, []float64{5, 3}),
			num:  1, den: 0,
			want: math.NaN(),
		},
		{
			// A crosstraffic row: sp, sp+load, ss, ss+load, cross.
			name: "odd count, mesh pair",
			pt: row([]float64{9, 9, 9}, []float64{2, 4, 1}, []float64{7, 7, 7},
				[]float64{3, 2, 5}, []float64{0, 0, 0}),
			num: 3, den: 1,
			want: 1.5, // median(3/2, 2/4, 5/1)
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.pt.MedianGain(tt.num, tt.den)
			if got != tt.want && !(math.IsNaN(got) && math.IsNaN(tt.want)) {
				t.Errorf("MedianGain(%d, %d) = %v, want %v", tt.num, tt.den, got, tt.want)
			}
		})
	}
}
