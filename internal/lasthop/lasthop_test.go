package lasthop

import (
	"math/rand"
	"testing"
)

// clientCell builds a one-client cell whose APs reach the client at the
// given average SNRs: the paper's Fig. 17 downlink.
func clientCell(packets int, snrs ...float64) Cell {
	return testCell([][]float64{snrs}, packets)
}

func TestSingleAPThroughputScalesWithSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weak := clientCell(300, 6).RunBestSingleAP(rng)
	strong := clientCell(300, 25).RunBestSingleAP(rng)
	if weak.AggregateBps <= 0 || strong.AggregateBps <= 0 {
		t.Fatalf("throughputs %v %v", weak.AggregateBps, strong.AggregateBps)
	}
	if strong.AggregateBps < 2*weak.AggregateBps {
		t.Fatalf("25 dB (%.1f Mbps) should be much faster than 6 dB (%.1f Mbps)",
			strong.AggregateBps/1e6, weak.AggregateBps/1e6)
	}
	// At 25 dB the achieved rate should approach (but not exceed) the top
	// PHY rates.
	if strong.AggregateBps > 54e6 {
		t.Fatalf("throughput %.1f Mbps exceeds PHY limit", strong.AggregateBps/1e6)
	}
}

func TestJointBeatsSingleAtModerateSNR(t *testing.T) {
	// Two comparable mediocre APs: joint transmission should deliver
	// noticeably more than the best single AP (paper Fig. 17: median 1.57x).
	rng := rand.New(rand.NewSource(2))
	c := clientCell(400, 9, 8)
	single := c.RunBestSingleAP(rng)
	joint := c.RunJoint(rng)
	if joint.AggregateBps <= single.AggregateBps {
		t.Fatalf("joint %.2f Mbps not better than single %.2f Mbps",
			joint.AggregateBps/1e6, single.AggregateBps/1e6)
	}
}

func TestJointOverheadVisibleAtHighSNR(t *testing.T) {
	// When one AP already runs at the top rate, the joint mode's extra
	// airtime (sync gap + CE) means it cannot be dramatically better; it
	// must at least stay within a sane band, not collapse.
	rng := rand.New(rand.NewSource(3))
	c := clientCell(400, 30, 30)
	single := c.RunBestSingleAP(rng)
	joint := c.RunJoint(rng)
	ratio := joint.AggregateBps / single.AggregateBps
	if ratio < 0.85 || ratio > 1.3 {
		t.Fatalf("high-SNR joint/single ratio %.2f out of band", ratio)
	}
}

func TestRateHistogramPopulated(t *testing.T) {
	// Every packet SampleRate schedules is retired, delivered or dropped.
	rng := rand.New(rand.NewSource(4))
	res := clientCell(200, 18).RunBestSingleAP(rng).PerClient[0]
	if total := res.Delivered + res.Dropped; total != 200 {
		t.Fatalf("run retired %d of 200 packets", total)
	}
	if res.Delivered < 150 {
		t.Fatalf("only %d/200 delivered at 18 dB", res.Delivered)
	}
}

func TestDeadLinkDeliversNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := clientCell(50, -10).RunBestSingleAP(rng)
	if res.Delivered != 0 {
		t.Fatalf("delivered %d packets over a dead link", res.Delivered)
	}
}
