package lasthop

import (
	"math/rand"
	"testing"
)

func TestThreeAPJointUsesQuasiOrthogonalOverhead(t *testing.T) {
	// Three APs: more CE slots, more power. At low per-AP SNR the extra
	// power should still win over two APs.
	two := clientCell(300, 7, 7)
	three := clientCell(300, 7, 7, 7)
	j2 := two.RunJoint(rand.New(rand.NewSource(2)))
	j3 := three.RunJoint(rand.New(rand.NewSource(3)))
	if j3.AggregateBps <= j2.AggregateBps {
		t.Fatalf("3 APs (%.2f Mbps) should beat 2 APs (%.2f Mbps) at 7 dB",
			j3.AggregateBps/1e6, j2.AggregateBps/1e6)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	c := clientCell(200, 10, 9)
	a := c.RunJoint(rand.New(rand.NewSource(4)))
	b := c.RunJoint(rand.New(rand.NewSource(4)))
	if a.AggregateBps != b.AggregateBps || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %v vs %v", a.AggregateBps, b.AggregateBps)
	}
}
