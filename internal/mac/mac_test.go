package mac

import (
	"math"
	"testing"

	"repro/internal/modem"
)

func TestFrameDurationKnownValue(t *testing.T) {
	p := Default(modem.Profile80211())
	r6, _ := modem.RateByMbps(6)
	// 1460+4 bytes + 6 tail bits at 24 data bits/symbol: 489 symbols of
	// 4 us after the 16 us training preamble.
	d := p.FrameDuration(r6, 1460)
	want := float64(p.Cfg.PreambleLen())/p.Cfg.SampleRateHz + math.Ceil((1464*8+6)/24.0)*4e-6
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("duration %g, want %g", d, want)
	}
	// Faster rate, shorter frame.
	r54, _ := modem.RateByMbps(54)
	if p.FrameDuration(r54, 1460) >= d {
		t.Fatal("54 Mbps frame should be shorter than 6 Mbps")
	}
}

func TestJointFrameDurationIncludesOverhead(t *testing.T) {
	p := Default(modem.Profile80211())
	r12, _ := modem.RateByMbps(12)
	single := p.FrameDuration(r12, 1460)
	joint := p.JointFrameDuration(r12, 1460, 1, p.Cfg.CPLen)
	if joint <= single {
		t.Fatal("joint frame must cost more airtime than a bare frame")
	}
	// And the overhead is small (paper: ~1.7% + header).
	if (joint-single)/joint > 0.08 {
		t.Fatalf("joint overhead fraction %.3f too large", (joint-single)/joint)
	}
	// CP increase lengthens the frame.
	longer := p.JointFrameDuration(r12, 1460, 1, p.Cfg.CPLen+4)
	if longer <= joint {
		t.Fatal("CP increase must lengthen the frame")
	}
}

func TestAckTimeoutShorterThanAckExchange(t *testing.T) {
	p := Default(modem.Profile80211())
	to := p.AckTimeout()
	if to <= p.SIFS {
		t.Fatalf("AckTimeout %g must exceed SIFS", to)
	}
	if full := p.SIFS + p.AckDuration(); to >= full {
		t.Fatalf("AckTimeout %g must be shorter than a full ACK exchange %g", to, full)
	}
}

func TestCWDoubling(t *testing.T) {
	p := Default(modem.Profile80211())
	if p.CW(0) != p.CWMin {
		t.Fatalf("CW(0) = %d", p.CW(0))
	}
	if p.CW(1) != 2*p.CWMin+1 {
		t.Fatalf("CW(1) = %d", p.CW(1))
	}
	if p.CW(20) != p.CWMax {
		t.Fatalf("CW must saturate at CWMax, got %d", p.CW(20))
	}
}

func TestDIFS(t *testing.T) {
	p := Default(modem.Profile80211())
	if got := p.DIFS(); math.Abs(got-28e-6) > 1e-12 {
		t.Fatalf("DIFS %g", got)
	}
}
