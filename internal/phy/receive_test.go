package phy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/modem"
)

// rxFrames holds one clean frame of each kind the receive paths take: a
// single-sender frame, a perfectly aligned two-sender joint frame and a
// calibration frame, all on the 802.11 profile and carrying one payload.
type rxFrames struct {
	cfg     *modem.Config
	fp      modem.FrameParams // the single-sender frame
	p       JointFrameParams  // the joint and calibration frames
	reps    int
	payload []byte
	single  []complex128
	joint   []complex128
	calib   []complex128
}

func newRxFrames() *rxFrames {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(6)
	f := &rxFrames{
		cfg:  cfg,
		fp:   modem.FrameParams{Cfg: cfg, Rate: rate, CP: cfg.CPLen, PayloadLen: 40, ScramblerSeed: 0x5d},
		p:    JointFrameParams{Cfg: cfg, Rate: rate, DataCP: cfg.CPLen, PayloadLen: 40, Seed: 0x5d, NumCo: 1, LeadID: 3, PacketID: 9},
		reps: 10,
	}
	f.payload = make([]byte, 40)
	rand.New(rand.NewSource(1)).Read(f.payload)
	f.single = modem.BuildFrame(f.fp, f.payload)
	f.joint = overlay(f.p.BuildLeadWaveform(f.payload), f.p.BuildCoWaveform(0, f.payload), f.p.GlobalRef())
	f.calib = overlay(f.p.BuildLeadCalibration(f.reps), f.p.BuildCoCalibration(0, f.reps), f.p.GlobalRef())
	return f
}

// overlay adds co to lead starting at sample at.
func overlay(lead, co []complex128, at int) []complex128 {
	out := append([]complex128(nil), lead...)
	for i, v := range co {
		out[at+i] += v
	}
	return out
}

// cutStream drops front samples from the frame's start and back samples
// from its end, puts lead samples of silence before it and 200 after it
// (the receivers read one FFT window past the frame), and adds white noise
// snrDB below the frame's mean power to the whole stream.
func cutStream(rng *rand.Rand, frame []complex128, front, back, lead int, snrDB float64) []complex128 {
	sigma := math.Sqrt(dsp.MeanPower(frame) / dsp.FromDB(snrDB) / 2)
	x := make([]complex128, lead, lead+len(frame)-front-back+200)
	x = append(x, frame[front:len(frame)-back]...)
	x = x[:cap(x)]
	for i := range x {
		x[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return x
}

func TestReceiversRejectPreambleBeforeStream(t *testing.T) {
	// A stream that begins mid-preamble makes the detector place the
	// preamble's first sample before the stream (FineIdx < 0). Every
	// receive path must turn that into an error, not a slice panic.
	f := newRxFrames()
	// {32, 24} is a 6 Mbps frame with its first 32 samples dropped behind
	// 24 samples of noise: the detector puts its preamble at -8. With too
	// short a lead-in the energy detector sees no rise and misses the
	// frame altogether, so every case keeps at least 16 samples of it.
	cases := []struct{ cut, lead int }{
		{32, 24}, {24, 16}, {48, 24}, {48, 40}, {64, 24}, {96, 40}, {96, 64},
	}
	rx := &JointReceiver{Cfg: f.cfg, FFTBackoff: 3}
	receivers := []struct {
		name    string
		frame   []complex128
		receive func(x []complex128) error
	}{
		{"single", f.single, func(x []complex128) error {
			_, _, _, err := (&modem.Receiver{Cfg: f.cfg, FFTBackoff: 3}).Receive(f.fp, x, 0)
			return err
		}},
		{"joint", f.joint, func(x []complex128) error {
			_, err := rx.Receive(x, 0)
			return err
		}},
		{"calibration", f.calib, func(x []complex128) error {
			_, err := rx.ReceiveCalibration(f.p, x, 0, f.reps)
			return err
		}},
	}
	for _, c := range cases {
		for _, r := range receivers {
			x := cutStream(rand.New(rand.NewSource(int64(c.cut*1000+c.lead))), r.frame, c.cut, 0, c.lead, 35)
			if det := modem.DetectPacket(f.cfg, x, 0); !det.Detected || det.FineIdx >= 0 {
				t.Fatalf("%s cut %d lead %d: detect %+v, want a preamble before the stream", r.name, c.cut, c.lead, det)
			}
			if r.receive(x) == nil {
				t.Fatalf("%s cut %d lead %d: receive accepted a preamble that starts before the stream", r.name, c.cut, c.lead)
			}
		}
	}
}

// FuzzReceive feeds cut, delayed and noisy copies of a single-sender, a
// joint and a calibration frame to all four receive paths: the
// single-sender receiver, the joint receiver, the calibration receiver and
// the co-sender's header reception. None may panic, and whatever passes a
// CRC must be what was sent.
func FuzzReceive(f *testing.F) {
	fr := newRxFrames()
	f.Fuzz(func(t *testing.T, seed int64, front, back, lead uint16, snrDB int8) {
		rng := rand.New(rand.NewSource(seed))
		for _, frame := range [][]complex128{fr.single, fr.joint, fr.calib} {
			cut := int(front) % (len(frame) + 1)
			x := cutStream(rng, frame, cut, int(back)%(len(frame)-cut+1), int(lead)%4096, float64(snrDB))

			if got, ok, _, err := (&modem.Receiver{Cfg: fr.cfg, FFTBackoff: 3}).Receive(fr.fp, x, 0); err == nil && ok && !bytes.Equal(got, fr.payload) {
				t.Fatalf("single-sender receiver passed the CRC on %x", got)
			}
			rx := &JointReceiver{Cfg: fr.cfg, FFTBackoff: 3}
			if res, err := rx.Receive(x, 0); err == nil && res.OK && !bytes.Equal(res.Payload, fr.payload) {
				t.Fatalf("joint receiver passed the CRC on %x", res.Payload)
			}
			if res, err := rx.ReceiveCalibration(fr.p, x, 0, fr.reps); err == nil && len(res.Series) != fr.reps {
				t.Fatalf("calibration series has %d repetitions, want %d", len(res.Series), fr.reps)
			}
			if _, _, hdr, err := receiveHeader(fr.cfg, x, 0, 3); err == nil && hdr != fr.p.Header() {
				t.Fatalf("header reception passed the CRC on %+v", hdr)
			}
		}
	})
}
