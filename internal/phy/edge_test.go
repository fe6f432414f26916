package phy

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/modem"
)

func TestJointReceiverRejectsCorruptHeader(t *testing.T) {
	// Heavy noise injected over just the header symbols makes the header
	// CRC fail; the receiver must report ErrHeaderFailed, not decode junk.
	rng := rand.New(rand.NewSource(1))
	sim := idealSim(t, rng, 1e-6)
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the header region (after the preamble, before SIFS).
	hdrStart := simMargin + sim.P.Cfg.PreambleLen() + int(sim.LeadToRx.Delay)
	hdrEnd := simMargin + sim.P.HeaderEnd() + int(sim.LeadToRx.Delay)
	for i := hdrStart; i < hdrEnd; i++ {
		run.RxWave[i] += complex(rng.NormFloat64(), rng.NormFloat64())
	}
	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	if _, err := rx.Receive(run.RxWave, 0); err != ErrHeaderFailed {
		t.Fatalf("err = %v, want ErrHeaderFailed", err)
	}
}

func TestJointReceiverTruncatedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sim := idealSim(t, rng, 1e-6)
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	cut := run.RxWave[:simMargin+sim.P.DataStart()]
	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	if _, err := rx.Receive(cut, 0); err == nil {
		t.Fatal("truncated joint frame must error")
	}
}

func TestJointFourSenders(t *testing.T) {
	// Full quasi-orthogonal deployment: lead + 3 co-senders.
	rng := rand.New(rand.NewSource(3))
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(6)
	p := JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 60, Seed: 0x22, NumCo: 3, LeadID: 9, PacketID: 4,
	}
	sim := &JointSimConfig{
		P:        p,
		LeadToCo: []Link{{Gain: 1, Delay: 2}, {Gain: 1, Delay: 3}, {Gain: 1, Delay: 4}},
		LeadToRx: Link{Gain: 1, Delay: 5},
		CoToRx:   []Link{{Gain: 1, Delay: 3}, {Gain: 1, Delay: 6}, {Gain: 1, Delay: 2}},
		Co: []CoSenderSim{
			{Turnaround: 120, EstDelayFromLead: 2, TxOffset: 5 - 3, NoisePower: 1e-6, FFTBackoff: 3},
			{Turnaround: 120, EstDelayFromLead: 3, TxOffset: 5 - 6, NoisePower: 1e-6, FFTBackoff: 3},
			{Turnaround: 120, EstDelayFromLead: 4, TxOffset: 5 - 2, NoisePower: 1e-6, FFTBackoff: 3},
		},
		NoiseRx: 1e-5,
		Rng:     rng,
	}
	payload := make([]byte, 60)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	rx := &JointReceiver{Cfg: cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(res.Payload) != string(payload) {
		t.Fatal("4-sender decode failed")
	}
	for i, a := range res.ActiveCo {
		if !a {
			t.Fatalf("co %d not active", i)
		}
	}
	// Composite power should approach 4x a single sender (~6 dB).
	lead := res.SenderSNR(0)
	comp := res.CompositeSNR()
	var l, c float64
	for i := range lead {
		l += lead[i]
		c += comp[i]
	}
	if ratio := c / l; ratio < 2.5 || ratio > 6 {
		t.Fatalf("composite/lead power ratio %.2f, want ~4", ratio)
	}
}

func TestOverheadMonotonicInSenders(t *testing.T) {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	prev := -1.0
	for co := 0; co <= 6; co++ {
		p := JointFrameParams{Cfg: cfg, Rate: rate, DataCP: cfg.CPLen, PayloadLen: 1460, Seed: 1, NumCo: co}
		f := p.OverheadFraction()
		if f <= prev {
			t.Fatalf("overhead not increasing at %d co-senders", co)
		}
		prev = f
	}
}

func TestSimRejectsMismatchedCoSenderCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sim := idealSim(t, rng, 1e-6)
	sim.P.NumCo = 2 // declared two, wired one
	if _, err := sim.Run(make([]byte, 120)); err == nil {
		t.Fatal("mismatched co-sender count must error")
	}
}

func TestSimRejectsFieldsTheSyncHeaderCannotCarry(t *testing.T) {
	// The sync header carries PayloadLen in 16 bits and DataCP in 8. A
	// frame whose value does not fit must be refused, not sent under a
	// truncated header.
	tests := []struct {
		name       string
		payloadLen int
		dataCP     int
		wantErr    bool
	}{
		{name: "payload length 65,536", payloadLen: 65536, dataCP: 16, wantErr: true},
		{name: "payload length -1", payloadLen: -1, dataCP: 16, wantErr: true},
		{name: "cyclic prefix 256", payloadLen: 120, dataCP: 256, wantErr: true},
		{name: "largest payload length that fits", payloadLen: 65535, dataCP: 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sim := idealSim(t, rand.New(rand.NewSource(1)), 1e-6)
			sim.P.PayloadLen, sim.P.DataCP = tt.payloadLen, tt.dataCP
			// A calibration frame sends no payload, so even the largest
			// length runs quickly.
			if _, err := sim.RunCalibration(2); (err != nil) != tt.wantErr {
				t.Errorf("RunCalibration: err = %v, want error %v", err, tt.wantErr)
			}
			if !tt.wantErr {
				return
			}
			if _, err := sim.Run(make([]byte, max(tt.payloadLen, 0))); err == nil {
				t.Error("Run: err = nil, want an error")
			}
		})
	}
}

func TestCyclicPrefixLongerThanTheSymbolIsRefused(t *testing.T) {
	// A cyclic prefix copies the tail of its symbol, so none can be
	// longer than the FFT. The sender refuses such a frame, both
	// receivers refuse its parameters, and a joint receiver refuses a
	// sync header that declares one, instead of slicing past the symbol.
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		tests := []struct {
			name    string
			cp      int
			wantErr bool
		}{
			{name: "CP = NFFT", cp: cfg.NFFT},
			{name: "CP = NFFT+1", cp: cfg.NFFT + 1, wantErr: true},
			{name: "CP = 255", cp: 255, wantErr: true},
		}
		for _, tt := range tests {
			t.Run(cfg.Name+"/"+tt.name, func(t *testing.T) {
				sim := idealSim(t, rand.New(rand.NewSource(1)), 1e-6)
				sim.P.Cfg, sim.P.DataCP = cfg, tt.cp
				if _, err := sim.RunCalibration(2); (err != nil) != tt.wantErr {
					t.Errorf("RunCalibration: err = %v, want error %v", err, tt.wantErr)
				}
				if _, err := sim.Run(make([]byte, sim.P.PayloadLen)); (err != nil) != tt.wantErr {
					t.Errorf("Run: err = %v, want error %v", err, tt.wantErr)
				}
				if !tt.wantErr {
					return
				}
				rx := &JointReceiver{Cfg: cfg, FFTBackoff: 3}
				rng := rand.New(rand.NewSource(2))
				good := sim.P
				good.DataCP = cfg.CPLen
				calib := overlay(good.BuildLeadCalibration(2), good.BuildCoCalibration(0, 2), good.GlobalRef())
				if _, err := rx.ReceiveCalibration(sim.P, cutStream(rng, calib, 0, 0, 300, 30), 0, 2); err == nil {
					t.Error("ReceiveCalibration: err = nil, want an error")
				}
				// The lead's header declaring the CP, then silence through
				// the frame it describes.
				frame := sim.P.leadPrefix(0)
				frame = append(frame, make([]complex128, sim.P.TotalLen()-len(frame))...)
				if _, err := rx.Receive(cutStream(rng, frame, 0, 0, 300, 30), 0); !errors.Is(err, ErrHeaderFailed) {
					t.Errorf("Receive: err = %v, want ErrHeaderFailed", err)
				}
			})
		}
	}
}

func TestSlotMissAbstainsAndLeadStillDecodes(t *testing.T) {
	// A co-sender whose turnaround exceeds the sync gap cannot make its TX
	// slot. Per §4.3 it abstains — the run must not abort, the miss is
	// counted, and the receiver still decodes the lead-only frame.
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 120)
	rng.Read(payload)

	// Shrink the headroom: grow Turnaround until the slot is missed.
	var missRun *SimRun
	for turnaround := 120.0; turnaround <= 10*200*4; turnaround *= 2 {
		rng := rand.New(rand.NewSource(5))
		sim := idealSim(t, rng, 1e-6)
		sim.Co[0].Turnaround = turnaround
		run, err := sim.Run(payload)
		if err != nil {
			t.Fatalf("turnaround %.0f: %v", turnaround, err)
		}
		if run.SlotMisses > 0 {
			missRun = run
			break
		}
	}
	if missRun == nil {
		t.Fatal("never provoked a slot miss")
	}
	if missRun.CoJoined[0] {
		t.Fatal("a co-sender that missed its slot must not count as joined")
	}
	if missRun.SlotMisses != 1 {
		t.Fatalf("SlotMisses = %d, want 1", missRun.SlotMisses)
	}
	rx := &JointReceiver{Cfg: modem.Profile80211(), FFTBackoff: 3}
	res, err := rx.Receive(missRun.RxWave, 0)
	if err != nil {
		t.Fatalf("lead-only frame must stay decodable: %v", err)
	}
	if !res.OK || string(res.Payload) != string(payload) {
		t.Fatal("lead-only decode failed")
	}
}

func TestCalibrationSlotMissYieldsLeadOnlyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sim := idealSim(t, rng, 1e-6)
	sim.Co[0].Turnaround = 10 * 200 * 4 // far beyond the sync gap
	run, err := sim.RunCalibration(10)
	if err != nil {
		t.Fatalf("calibration slot miss must not abort: %v", err)
	}
	if run.CoJoined[0] || run.SlotMisses != 1 {
		t.Fatalf("joined=%v misses=%d, want abstain", run.CoJoined[0], run.SlotMisses)
	}
	if len(run.RxWave) == 0 {
		t.Fatal("lead-only calibration frame missing")
	}
}
