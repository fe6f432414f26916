package phy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/modem"
)

func TestSyncHeaderRoundTrip(t *testing.T) {
	h := SyncHeader{
		LeadID: 7, Joint: true, PacketID: 0xBEEF, RateIdx: 3,
		DataCP: 20, NumCo: 2, PayloadLen: 1460, Seed: 0x5d,
	}
	got, err := ParseSyncHeader(h.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
	if _, err := ParseSyncHeader([]byte{1, 2}); err == nil {
		t.Fatal("short header must fail")
	}
	bad := h
	bad.RateIdx = 99
	if _, err := ParseSyncHeader(bad.Bytes()); err == nil {
		t.Fatal("bad rate index must fail")
	}
	// A header must name a space-time code: eight senders is the most
	// stbc.ForSenders covers.
	for _, tc := range []struct {
		numCo uint8
		ok    bool
	}{{7, true}, {8, false}, {255, false}} {
		hc := h
		hc.NumCo = tc.numCo
		if _, err := ParseSyncHeader(hc.Bytes()); (err == nil) != tc.ok {
			t.Fatalf("NumCo %d: err %v, want accepted = %t", tc.numCo, err, tc.ok)
		}
	}
}

func TestHashPacketIDSpreads(t *testing.T) {
	seen := map[uint16]bool{}
	for i := uint32(0); i < 200; i++ {
		seen[HashPacketID(0x0a000001+i, 0x0a000002, uint16(i))] = true
	}
	if len(seen) < 190 {
		t.Fatalf("only %d distinct ids out of 200", len(seen))
	}
}

func TestJointFrameLayout(t *testing.T) {
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	p := JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 100, Seed: 0x5d, NumCo: 2,
	}
	if p.GlobalRef() != p.HeaderEnd()+200 {
		t.Fatalf("global ref %d, header end %d", p.GlobalRef(), p.HeaderEnd())
	}
	if p.CESlot(0) != p.GlobalRef() || p.CESlot(1) != p.GlobalRef()+160 {
		t.Fatalf("CE slots %d %d", p.CESlot(0), p.CESlot(1))
	}
	if p.DataStart() != p.GlobalRef()+320 {
		t.Fatalf("data start %d", p.DataStart())
	}
	waves := p.senderWaves(make([]byte, 100))
	lead, co := waves[0], waves[2]
	if len(lead) != p.TotalLen() {
		t.Fatalf("lead waveform %d samples, want %d", len(lead), p.TotalLen())
	}
	if len(co) != p.TotalLen()-p.GlobalRef() {
		t.Fatalf("co waveform %d samples", len(co))
	}
	// The lead must be silent through the SIFS gap and CE slots.
	for i := p.HeaderEnd(); i < p.DataStart(); i++ {
		if lead[i] != 0 {
			t.Fatalf("lead not silent at %d", i)
		}
	}
	// Co-sender 1 must be silent during co-sender 0's CE slot.
	for i := 0; i < 160; i++ {
		if co[i] != 0 {
			t.Fatalf("co 1 not silent during slot 0 at %d", i)
		}
	}
}

func TestOverheadFractionMatchesPaper(t *testing.T) {
	// Paper §4.4: 1460-byte packets at 12 Mbps: ~1.7% for two concurrent
	// senders (SIFS + 2 CE symbols over a ~1 ms frame).
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	two := JointFrameParams{Cfg: cfg, Rate: rate, DataCP: cfg.CPLen, PayloadLen: 1460, Seed: 1, NumCo: 1}
	if f := two.OverheadFraction(); f < 0.012 || f > 0.022 {
		t.Fatalf("2-sender overhead %.4f, want ~0.017", f)
	}
	five := JointFrameParams{Cfg: cfg, Rate: rate, DataCP: cfg.CPLen, PayloadLen: 1460, Seed: 1, NumCo: 4}
	f2, f5 := two.OverheadFraction(), five.OverheadFraction()
	if f5 <= f2 || f5 > 0.06 {
		t.Fatalf("5-sender overhead %.4f (2-sender %.4f)", f5, f2)
	}
}

// idealSim builds a 2-sender simulation with flat channels, no CFO, perfect
// measurements and the given noise at the receiver.
func idealSim(t *testing.T, rng *rand.Rand, noiseRx float64) *JointSimConfig {
	t.Helper()
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	p := JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 120, Seed: 0x5d, NumCo: 1,
		LeadID: 1, PacketID: 42,
	}
	dLeadCo := 3.0
	tLeadRx := 5.0
	tCoRx := 2.0
	return &JointSimConfig{
		P:        p,
		LeadToCo: []Link{{Gain: 1, Delay: dLeadCo}},
		LeadToRx: Link{Gain: 1, Delay: tLeadRx},
		CoToRx:   []Link{{Gain: 1, Delay: tCoRx}},
		Co: []CoSenderSim{{
			Turnaround:       120,
			EstDelayFromLead: dLeadCo,
			TxOffset:         tLeadRx - tCoRx,
			NoisePower:       1e-6,
			FFTBackoff:       3,
		}},
		NoiseRx: noiseRx,
		Rng:     rng,
	}
}

func TestJointTransmissionIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sim := idealSim(t, rng, 1e-6)
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !run.CoJoined[0] {
		t.Fatal("co-sender failed to join")
	}
	if math.Abs(run.TrueMisalign[0]) > 0.35 {
		t.Fatalf("true misalignment %.3f samples, want ~0", run.TrueMisalign[0])
	}

	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("CRC failed")
	}
	if string(res.Payload) != string(payload) {
		t.Fatal("payload mismatch")
	}
	if !res.ActiveCo[0] {
		t.Fatal("receiver did not see the co-sender")
	}
	if res.Header.PacketID != 42 || !res.Header.Joint {
		t.Fatalf("header %+v", res.Header)
	}
	// The misalignment estimate should agree with the (near-zero) truth.
	if math.Abs(res.MisalignEst[0]-run.TrueMisalign[0]) > 0.5 {
		t.Fatalf("misalign est %.3f vs truth %.3f", res.MisalignEst[0], run.TrueMisalign[0])
	}
}

func TestJointCompensatesAsymmetricDelays(t *testing.T) {
	// Co-sender much farther from the receiver than the lead: without the
	// w_i compensation its symbols would arrive late; with it, aligned.
	rng := rand.New(rand.NewSource(2))
	sim := idealSim(t, rng, 1e-6)
	sim.CoToRx[0].Delay = 14
	sim.Co[0].TxOffset = sim.LeadToRx.Delay - sim.CoToRx[0].Delay // -9: transmit early
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(run.TrueMisalign[0]) > 0.35 {
		t.Fatalf("true misalignment %.3f samples", run.TrueMisalign[0])
	}
	// And with compensation disabled the misalignment equals the delay
	// asymmetry.
	sim2 := idealSim(t, rand.New(rand.NewSource(3)), 1e-6)
	sim2.CoToRx[0].Delay = 14
	sim2.Co[0].TxOffset = 0
	run2, err := sim2.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := 14.0 - sim2.LeadToRx.Delay
	if math.Abs(run2.TrueMisalign[0]-want) > 0.35 {
		t.Fatalf("uncompensated misalignment %.3f, want %.1f", run2.TrueMisalign[0], want)
	}
}

func TestJointDecodesWithRealisticImpairments(t *testing.T) {
	// Multipath on every link, oscillator offsets with residual error,
	// moderate noise: the joint frame must still decode and the
	// misalignment estimate must be close to the truth.
	rng := rand.New(rand.NewSource(4))
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(12)
	p := JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 120, Seed: 0x5d, NumCo: 1, LeadID: 3, PacketID: 9,
	}
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 40, 6) }
	sim := &JointSimConfig{
		P:        p,
		Lead:     LeadSim{ResidCFO: 10e-9 * 5.8e9 / 20e6 * 0.02, Phase: 1.1},
		LeadToCo: []Link{{Gain: 1, Delay: 2.4, Path: mk()}},
		LeadToRx: Link{Gain: 1, Delay: 4.7, Path: mk()},
		CoToRx:   []Link{{Gain: 1, Delay: 1.9, Path: mk()}},
		Co: []CoSenderSim{{
			Turnaround:       120,
			OscCFO:           channel.PPMToCFO(12, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         channel.PPMToCFO(0.3, 5.8e9, cfg.SampleRateHz),
			Phase:            2.2,
			EstDelayFromLead: 2.4,
			TxOffset:         4.7 - 1.9,
			NoisePower:       3e-4,
			FFTBackoff:       3,
		}},
		NoiseRx: 3e-4, // ~both senders at ~35 dB individually
		Rng:     rng,
	}
	payload := make([]byte, 120)
	rng.Read(payload)

	okCount, joinCount := 0, 0
	var estErr []float64
	for trial := 0; trial < 8; trial++ {
		run, err := sim.Run(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !run.CoJoined[0] {
			continue
		}
		joinCount++
		rx := &JointReceiver{Cfg: cfg, FFTBackoff: 3}
		res, err := rx.Receive(run.RxWave, 0)
		if err != nil {
			continue
		}
		if res.OK && string(res.Payload) == string(payload) {
			okCount++
		}
		if res.ActiveCo[0] {
			estErr = append(estErr, math.Abs(res.MisalignEst[0]-run.TrueMisalign[0]))
		}
	}
	if joinCount < 7 {
		t.Fatalf("co-sender joined only %d/8", joinCount)
	}
	if okCount < 7 {
		t.Fatalf("decoded only %d/%d joint frames", okCount, joinCount)
	}
	for _, e := range estErr {
		if e > 2.0 {
			t.Fatalf("misalignment estimate error %.2f samples", e)
		}
	}
}

func TestJointReceiverSurvivesMissingCoSender(t *testing.T) {
	// The lead->co link is dead, so the co-sender never joins; the receiver
	// must notice the empty CE slot and decode lead-only.
	rng := rand.New(rand.NewSource(5))
	sim := idealSim(t, rng, 1e-5)
	sim.LeadToCo[0].Gain = 1e-6 // header unreceivable
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	if run.CoJoined[0] {
		t.Fatal("co-sender should not have joined")
	}
	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveCo[0] {
		t.Fatal("receiver hallucinated an active co-sender")
	}
	if !res.OK || string(res.Payload) != string(payload) {
		t.Fatal("lead-only decode failed")
	}
}

func TestJointThreeSendersQuasiOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := modem.Profile80211()
	rate, _ := modem.RateByMbps(6)
	p := JointFrameParams{
		Cfg: cfg, Rate: rate, DataCP: cfg.CPLen,
		PayloadLen: 60, Seed: 0x31, NumCo: 2, LeadID: 1, PacketID: 5,
	}
	sim := &JointSimConfig{
		P:        p,
		LeadToCo: []Link{{Gain: 1, Delay: 2}, {Gain: 1, Delay: 3}},
		LeadToRx: Link{Gain: 1, Delay: 4},
		CoToRx:   []Link{{Gain: 1, Delay: 2}, {Gain: 1, Delay: 6}},
		Co: []CoSenderSim{
			{Turnaround: 120, EstDelayFromLead: 2, TxOffset: 4 - 2, NoisePower: 1e-6, FFTBackoff: 3},
			{Turnaround: 120, EstDelayFromLead: 3, TxOffset: 4 - 6, NoisePower: 1e-6, FFTBackoff: 3},
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
	if !run.CoJoined[0] || !run.CoJoined[1] {
		t.Fatal("not all co-senders joined")
	}
	rx := &JointReceiver{Cfg: cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || string(res.Payload) != string(payload) {
		t.Fatal("3-sender decode failed")
	}
	if !res.ActiveCo[0] || !res.ActiveCo[1] {
		t.Fatalf("active flags %v", res.ActiveCo)
	}
}

func TestCompositeSNRShowsPowerGain(t *testing.T) {
	// With two equal-power senders the composite SNR should be ~3 dB above
	// a single sender's (paper Fig. 15).
	rng := rand.New(rand.NewSource(7))
	sim := idealSim(t, rng, 1e-3)
	payload := make([]byte, 120)
	rng.Read(payload)
	run, err := sim.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
	res, err := rx.Receive(run.RxWave, 0)
	if err != nil {
		t.Fatal(err)
	}
	lead := res.SenderSNR(0)
	comp := res.CompositeSNR()
	var leadAvg, compAvg float64
	for i := range lead {
		leadAvg += lead[i]
		compAvg += comp[i]
	}
	gainDB := 10 * math.Log10(compAvg/leadAvg)
	if gainDB < 2 || gainDB > 4 {
		t.Fatalf("composite power gain %.2f dB, want ~3", gainDB)
	}
}

// sameSamples reports whether a and b hold the same samples bit for bit.
func sameSamples(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestNaiveCombiningSendsSingleSenderSymbols(t *testing.T) {
	// Under CombineNaive every role's data region is the single-sender
	// frame's data symbols, bit for bit, except that a role sends the
	// pilots only in the symbols it owns.
	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 100)
	rng.Read(payload)
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		rate, _ := modem.RateByMbps(12)
		for numCo := 1; numCo <= 3; numCo++ {
			p := JointFrameParams{
				Cfg: cfg, Rate: rate, DataCP: cfg.CPLen + 4, PayloadLen: len(payload),
				Seed: 0x5d, NumCo: numCo, Combining: CombineNaive,
			}
			fp := modem.FrameParams{Cfg: cfg, Rate: rate, CP: p.DataCP, PayloadLen: len(payload), ScramblerSeed: p.Seed}
			single := modem.BuildFrame(fp, payload)[cfg.PreambleLen():]
			syms := fp.EncodePayloadSymbols(payload)
			symLen := p.DataCP + cfg.NFFT
			for role, w := range p.senderWaves(payload) {
				start := p.DataStart()
				if role > 0 {
					start -= p.GlobalRef()
				}
				data := w[start:]
				if len(data) != len(single) {
					t.Fatalf("%s %d co: role %d sends %d data samples, single sender %d", cfg.Name, numCo, role, len(data), len(single))
				}
				for s := range syms {
					got := data[s*symLen : (s+1)*symLen]
					owner := s%p.Senders() == role
					if owner && !sameSamples(got, single[s*symLen:(s+1)*symLen]) {
						t.Fatalf("%s %d co: role %d symbol %d differs from the single-sender symbol", cfg.Name, numCo, role, s)
					}
					if !sameSamples(got, cfg.AppendSymbol(nil, syms[s], s, p.DataCP, owner)) {
						t.Fatalf("%s %d co: role %d symbol %d: pilots sent = %t expected", cfg.Name, numCo, role, s, owner)
					}
				}
			}
		}
	}
}

func TestNaiveCombiningWorseThanSTBC(t *testing.T) {
	// With slowly rotating relative phases, naive identical transmission
	// hits destructive combining on some frames; STBC never does. Compare
	// worst-case EVM across random relative phases.
	rng := rand.New(rand.NewSource(8))
	payload := make([]byte, 120)
	rng.Read(payload)
	worst := func(mode Combining) float64 {
		worstEVM := 0.0
		for trial := 0; trial < 10; trial++ {
			sim := idealSim(t, rand.New(rand.NewSource(int64(100+trial))), 1e-5)
			sim.P.Combining = mode
			sim.Co[0].Phase = float64(trial) * 2 * math.Pi / 10
			run, err := sim.Run(payload)
			if err != nil {
				t.Fatal(err)
			}
			rx := &JointReceiver{Cfg: sim.P.Cfg, FFTBackoff: 3}
			res, err := rx.Receive(run.RxWave, 0)
			if err != nil {
				// Destructive combining can kill even detection/header.
				return math.Inf(1)
			}
			if res.EVM > worstEVM {
				worstEVM = res.EVM
			}
		}
		return worstEVM
	}
	stbcWorst := worst(CombineSTBC)
	naiveWorst := worst(CombineNaive)
	if !(naiveWorst > 4*stbcWorst) {
		t.Fatalf("naive worst EVM %.4f not clearly worse than STBC %.4f", naiveWorst, stbcWorst)
	}
}
