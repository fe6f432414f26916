package netsim

// LegacyThreshold is the historical binary gate: one SINR threshold, in
// dB, for both capture within collisions and decode against
// hidden-terminal interference, independent of the frame's rate. A frame
// whose SINR clears the threshold decodes with its normal, undegraded
// delivery draw; below it the frame is destroyed. No experiment runs it;
// the tests and benchmarks keep it as a second, rate-blind model, and the
// model-0 trials of differential_head.txt were recorded under it.
type LegacyThreshold struct {
	// CaptureDB is the SINR threshold in dB.
	CaptureDB float64
}

// Name implements InterferenceModel.
func (m LegacyThreshold) Name() string { return "legacy-threshold" }

// Settle implements InterferenceModel: survive iff the SINR clears the
// single threshold; never degrade the draw.
func (m LegacyThreshold) Settle(rx Reception) Verdict {
	return Verdict{
		Survives: rx.SINRdB >= m.CaptureDB,
		SNRScale: 1,
		MarginDB: rx.SINRdB - m.CaptureDB,
	}
}
