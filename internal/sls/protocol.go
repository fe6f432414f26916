package sls

import "repro/internal/lp"

// ProbeExchange carries the measurements from one probe/response round trip
// used to estimate the one-way propagation delay between two nodes (paper
// §4.2c, Eq. 2). All quantities are in samples of the prober's clock.
type ProbeExchange struct {
	RoundTrip   float64 // probe TX start to response detection instant
	DetectRx    float64 // responder's detection-delay estimate for the probe
	TurnRx      float64 // responder's hardware turnaround time
	DetectTx    float64 // prober's detection-delay estimate for the response
	ExtraWaitRx float64 // any deliberate constant wait added at the responder
}

// OneWayDelay solves Eq. 2 for the one-way propagation delay: half of the
// round trip after removing both detection delays, the responder turnaround
// and any deliberate wait.
func (p ProbeExchange) OneWayDelay() float64 {
	return (p.RoundTrip - p.DetectRx - p.TurnRx - p.DetectTx - p.ExtraWaitRx) / 2
}

// CoSenderStart is a co-sender's §4.3 schedule for one joint frame, in
// samples of its own clock. The sync header, header samples long, reached
// the co-sender at heard; the co-sender dates that arrival at est (its
// phase-slope estimate, or the unsynchronized baseline's raw detection
// event) and knows d, its propagation delay d_i from the lead. So the
// global time reference, SIFS after the header ends at the lead, falls at
// est − d + header + sifs, and the co-sender transmits w_i = w after it.
// It makes that slot (ok) only if it has by then heard the whole header
// and turned around, turn samples; otherwise it abstains rather than
// transmit late and corrupt the joint frame.
func CoSenderStart(heard, est, d, w, turn, header, sifs float64) (start float64, ok bool) {
	start = est - d + header + sifs + w
	return start, start >= heard+header+turn
}

// MultiReceiverWaits chooses co-sender wait times minimizing the maximum
// pairwise misalignment across a set of receivers (paper §4.6).
//
// tLead[k] is the one-way delay from the lead sender to receiver k;
// tCo[i][k] from co-sender i to receiver k. It returns the optimal TxOffset
// per co-sender and the residual worst-case misalignment, which the lead
// sender converts into a CP increase.
func MultiReceiverWaits(tLead []float64, tCo [][]float64) (w []float64, maxMis float64, err error) {
	nrx := len(tLead)
	nco := len(tCo)
	if nco == 0 || nrx == 0 {
		return nil, 0, nil
	}
	var offsets []float64
	var gains [][]float64
	for k := 0; k < nrx; k++ {
		// Co-sender i vs lead at receiver k: (w_i + t_ik) - T_k.
		for i := 0; i < nco; i++ {
			g := make([]float64, nco)
			g[i] = 1
			offsets = append(offsets, tCo[i][k]-tLead[k])
			gains = append(gains, g)
		}
		// Co-sender i vs co-sender j at receiver k.
		for i := 0; i < nco; i++ {
			for j := i + 1; j < nco; j++ {
				g := make([]float64, nco)
				g[i] = 1
				g[j] = -1
				offsets = append(offsets, tCo[i][k]-tCo[j][k])
				gains = append(gains, g)
			}
		}
	}
	return lp.MinimizeMaxAbs(offsets, gains)
}

// CPIncreaseSamples converts a worst-case misalignment (samples) into the
// integer number of extra cyclic-prefix samples the lead sender advertises
// in its synchronization header.
func CPIncreaseSamples(maxMis float64) int {
	if maxMis <= 0 {
		return 0
	}
	return int(maxMis + 0.999999)
}

// TrackWait updates a co-sender's TxOffset from the misalignment the
// receiver measured and fed back in its ACK (paper §4.5). Positive
// misalignment means the co-sender arrived late, so the offset decreases.
// gain in (0,1] damps the correction against measurement noise.
func TrackWait(current, measuredMisalignment, gain float64) float64 {
	return current - gain*measuredMisalignment
}
