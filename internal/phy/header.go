// Package phy assembles SourceSync joint frames (paper Figs. 6-7) and
// decodes them: a lead sender's synchronization header, a SIFS turnaround
// gap, per-co-sender channel estimation slots, and space-time-coded data
// symbols; plus the distributed waveform-level simulation used to evaluate
// synchronization accuracy end to end.
package phy

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/modem"
	"repro/internal/stbc"
)

// SyncHeader is the content of the lead sender's synchronization header
// (paper §4.4): identification of the joint transmission plus everything a
// co-sender or receiver needs to process the rest of the frame.
type SyncHeader struct {
	LeadID     uint16 // lead sender identifier
	Joint      bool   // joint-frame flag
	PacketID   uint16 // 16-bit hash of src/dst/IP-id identifying the packet
	RateIdx    uint8  // index into modem.StandardRates for the data symbols
	DataCP     uint8  // cyclic prefix of data symbols (includes any increase)
	NumCo      uint8  // number of co-sender channel-estimation slots
	PayloadLen uint16 // payload bytes (pre-CRC)
	Seed       uint8  // scrambler seed for the data portion
}

// syncHeaderLen is the serialized size in bytes.
const syncHeaderLen = 11

// Bytes serializes the header.
func (h SyncHeader) Bytes() []byte {
	b := make([]byte, syncHeaderLen)
	binary.LittleEndian.PutUint16(b[0:], h.LeadID)
	if h.Joint {
		b[2] = 1
	}
	binary.LittleEndian.PutUint16(b[3:], h.PacketID)
	b[5] = h.RateIdx
	b[6] = h.DataCP
	b[7] = h.NumCo
	binary.LittleEndian.PutUint16(b[8:], h.PayloadLen)
	b[10] = h.Seed
	return b
}

// ParseSyncHeader deserializes a header.
func ParseSyncHeader(b []byte) (SyncHeader, error) {
	if len(b) != syncHeaderLen {
		return SyncHeader{}, fmt.Errorf("phy: sync header is %d bytes, want %d", len(b), syncHeaderLen)
	}
	h := SyncHeader{
		LeadID:     binary.LittleEndian.Uint16(b[0:]),
		Joint:      b[2] == 1,
		PacketID:   binary.LittleEndian.Uint16(b[3:]),
		RateIdx:    b[5],
		DataCP:     b[6],
		NumCo:      b[7],
		PayloadLen: binary.LittleEndian.Uint16(b[8:]),
		Seed:       b[10],
	}
	if int(h.RateIdx) >= len(modem.StandardRates()) {
		return SyncHeader{}, errors.New("phy: sync header rate index out of range")
	}
	if _, err := stbc.ForSenders(int(h.NumCo) + 1); err != nil {
		return SyncHeader{}, fmt.Errorf("phy: sync header declares %d co-senders: %w", h.NumCo, err)
	}
	return h, nil
}

// HashPacketID computes the 16-bit packet identifier from flow fields, per
// the paper: a hash of IP source, destination and IP identifier.
func HashPacketID(src, dst uint32, ipID uint16) uint16 {
	x := src*2654435761 ^ dst*40503 ^ uint32(ipID)*9176
	x ^= x >> 16
	return uint16(x)
}

// headerFrameParams returns the modem parameters used for the sync header
// symbols: the most robust rate, default CP.
func headerFrameParams(cfg *modem.Config) modem.FrameParams {
	return modem.FrameParams{
		Cfg:           cfg,
		Rate:          modem.Rate{Mod: modem.BPSK, Code: modem.Rate12},
		CP:            cfg.CPLen,
		PayloadLen:    syncHeaderLen,
		ScramblerSeed: 0x5d,
	}
}

// decodeHeader decodes the sync header symbols of an acquired frame. Any
// failure, a CRC miss or a malformed header, is ErrHeaderFailed.
func decodeHeader(hp modem.FrameParams, acq modem.Acquisition, backoff int) (SyncHeader, error) {
	b, ok := hp.DecodeSymbolsToPayload(hp.EqualizeSymbols(acq.Buf, acq.H, backoff))
	if !ok {
		return SyncHeader{}, ErrHeaderFailed
	}
	hdr, err := ParseSyncHeader(b)
	if err != nil {
		return SyncHeader{}, ErrHeaderFailed
	}
	return hdr, nil
}
