package modem

import "fmt"

// Rate describes one modulation-and-coding scheme (MCS).
type Rate struct {
	Mod  Modulation
	Code CodeRate
}

// String implements fmt.Stringer.
func (r Rate) String() string { return fmt.Sprintf("%v %v", r.Mod, r.Code) }

// StandardRates returns the eight 802.11a MCSes in increasing speed:
// 6, 9, 12, 18, 24, 36, 48, 54 Mbps when used with Profile80211.
func StandardRates() []Rate {
	return []Rate{
		{BPSK, Rate12},
		{BPSK, Rate34},
		{QPSK, Rate12},
		{QPSK, Rate34},
		{QAM16, Rate12},
		{QAM16, Rate34},
		{QAM64, Rate23},
		{QAM64, Rate34},
	}
}

// RateByMbps returns the standard MCS whose bit rate on Profile80211 is the
// given Mbps value (6, 9, 12, 18, 24, 36, 48 or 54), or an error.
func RateByMbps(mbps int) (Rate, error) {
	cfg := Profile80211()
	for _, r := range StandardRates() {
		if int(r.BitRate(cfg)/1e6+0.5) == mbps {
			return r, nil
		}
	}
	return Rate{}, fmt.Errorf("modem: no standard rate of %d Mbps", mbps)
}

// CodedBitsPerSymbol returns N_CBPS for this rate on the given config.
func (r Rate) CodedBitsPerSymbol(c *Config) int {
	return r.Mod.BitsPerSymbol() * c.NumData()
}

// DataBitsPerSymbol returns N_DBPS for this rate on the given config.
func (r Rate) DataBitsPerSymbol(c *Config) int {
	num, den := r.Code.Fraction()
	return r.CodedBitsPerSymbol(c) * num / den
}

// BitRate returns the PHY data rate in bits/second for this MCS on the given
// config with the default cyclic prefix.
func (r Rate) BitRate(c *Config) float64 {
	return float64(r.DataBitsPerSymbol(c)) / c.SymbolDuration(c.CPLen)
}
