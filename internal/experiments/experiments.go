// Package experiments renders every registered experiment — the tables
// and figures of the SourceSync paper's evaluation (§8) plus the repo's
// scale extensions — to an io.Writer.
//
// It is the single rendering path shared by the ssbench CLI (stdout) and
// the ssserve daemon (per-job output buffers), which is what makes the
// service's job outputs byte-identical to batch ssbench runs by
// construction: both call Run with the same Params and diff-able bytes
// come out. The golden-output harness (golden_test.go) pins those bytes
// against committed files, and the determinism contract
// (docs/ARCHITECTURE.md) guarantees they are independent of Params.Workers
// and of whatever else the process is doing concurrently.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	sourcesync "repro"
	"repro/internal/engine"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// names lists every registered experiment in the order "all" runs them.
// docs_test.go checks docs/EXPERIMENTS.md documents each one, so the
// list, the run switch, and the docs cannot drift apart silently.
var names = []string{
	"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"cell", "cellsweep", "metro", "crosstraffic", "crosstraffic-spatial",
	"overhead", "detdelay", "ablations", "arrivals", "mobility",
}

// Names returns the registered experiment names in "all" order. The
// returned slice is a copy; callers may keep or mutate it.
func Names() []string {
	return append([]string(nil), names...)
}

// IsName reports whether name (already lower-cased or not) is a registered
// experiment or one of the pseudo-experiments "all" and "scenario" (the
// generic spec renderer — it needs Params.Scenario, so "all" skips it).
func IsName(name string) bool {
	name = strings.ToLower(name)
	if name == "all" || name == "scenario" {
		return true
	}
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// ErrCanceled is returned by Run when Params.Monitor was canceled while
// the experiment ran. Whatever was written to the writer before the
// cancellation took effect is partial output and must be discarded — it is
// outside the determinism contract.
var ErrCanceled = errors.New("experiment run canceled")

// Options carries the experiment-specific knobs — the sweep shape and
// saturation mode that only some experiments read — as a typed
// sub-struct, so Params' generic fields (seed, size, parallelism) stay
// separate from per-experiment configuration. The ssbench flags map into
// it, and it is the "options" object of the ssserve wire format, whose
// keys are its JSON tags; the zero value means "the experiment's
// defaults".
type Options struct {
	// Cells is cellsweep's capacity-vs-cell-count sweep (ssbench -cells).
	Cells []int `json:"cells,omitempty"`
	// CSRanges is cellsweep's carrier-sense sweep in meters (ssbench -cs).
	CSRanges []float64 `json:"cs_ranges,omitempty"`
	// WindowSec switches cell, cellsweep, metro and every backlogged
	// scenario spec to fixed-time-window saturation mode (ssbench
	// -window), overriding a spec's traffic.window_sec; 0 keeps each
	// run's own mode.
	WindowSec float64 `json:"window_sec,omitempty"`
}

// WithDefaults returns o with each empty sweep list replaced by the
// standard sweep points, which is how Run and ssserve read an unset list.
func (o Options) WithDefaults() Options {
	if len(o.Cells) == 0 {
		o.Cells = []int{1, 2, 3}
	}
	if len(o.CSRanges) == 0 {
		o.CSRanges = []float64{20, 30, 45}
	}
	return o
}

// Params configures one Run. The zero value is not runnable as-is for
// cellsweep (it needs sweep points); use DefaultParams as the base, which
// mirrors ssbench's flag defaults.
type Params struct {
	// Seed is the base random seed (ssbench -seed). Each experiment
	// derives its own offset from it, exactly as ssbench always has.
	Seed int64
	// Quick shrinks the workloads ~10x (ssbench -quick).
	Quick bool
	// Workers bounds the engine's parallelism: 0 means one worker per
	// CPU, 1 runs serially. Output bytes are identical either way.
	Workers int
	// Options holds the experiment-specific knobs.
	Options Options
	// Scenario is the declarative spec the generic "scenario" experiment
	// renders (ssbench -scenario, ssserve inline specs). Nil for every
	// registered experiment, which carries its own configuration.
	Scenario *scenario.Spec
	// Monitor optionally observes trial progress and cancels the run
	// cooperatively; see engine.Monitor and ErrCanceled.
	Monitor *engine.Monitor
}

// DefaultParams mirrors ssbench's flag defaults: seed 1, full size, one
// worker per CPU, the standard cellsweep sweep points.
func DefaultParams() Params {
	return Params{Seed: 1, Options: Options{}.WithDefaults()}
}

// normalized fills zero-value sweep lists with the defaults, so callers
// (e.g. a service job with an empty spec) get ssbench's behavior.
func (p Params) normalized() Params {
	p.Options = p.Options.WithDefaults()
	return p
}

// Validate reports whether p can run, after default-filling. Exported for
// callers that want submit-time errors before any output is produced
// (ssserve rejects a bad job spec with 400 instead of failing the job).
func (p Params) Validate() error { return p.normalized().validate() }

// maxCSRangeM caps cellsweep's carrier-sense ranges, in meters. The sweep
// spaces its cells at least twice the range apart and places each client
// by rejection sampling over the whole floor, so the wider the range, the
// fewer draws land in a cell's 8-25 m client annulus: at 3e5 m none of
// 100,000 do, and cellsweep panics after printing two of its three tables.
const maxCSRangeM = 1000

// validate rejects parameter values no experiment can run with.
func (p Params) validate() error {
	for _, n := range p.Options.Cells {
		if n < 1 {
			return fmt.Errorf("cell count %d < 1", n)
		}
	}
	for _, v := range p.Options.CSRanges {
		if math.IsNaN(v) || v <= 0 || v > maxCSRangeM {
			return fmt.Errorf("carrier-sense range %g, want > 0 and <= %d m", v, maxCSRangeM)
		}
	}
	if w := p.Options.WindowSec; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("window %g, want finite and >= 0", w)
	}
	if p.Scenario != nil {
		if err := p.Scenario.Validate(); err != nil {
			return fmt.Errorf("scenario spec: %w", err)
		}
	}
	return nil
}

// Run renders one experiment (or "all") to w. The bytes written are
// exactly what `ssbench <name>` prints to stdout for the same Params.
// Unknown names and invalid Params return an error before any output.
// When p.Monitor is canceled mid-run, Run stops at the next check point
// and returns ErrCanceled; the caller must discard w's contents.
func Run(w io.Writer, name string, p Params) error {
	name = strings.ToLower(name)
	p = p.normalized()
	if err := p.validate(); err != nil {
		return err
	}
	if name == "all" {
		for _, e := range names {
			if err := Run(w, e, p); err != nil {
				return err
			}
		}
		return nil
	}
	r := &runner{w: w, p: p}
	switch name {
	case "fig12":
		r.fig12()
	case "fig13":
		r.fig13()
	case "fig14":
		r.fig14()
	case "fig15":
		r.fig15()
	case "fig16":
		r.fig16()
	case "fig17":
		r.fig17()
	case "fig18":
		r.fig18(6)
		r.fig18(12)
	case "cellsweep":
		r.cellsweep()
	case "metro":
		r.metro()
	case "crosstraffic":
		r.crosstraffic()
	case "crosstraffic-spatial":
		r.crosstrafficSpatial()
	case "overhead":
		r.overhead()
	case "detdelay":
		r.detdelay()
	case "ablations":
		r.ablations()
	case "cell", "arrivals", "mobility":
		sp, _ := scenario.Builtin(name)
		if err := r.scenario(sp); err != nil {
			return err
		}
	case "scenario":
		if p.Scenario == nil {
			return fmt.Errorf(`experiment "scenario" needs a spec (ssbench -scenario file.json, or an inline "scenario" object in a ssserve job)`)
		}
		if err := r.scenario(p.Scenario); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if r.canceled() {
		return ErrCanceled
	}
	return nil
}

// runner renders experiments with one Params set to one writer.
type runner struct {
	w io.Writer
	p Params
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format, args...)
}

func (r *runner) println(args ...any) {
	fmt.Fprintln(r.w, args...)
}

func (r *runner) canceled() bool {
	return r.p.Monitor != nil && r.p.Monitor.Canceled()
}

// ec is the run context of an experiment whose seed sits offset above the
// base seed: every runner gets the job's worker count and Monitor from
// here, so none can be wired without them.
func (r *runner) ec(offset int64) engine.Config {
	return engine.Config{Seed: r.p.Seed + offset, Workers: r.p.Workers, Monitor: r.p.Monitor}
}

// shrink is the -quick rule, the only copy of it: the coded experiments
// and the scenario specs shrink their workload sizes through it.
func (r *runner) shrink(n int) int {
	if r.p.Quick && n > 4 {
		return n / 4
	}
	return n
}

func (r *runner) header(title string) {
	r.printf("\n=== %s ===\n", title)
}

func (r *runner) fig12() {
	r.header("Figure 12 — 95th percentile synchronization error vs SNR (WiGLAN profile)")
	o := sourcesync.DefaultFig12Options()
	o.Trials = r.shrink(o.Trials)
	r.printf("%8s %12s %12s %8s %8s\n", "SNR(dB)", "p50(ns)", "p95(ns)", "usable", "dropped")
	for _, p := range sourcesync.RunFig12(r.ec(0), o) {
		r.printf("%8.1f %12.2f %12.2f %8d %8d\n", p.SNRdB, p.P50Ns, p.P95Ns, p.Usable, p.Dropped)
	}
	r.println("paper: <= 20 ns across the operational SNR range")
}

func (r *runner) fig13() {
	r.header("Figure 13 — composite SNR vs cyclic prefix: SourceSync vs unsynchronized baseline")
	o := sourcesync.DefaultFig13Options()
	o.FramesPerCP = r.shrink(o.FramesPerCP)
	r.printf("%10s %10s %14s %14s\n", "CP(ns)", "CP(smp)", "SourceSync(dB)", "Baseline(dB)")
	for _, p := range sourcesync.RunFig13(r.ec(1), o) {
		r.printf("%10.0f %10d %14.2f %14.2f\n", p.CPNs, p.CPSamples, p.SourceSyncSNR, p.BaselineSNR)
	}
	r.println("paper: SourceSync reaches ~95% of peak SNR at 117 ns; baseline needs ~469 ns")
}

func (r *runner) fig14() {
	r.header("Figure 14 — delay spread of a single sender (|h|^2 vs tap index)")
	pts := sourcesync.RunFig14(r.ec(2), sourcesync.DefaultFig14Options())
	r.printf("%6s %10s\n", "tap", "|h|^2")
	for _, p := range pts {
		if p.TapIdx%2 == 0 { // thin the printout
			r.printf("%6d %10.4f\n", p.TapIdx, p.Power)
		}
	}
	r.printf("significant taps (>=1%% of peak): %d (paper: ~15)\n", sourcesync.SignificantTaps(pts, 0.01))
}

func (r *runner) fig15() {
	r.header("Figure 15 — power gains: average SNR, single sender vs SourceSync")
	o := sourcesync.DefaultFig15Options()
	o.Placements = r.shrink(o.Placements)
	r.printf("%8s %14s %14s %10s %6s\n", "regime", "single(dB)", "SourceSync(dB)", "gain(dB)", "n")
	for _, res := range sourcesync.RunFig15(r.ec(3), o) {
		r.printf("%8s %14.2f %14.2f %10.2f %6d\n", res.Regime, res.SingleSNRdB, res.JointSNRdB, res.GainDB, res.Measurements)
	}
	r.println("paper: 2-3 dB gain in every regime")
}

func (r *runner) fig16() {
	r.header("Figure 16 — per-subcarrier SNR profiles (frequency diversity)")
	o := sourcesync.DefaultFig15Options()
	o.Placements = r.shrink(o.Placements)
	for _, s := range sourcesync.RunFig16(r.ec(4), o) {
		r.printf("\n[%s SNR regime]\n%10s %10s %10s %10s\n", s.Regime, "f(MHz)", "snd1(dB)", "snd2(dB)", "joint(dB)")
		for i := range s.FreqMHz {
			r.printf("%10.1f %10.2f %10.2f %10.2f\n", s.FreqMHz[i], s.Sender1[i], s.Sender2[i], s.Joint[i])
		}
		r.printf("flatness (std dev dB): sender1 %.2f, sender2 %.2f, joint %.2f\n",
			s.Flatness.Sender1, s.Flatness.Sender2, s.Flatness.Joint)
	}
	r.println("\npaper: the joint profile is flatter than either sender's")
}

func (r *runner) fig17() {
	r.header("Figure 17 — last-hop throughput CDF: best single AP vs SourceSync (2 APs)")
	o := sourcesync.DefaultFig17Options()
	o.Placements = r.shrink(o.Placements)
	o.Packets = r.shrink(o.Packets)
	pt := sourcesync.RunFig17(r.ec(5), o)
	r.printf("%10s %14s %14s\n", "fraction", "single(Mbps)", "joint(Mbps)")
	r.printCDFs("%10.3f %14.2f %14.2f\n", pt.Schemes)
	r.printf("median gain: %.2fx (paper: 1.57x)\n", pt.MedianGain(1, 0))
}

func (r *runner) fig18(mbps int) {
	r.header(fmt.Sprintf("Figure 18 — opportunistic routing throughput CDF at %d Mbps", mbps))
	o := sourcesync.DefaultFig18Options(mbps)
	o.Topologies = r.shrink(o.Topologies)
	o.Packets = r.shrink(o.Packets)
	pt := sourcesync.RunFig18(r.ec(6), o)
	r.printf("%10s %14s %12s %18s\n", "fraction", "single(Mbps)", "ExOR(Mbps)", "ExOR+SrcSync(Mbps)")
	r.printCDFs("%10.3f %14.3f %12.3f %18.3f\n", pt.Schemes[:3])
	r.printf("median gains: ExOR/single %.2fx, SrcSync/ExOR %.2fx, SrcSync/single %.2fx\n",
		pt.MedianGain(1, 0), pt.MedianGain(2, 1), pt.MedianGain(2, 0))
	r.println("paper: ExOR 1.26-1.4x over single path; SourceSync 1.35-1.45x over ExOR; 1.7-2x overall")
}

// printCDFs renders the throughput CDFs of schemes side by side: row i is
// the fraction (i+1)/n, then each scheme's i-th slowest placement in Mbps.
func (r *runner) printCDFs(format string, schemes []sourcesync.SchemeStats) {
	n := len(schemes[0].AggMbps)
	for i := 0; i < n; i++ {
		row := []any{float64(i+1) / float64(n)}
		for _, st := range schemes {
			row = append(row, st.AggMbps[i])
		}
		r.printf(format, row...)
	}
}

// printCorruption renders the interference model's per-rate outcome table:
// one row per SampleRate rate index that saw interference, with the mean
// decode margin of its interfered attempts.
func (r *runner) printCorruption(rc []netsim.RateCorruption) {
	total := 0
	for _, c := range rc {
		total += c.Interfered
	}
	if total == 0 {
		r.println("per-rate interference outcomes: none (no attempt overlapped with a model engaged)")
		return
	}
	cfg := modem.Profile80211()
	rates := modem.StandardRates()
	r.println("per-rate interference outcomes:")
	r.printf("%12s %11s %10s %9s %11s\n", "rate", "interfered", "corrupted", "degraded", "margin(dB)")
	for i, c := range rc {
		if c.Interfered == 0 {
			continue
		}
		label := fmt.Sprintf("idx %d", i)
		if i < len(rates) {
			label = fmt.Sprintf("%.0f Mbps", rates[i].BitRate(cfg)/1e6)
		}
		r.printf("%12s %11d %10d %9d %11.2f\n",
			label, c.Interfered, c.Corrupted, c.Degraded, c.MarginDB/float64(c.Interfered))
	}
}

// cellBody renders a backlogged spec's one point: the cell experiment's
// aggregate-throughput CDF table (the cell experiment is the builtin
// backlogged spec examples/cell.json).
func (r *runner) cellBody(sp *scenario.Spec, pt sourcesync.PointStats) {
	r.printf("clients=%d APs=%d packets/client=%d model=rate-aware",
		sp.Topology.Clients, sp.Topology.APs, sp.Traffic.Packets)
	if sp.Traffic.WindowSec > 0 {
		r.printf(" window=%.2fs", sp.Traffic.WindowSec)
	}
	r.println()
	r.printf("%10s %14s %14s\n", "fraction", "single(Mbps)", "joint(Mbps)")
	r.printCDFs("%10.3f %14.2f %14.2f\n", pt.Schemes)
	joint := pt.Schemes[1]
	r.printf("median aggregate gain: %.2fx; per acquisition: collisions %.3f, captures %.3f\n",
		pt.MedianGain(1, 0), joint.CollisionRate, joint.CaptureRate)
	r.printCorruption(joint.RateCorruption)
}

// sweepClients is the clients per cell of cellsweep's cell-count and
// carrier-sense tables, before -quick.
const sweepClients = 4

// cellSweepOptions is the shape every cellsweep table runs: the defaults,
// shrunk by -quick, in the requested saturation mode.
func (r *runner) cellSweepOptions() sourcesync.CellSweepOptions {
	o := sourcesync.DefaultCellSweepOptions()
	o.Placements = r.shrink(o.Placements)
	o.Packets = r.shrink(o.Packets)
	o.WindowSec = r.p.Options.WindowSec
	return o
}

func (r *runner) cellsweep() {
	r.header("Cellsweep — saturation throughput vs clients per cell (multi-cell spatial reuse)")
	ec := r.ec(10)
	o := r.cellSweepOptions()
	stats := sourcesync.RunCellSweep(ec, o)
	r.printf("cells=%d aps/cell=%d packets/client=%d cs-range=%.0fm model=rate-aware", o.Cells, o.APsPerCell, o.Packets, o.CSRangeM)
	if o.WindowSec > 0 {
		r.printf(" window=%.2fs", o.WindowSec)
	}
	r.println()
	r.printSweepTable("clients", stats, func(i int) string { return fmt.Sprintf("%d", o.ClientsPer[i]) })
	r.println("utilization above 1 = cells beyond carrier-sense range carrying frames concurrently")
	if last := len(stats) - 1; last >= 0 {
		r.printCorruption(stats[last].Schemes[1].RateCorruption)
	}
	if r.canceled() {
		return
	}

	clientsPer := r.shrink(sweepClients)
	counts := r.p.Options.Cells
	stats = sourcesync.RunCellCountSweep(ec, o, counts, clientsPer)
	r.printf("\ncapacity vs cell count (clients/cell=%d):\n", clientsPer)
	r.printSweepTable("cells", stats, func(i int) string { return fmt.Sprintf("%d", counts[i]) })
	r.println("capacity should scale near-linearly with cell count (AirSync-style spatial reuse)")
	if r.canceled() {
		return
	}

	ranges := r.p.Options.CSRanges
	stats = sourcesync.RunCSRangeSweep(ec, o, ranges, clientsPer)
	r.printf("\ncapacity vs carrier-sense range (cells=%d clients/cell=%d):\n", o.Cells, clientsPer)
	r.printSweepTable("cs(m)", stats, func(i int) string { return fmt.Sprintf("%.0f", ranges[i]) })
	r.println("shorter carrier sense = denser reuse but more hidden terminals; the model prices the tradeoff")
}

// printSweepTable renders one cell-family sweep table: row i's swept value
// key(i) under keyHeader, then both schemes' medians, the gain, and the
// joint runs' medium statistics.
func (r *runner) printSweepTable(keyHeader string, stats []sourcesync.PointStats, key func(i int) string) {
	r.printf("%10s %14s %14s %8s %8s %8s %8s %8s\n", keyHeader, "single(Mbps)", "joint(Mbps)", "gain", "collis", "hidden", "capture", "util")
	for i, s := range stats {
		single, joint := s.Schemes[0], s.Schemes[1]
		r.printf("%10s %14.2f %14.2f %7.2fx %8.3f %8.3f %8.3f %8.2f\n",
			key(i), single.MedianMbps, joint.MedianMbps, s.MedianGain(1, 0), joint.CollisionRate, joint.HiddenRate, joint.CaptureRate, joint.MeanUtilization)
	}
}

// metroOptions is the city metro runs: the defaults, or under -quick a
// smaller one, in the requested saturation mode.
func (r *runner) metroOptions() sourcesync.MetroOptions {
	o := sourcesync.DefaultMetroOptions()
	o.WindowSec = r.p.Options.WindowSec
	if r.p.Quick {
		// A quick city: 16 cells and light density, or the metro grid
		// dwarfs every other quick experiment combined.
		o.CellsX, o.CellsY = 4, 4
		o.ClientsPer = []int{2, 4}
		o.Placements = 2
	}
	o.Packets = r.shrink(o.Packets)
	return o
}

func (r *runner) metro() {
	r.header("Metro — city-scale capacity map by client density: best single AP vs SourceSync")
	o := r.metroOptions()
	stats := sourcesync.RunMetro(r.ec(16), o)
	r.printf("cells=%dx%d aps/cell=%d packets/client=%d cs-range=%.0fm ix-range=%.0fm model=rate-aware",
		o.CellsX, o.CellsY, o.APsPerCell, o.Packets, o.CSRangeM, o.InterferenceRangeM)
	if o.WindowSec > 0 {
		r.printf(" window=%.2fs", o.WindowSec)
	}
	r.println()
	r.printSweepTable("cl (flows)", stats, func(i int) string {
		n := o.ClientsPer[i]
		return fmt.Sprintf("%d (%d)", n, o.CellsX*o.CellsY*n)
	})
	r.println("capacity should grow with density until interference bites; joint service holds its gain city-wide")
	if last := len(stats) - 1; last >= 0 {
		r.printCorruption(stats[last].Schemes[1].RateCorruption)
	}
}

func (r *runner) crosstraffic() {
	r.header("Cross-traffic — routed mesh flow contending with relay-to-relay flows")
	r.runCrossTraffic(r.ec(9), sourcesync.DefaultCrossTrafficOptions())
}

func (r *runner) crosstrafficSpatial() {
	r.header("Cross-traffic (spatial mesh) — cross flows in separate cells: reuse + hidden terminals on the routing side")
	r.runCrossTraffic(r.ec(11), sourcesync.SpatialCrossTrafficOptions())
}

// runCrossTraffic shrinks, runs, and prints one cross-traffic variant.
func (r *runner) runCrossTraffic(ec engine.Config, o sourcesync.MeshOptions) {
	o.Topologies = r.shrink(o.Topologies)
	o.Packets = r.shrink(o.Packets)
	o.CrossPackets = r.shrink(o.CrossPackets)
	pt := sourcesync.RunCrossTraffic(ec, o)
	r.printf("%d cross flows x %d packets, SampleRate-adapted, model=rate-aware", o.CrossFlows, o.CrossPackets)
	if o.CSRangeM > 0 {
		r.printf(", cs-range=%.0fm width-x%.1f", o.CSRangeM, o.WidthScale)
	}
	r.println()
	r.printf("%10s %12s %12s %12s %12s\n", "fraction", "sp(Mbps)", "sp+load", "ss(Mbps)", "ss+load")
	r.printCDFs("%10.3f %12.3f %12.3f %12.3f %12.3f\n", pt.Schemes[:4])
	r.printf("median retention under load: single-path %.2f, SourceSync %.2f; SrcSync/single under load %.2fx\n",
		pt.MedianGain(1, 0), pt.MedianGain(3, 2), pt.MedianGain(3, 1))
	cross := pt.Schemes[4]
	r.printf("cross-flow hidden-terminal losses: %d\n", cross.HiddenLosses)
	r.printCorruption(cross.RateCorruption)
}

func (r *runner) overhead() {
	r.header("Table (§4.4) — synchronization overhead, 1460 B at 12 Mbps")
	r.printf("%10s %12s %14s\n", "senders", "overhead(%)", "airtime(us)")
	for _, row := range sourcesync.RunOverheadTable() {
		r.printf("%10d %12.2f %14.1f\n", row.Senders, row.OverheadFraction*100, row.FrameAirtimeUs)
	}
	r.println("paper: 1.7% for two senders, 2.8% for five")
}

func (r *runner) detdelay() {
	r.header("Premise (§4.2a) — packet detection delay vs SNR")
	pts := sourcesync.RunDetDelay(r.ec(7), []float64{2, 4, 6, 9, 12, 18, 25}, r.shrink(60))
	r.printf("%8s %10s %10s %10s %6s %6s\n", "SNR(dB)", "mean(ns)", "std(ns)", "p95(ns)", "det", "miss")
	for _, p := range pts {
		r.printf("%8.1f %10.1f %10.1f %10.1f %6d %6d\n", p.SNRdB, p.MeanNs, p.StdNs, p.P95Ns, p.Detected, p.Missed)
	}
	r.println("paper (citing Williams et al.): variability on the order of hundreds of ns")
}

func (r *runner) ablations() {
	r.header("Ablation — phase-slope window (3 MHz vs whole band)")
	sw := sourcesync.RunAblationSlopeWindow(r.ec(8), r.shrink(200))
	r.printf("windowed RMS %.3f samples, whole-band RMS %.3f samples over %d draws\n",
		sw.WindowedRMS, sw.WholeBandRMS, sw.Draws)
	if r.canceled() {
		return
	}

	r.header("Ablation — Smart Combiner (STBC) vs naive identical transmission")
	nc := sourcesync.RunAblationNaiveCombining(r.ec(9), r.shrink(12))
	r.printf("worst-case effective SNR: STBC %.1f dB, naive %.1f dB (naive total failures: %d)\n",
		nc.STBCWorstSNRdB, nc.NaiveWorstSNRdB, nc.NaiveFailures)
	if r.canceled() {
		return
	}

	r.header("Ablation — shared pilots vs single phase track")
	ps := sourcesync.RunAblationPilotSharing(r.ec(10), r.shrink(6))
	r.printf("EVM with shared pilots %.4f, with naive tracking %.4f\n",
		ps.SharedPilotsEVM, ps.NaiveTrackEVM)
	if r.canceled() {
		return
	}

	r.header("Ablation — multi-receiver LP vs aligning at one receiver")
	lp := sourcesync.RunAblationMultiRxLP(r.ec(11), r.shrink(100))
	r.printf("mean worst-case misalignment: LP %.2f samples, first-rx alignment %.2f samples\n",
		lp.LPMaxMisalign, lp.FirstRxMisalign)
}

// scenarioRun is the copy of spec a run executes: -quick shrinks its
// placements and backlogs, exactly as it shrinks the coded experiments,
// and a positive Options.WindowSec overrides a backlogged spec's
// traffic.window_sec, as it sets the coded saturation runners' window.
func (r *runner) scenarioRun(spec *scenario.Spec) *scenario.Spec {
	run := *spec
	sp := &run
	sp.Topology.Placements = r.shrink(sp.Topology.Placements)
	sp.Traffic.Packets = r.shrink(sp.Traffic.Packets)
	if w := r.p.Options.WindowSec; w > 0 && sp.Traffic.Model == scenario.ModelBacklogged {
		sp.Traffic.WindowSec = w
	}
	return sp
}

// scenario runs and renders one declarative scenario spec — the generic
// path behind `ssbench -scenario`, ssserve inline specs, and the
// registered data-driven experiments (cell, arrivals, mobility). The
// header and body render the spec's run copy (scenarioRun).
func (r *runner) scenario(spec *scenario.Spec) error {
	sp := r.scenarioRun(spec)
	points, err := sourcesync.RunScenario(r.ec(sp.SeedOffset), sp)
	if err != nil {
		return err
	}
	r.header(sp.DisplayTitle())
	switch {
	case sp.Traffic.Model == scenario.ModelBacklogged:
		r.cellBody(sp, points[0])
	case sp.Mobility != nil:
		r.mobilityBody(sp, points[0])
	default:
		r.arrivalsBody(sp, points)
	}
	return nil
}

// scenarioConfig is the one-line run configuration under a scenario
// header, built from the spec fields that reached the run.
func (r *runner) scenarioConfig(sp *scenario.Spec) string {
	var b strings.Builder
	t := sp.Topology
	if t.Family == scenario.FamilyMulticell {
		fmt.Fprintf(&b, "cells=%d aps/cell=%d clients/cell=%d cs-range=%.0fm", t.Cells, t.APs, t.Clients, t.CSRangeM)
	} else {
		fmt.Fprintf(&b, "clients=%d APs=%d", t.Clients, t.APs)
	}
	fmt.Fprintf(&b, " payload=%dB window=%.2fs", sp.Traffic.PayloadBytes, sp.Traffic.WindowSec)
	if sp.Traffic.Model == scenario.ModelOnOff {
		fmt.Fprintf(&b, " burst=%.2fs on/%.2fs off", sp.Traffic.BurstOnSec, sp.Traffic.BurstOffSec)
	}
	if sp.Traffic.DeadlineSec > 0 {
		fmt.Fprintf(&b, " deadline=%.0fms", sp.Traffic.DeadlineSec*1000)
	}
	if m := sp.Mobility; m != nil {
		fmt.Fprintf(&b, " speed=%.1fm/s epoch=%.2fs", m.SpeedMps, m.EpochSec)
	}
	if c := sp.Churn; c != nil {
		if c.JoinStaggerSec > 0 {
			fmt.Fprintf(&b, " join-stagger=%.2fs", c.JoinStaggerSec)
		}
		if c.LeaveAfterSec > 0 {
			fmt.Fprintf(&b, " leave-after=%.2fs", c.LeaveAfterSec)
		}
	}
	fmt.Fprintf(&b, " placements=%d model=rate-aware", sp.Topology.Placements)
	return b.String()
}

// arrivalsBody renders an offered-load table: one row per swept rate,
// with each scheme's median goodput and delivered fraction.
func (r *runner) arrivalsBody(sp *scenario.Spec, points []sourcesync.PointStats) {
	r.println(r.scenarioConfig(sp))
	schemes := sp.SchemeList()
	r.printf("%10s", "load(pps)")
	for _, s := range schemes {
		r.printf(" %13s %7s", s+"(Mbps)", "del(%)")
	}
	if len(schemes) == 2 {
		r.printf(" %7s", "gain")
	}
	r.println()
	for _, pt := range points {
		r.printf("%10.0f", pt.RatePps)
		for _, st := range pt.Schemes {
			r.printf(" %13.2f %7.1f", st.MedianMbps, deliveredPct(st))
		}
		if len(schemes) == 2 {
			r.printf(" %6.2fx", pt.MedianGain(1, 0))
		}
		r.println()
	}
	if sp.Traffic.DeadlineSec > 0 {
		r.printf("deadline-expired packets:")
		for si, s := range schemes {
			total := 0
			for _, pt := range points {
				total += pt.Schemes[si].Expired
			}
			r.printf(" %s %d", s, total)
		}
		r.println()
	}
	r.println("as load grows past the cell's capacity, joint service holds its delivery edge")
}

// mobilityBody renders the drifting-clients comparison: one row per
// scheme plus the handoff rate the shared trajectory produced.
func (r *runner) mobilityBody(sp *scenario.Spec, pt sourcesync.PointStats) {
	r.println(r.scenarioConfig(sp))
	r.printf("%10s %14s %8s %10s\n", "scheme", "goodput(Mbps)", "del(%)", "abandoned")
	for _, st := range pt.Schemes {
		r.printf("%10s %14.2f %8.1f %10d\n", st.Scheme, st.MedianMbps, deliveredPct(st), st.Abandoned)
	}
	if len(pt.Schemes) == 2 {
		r.printf("median joint/single goodput gain: %.2fx; ", pt.MedianGain(1, 0))
	}
	// The drift trajectory is scheme-independent, so the last scheme's
	// handoffs stand for each trial.
	r.printf("handoffs/client over the window: %.2f\n", pt.Schemes[len(pt.Schemes)-1].HandoffsPerClient)
	r.println("drifting clients re-anchor at cell boundaries; joint service rides out the handoff dip")
}

// deliveredPct is the percentage of offered packets a scheme delivered.
func deliveredPct(st sourcesync.SchemeStats) float64 {
	if st.Arrived == 0 {
		return 0
	}
	return 100 * float64(st.Delivered) / float64(st.Arrived)
}
