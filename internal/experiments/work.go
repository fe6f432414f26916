package experiments

import "repro/internal/scenario"

// maxFramesPerSec bounds the frames one cell, one collision domain, can
// carry per virtual second however many clients it serves: on the 802.11
// profile every packet-level run uses, one exchange (DIFS, a one-byte
// frame at the fastest rate, SIFS and its ACK) holds the medium for over
// 100 µs. A saturation window's work is this rate times the window, per
// cell.
const maxFramesPerSec = 10000

// Work is a run's estimated size: the downlink packets its simulations
// offer, summed over every placement, sweep point, scheme and client.
type Work struct {
	Packets float64
	// Field names the request field with the largest factor in the
	// estimate ("options.cells", "scenario.topology.placements", ...), or
	// is empty when no request field reaches it.
	Field string
}

// factor is one multiplicand of a work term: a value and the request
// field it comes from, empty for a value the code fixes.
type factor struct {
	field string
	value float64
}

// term is one table's work: the product of its factors.
type term []factor

// EstimateWork estimates what running name (a registered experiment,
// "all" or "scenario") with p would simulate, so a service can refuse a
// request too large to finish before it runs. It counts only the work a
// request can scale:
//   - cellsweep's cell-count and carrier-sense tables grow with
//     Options.Cells and Options.CSRanges;
//   - a backlogged run (cell, cellsweep, metro, a backlogged spec) offers
//     placements × schemes × clients × packets, or, in a saturation window,
//     placements × schemes × cells × window × maxFramesPerSec;
//   - an arrival spec offers placements × schemes × clients × offered
//     rate × window, its rate summed over the sweep.
//
// The PHY figures, fig17, fig18, crosstraffic and overhead have sizes no
// request field reaches; they estimate zero. The arithmetic is float64, so
// products that would overflow an int64 (cells × clients can) still
// compare above any cap: they round, or reach +Inf.
func EstimateWork(name string, p Params) Work {
	r := &runner{p: p.normalized()}
	var terms []term
	if name == "all" {
		for _, n := range names {
			terms = append(terms, r.workTerms(n)...)
		}
	} else {
		terms = r.workTerms(name)
	}
	var w Work
	largest := 0.0
	for _, t := range terms {
		packets := 1.0
		for _, f := range t {
			packets *= f.value
			if f.field != "" && f.value > largest {
				w.Field, largest = f.field, f.value
			}
		}
		w.Packets += packets
	}
	return w
}

// workTerms returns the work terms of one registered experiment or of an
// inline spec (name "scenario"). The coded saturation experiments run
// both schemes, best single AP and joint.
func (r *runner) workTerms(name string) []term {
	switch name {
	case "cellsweep":
		o := r.cellSweepOptions()
		runs := factor{"", float64(o.Placements * 2)}
		perCell := float64(r.shrink(sweepClients))
		return []term{
			{runs, {"", float64(o.Cells)}, backlog(o.WindowSec, o.Packets, sum(o.ClientsPer), len(o.ClientsPer))},
			{runs, {"options.cells", sum(r.p.Options.Cells)}, backlog(o.WindowSec, o.Packets, perCell, 1)},
			{runs, {"options.cs_ranges", float64(len(r.p.Options.CSRanges))}, {"", float64(o.Cells)},
				backlog(o.WindowSec, o.Packets, perCell, 1)},
		}
	case "metro":
		o := r.metroOptions()
		return []term{{{"", float64(o.Placements * 2 * o.CellsX * o.CellsY)},
			backlog(o.WindowSec, o.Packets, sum(o.ClientsPer), len(o.ClientsPer))}}
	case "cell", "arrivals", "mobility":
		sp, _ := scenario.Builtin(name)
		return []term{r.scenarioTerm(sp, "")}
	case "scenario":
		if r.p.Scenario == nil {
			return nil
		}
		return []term{r.scenarioTerm(r.p.Scenario, "scenario.")}
	}
	return nil
}

// backlog is a coded saturation table's work per cell, summed over its
// points: its clients' packets, or in a saturation window (set only by
// options.window_sec) each point's frames.
func backlog(window float64, packets int, clients float64, points int) factor {
	if window > 0 {
		return factor{"options.window_sec", float64(points) * window * maxFramesPerSec}
	}
	return factor{"", clients * float64(packets)}
}

// scenarioTerm is the work of one spec's run copy. prefix names the
// spec's own fields as request fields ("scenario." for an inline spec);
// empty leaves a builtin's fields unnamed, as the code fixes them.
func (r *runner) scenarioTerm(spec *scenario.Spec, prefix string) term {
	named := func(field string) string {
		if prefix == "" {
			return ""
		}
		return prefix + field
	}
	sp := r.scenarioRun(spec)
	t := term{
		{named("topology.placements"), float64(sp.Topology.Placements)},
		{"", float64(len(sp.SchemeList()))},
		{named("topology.cells"), float64(max(sp.Topology.Cells, 1))},
	}
	clients := factor{named("topology.clients"), float64(sp.Topology.Clients)}
	window := factor{named("traffic.window_sec"), sp.Traffic.WindowSec}
	if sp.Traffic.Model == scenario.ModelBacklogged {
		if sp.Traffic.WindowSec == 0 {
			return append(t, clients, factor{named("traffic.packets"), float64(sp.Traffic.Packets)})
		}
		if r.p.Options.WindowSec > 0 {
			window.field = "options.window_sec"
		}
		window.value *= maxFramesPerSec
		return append(t, window)
	}
	rate := factor{named("traffic.rate_pps"), sp.Traffic.RatePps}
	if len(sp.Traffic.RateSweepPps) > 0 {
		rate = factor{named("traffic.rate_sweep_pps"), sum(sp.Traffic.RateSweepPps)}
	}
	return append(t, clients, rate, window)
}

// sum adds xs in float64, where no int sum can overflow.
func sum[T int | float64](xs []T) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s
}
