package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// ------------------------------------------------------------- scenario
//
// This file executes declarative scenario specs (internal/scenario): it
// maps a parsed spec onto the same lasthop/netsim machinery the
// registered experiments use. Every spec runs on the cell family's trial
// runner (runCells), one run per scheme per placement. Backlogged specs —
// the builtin cell experiment among them — run saturated; arrival-driven
// specs run fixed windows with netsim's traffic layer attached, one grid
// point per swept rate; mobility specs additionally drift every client at
// each waypoint epoch.

// RunScenario executes one validated scenario spec exactly as given: its
// placement and packet counts are the run's, with no -quick rule of its
// own. ec.Seed is the fully derived seed (base seed + the spec's seed
// offset). It returns one PointStats per offered load: one per swept rate,
// or a single point for a one-rate or backlogged spec (the cell
// experiment's only code path: one point of placements, each drained
// under both serving modes).
func RunScenario(ec engine.Config, sp *scenario.Spec) ([]PointStats, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	rates := sp.Traffic.RateSweepPps
	if len(rates) == 0 {
		rates = []float64{sp.Traffic.RatePps} // 0 for a backlogged spec
	}
	points := reducePoints(sp.SchemeList(), scenarioTrials(ec, sp, rates))
	for i := range points {
		points[i].RatePps = rates[i]
	}
	return points, nil
}

// scenarioTraffic builds client i's arrival config at the given rate: a
// fresh process per call (on/off processes carry renewal state), plus the
// spec's deadline and churn window.
func scenarioTraffic(sp *scenario.Spec, ratePps float64, client int) netsim.TrafficConfig {
	var proc netsim.ArrivalProcess
	switch sp.Traffic.Model {
	case scenario.ModelOnOff:
		proc = &netsim.OnOff{
			RatePps:    ratePps,
			MeanOnSec:  sp.Traffic.BurstOnSec,
			MeanOffSec: sp.Traffic.BurstOffSec,
		}
	default:
		proc = netsim.Poisson{RatePps: ratePps}
	}
	cfg := netsim.TrafficConfig{Process: proc, DeadlineSec: sp.Traffic.DeadlineSec}
	if ch := sp.Churn; ch != nil {
		cfg.StartSec = ch.JoinStaggerSec * float64(client)
		if ch.LeaveAfterSec > 0 {
			cfg.StopSec = cfg.StartSec + ch.LeaveAfterSec
		}
	}
	return cfg
}

// scenClient is one client's current position and serving cell inside a
// scenario topology.
type scenClient struct {
	pos   testbed.Point
	cell  int
	links []testbed.Link
}

// scenTopo is one placement of a scenario topology: AP positions per cell
// plus the clients, cell-major, with their serving links.
type scenTopo struct {
	cellAPs [][]testbed.Point
	clients []scenClient
}

// buildScenarioTopology draws one placement. The cell family is the cell
// experiment's placement (placeCell: shadowed links drawn per AP-client
// pair). The multicell family lays cells in a row along +X, spaced at 1.5x
// the carrier-sense range; it draws every cell's APs (apSite, sampled by
// metroPoint in a 10 m half-width square) before any client, then each
// cell's clients (clientSite of their own cell's APs, sampled in a 36 m
// half-width square). Its links come from the mean path-loss profile — no
// shadowing draw — so a mobility epoch can re-derive them
// deterministically as clients move.
func buildScenarioTopology(rng *rand.Rand, env *testbed.Testbed, sp *scenario.Spec) *scenTopo {
	t := &scenTopo{}
	if sp.Topology.Family == scenario.FamilyCell {
		aps, clientPos, links := placeCell(rng, env, sp.Topology.APs, sp.Topology.Clients)
		t.cellAPs = [][]testbed.Point{aps}
		for c := range clientPos {
			t.clients = append(t.clients, scenClient{pos: clientPos[c], links: links[c]})
		}
		return t
	}
	spacing := 1.5 * sp.Topology.CSRangeM
	for ci := 0; ci < sp.Topology.Cells; ci++ {
		center := testbed.Point{X: spacing/2 + float64(ci)*spacing}
		aps := make([]testbed.Point, sp.Topology.APs)
		for a := range aps {
			aps[a] = metroPoint(rng, center, 10, apSite(center, aps[:a]))
		}
		t.cellAPs = append(t.cellAPs, aps)
	}
	for ci := 0; ci < sp.Topology.Cells; ci++ {
		center := testbed.Point{X: spacing/2 + float64(ci)*spacing}
		aps := t.cellAPs[ci]
		for c := 0; c < sp.Topology.Clients; c++ {
			pos := metroPoint(rng, center, 36, clientSite(aps))
			t.clients = append(t.clients, scenClient{
				pos: pos, cell: ci, links: meanLinks(env, aps, pos),
			})
		}
	}
	return t
}

// meanLinks derives the serving links from the mean path-loss profile at
// the current distances — deterministic, so mobility epochs can rebuild
// them without consuming randomness.
func meanLinks(env *testbed.Testbed, aps []testbed.Point, pos testbed.Point) []testbed.Link {
	row := make([]testbed.Link, len(aps))
	for a := range aps {
		d := testbed.Dist(aps[a], pos)
		row[a] = env.LinkAtSNR(env.MeanSNRdB(d), d)
	}
	return row
}

// bestCell returns the cell whose nearest AP is closest to p.
func (t *scenTopo) bestCell(p testbed.Point) int {
	best, bd := 0, math.Inf(1)
	for ci, aps := range t.cellAPs {
		for _, ap := range aps {
			if d := testbed.Dist(ap, p); d < bd {
				bd, best = d, ci
			}
		}
	}
	return best
}

// instantiate builds a fresh lasthop.Cell for one scheme run, with its
// own copies of the position/link rows (a mobility run mutates them, and
// every scheme must start from the same placement): a backlogged spec
// gives every client its backlog, an arrival-driven one the spec's
// traffic at ratePps, and under mobility the per-epoch drift is wired up,
// returning the epoch's serving-cell handoffs.
func (t *scenTopo) instantiate(sp *scenario.Spec, env *testbed.Testbed, m mac.Params,
	model netsim.InterferenceModel, ratePps float64) lasthop.Cell {
	n := len(t.clients)
	links := make([][]testbed.Link, n)
	apPos := make([][]testbed.Point, n)
	clientPos := make([]testbed.Point, n)
	cur := make([]scenClient, n)
	copy(cur, t.clients)
	for c := range cur {
		links[c] = append([]testbed.Link(nil), cur[c].links...)
		apPos[c] = t.cellAPs[cur[c].cell]
		clientPos[c] = cur[c].pos
	}
	cell := lasthop.Cell{
		Mac:                m,
		PayloadBytes:       sp.Traffic.PayloadBytes,
		Links:              links,
		APPos:              apPos,
		ClientPos:          clientPos,
		CSRangeM:           sp.Topology.CSRangeM,
		InterferenceRangeM: sp.Topology.InterferenceRangeM,
		Model:              model,
		Env:                env,
		WindowSec:          sp.Traffic.WindowSec,
	}
	if sp.Traffic.Model == scenario.ModelBacklogged {
		cell.PacketsPerClient = sp.Traffic.Packets
	} else {
		cell.Traffic = func(client int) netsim.TrafficConfig {
			return scenarioTraffic(sp, ratePps, client)
		}
	}
	if sp.Mobility != nil {
		step := sp.Mobility.SpeedMps * sp.Mobility.EpochSec
		cell.MobilityEpochSec = sp.Mobility.EpochSec
		cell.MoveClients = func(float64) int {
			handoffs := 0
			for c := range cur {
				cur[c].pos.X += step
				if best := t.bestCell(cur[c].pos); best != cur[c].cell {
					cur[c].cell = best
					handoffs++
				}
				aps := t.cellAPs[cur[c].cell]
				apPos[c] = aps
				links[c] = meanLinks(env, aps, cur[c].pos)
				clientPos[c] = cur[c].pos
			}
			return handoffs
		}
	}
	return cell
}

// scenarioTrials runs a spec's (rate, placement) grid on the cell
// family's runner: each trial draws one placement and runs every scheme
// of the spec over it at the point's per-client rate (ignored by
// backlogged specs).
func scenarioTrials(ec engine.Config, sp *scenario.Spec, rates []float64) [][][]schemeRun {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), sp.Traffic.PayloadBytes)
	return runCells(ec, len(rates), sp.Topology.Placements, sp.SchemeList(), func(pt int, rng *rand.Rand) func() lasthop.Cell {
		topo := buildScenarioTopology(rng, env, sp)
		return func() lasthop.Cell { return topo.instantiate(sp, env, m, model, rates[pt]) }
	})
}
