package exp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// scalePanel is the fixed protocol panel of the scale family: the
// paper's protocol against the push-pull gossip baseline and the best
// flooding alternative. Unlike the registry-backed scenarios family
// the panel is pinned — the point is how each class scales with N, not
// registry coverage — so Options.Protocol is ignored here, like in the
// figure sweeps.
func scalePanel(tmpl netsim.ProtocolSpec) []netsim.ProtocolSpec {
	return []netsim.ProtocolSpec{
		tmpl, // frugal with the metro tuning
		{Name: "gossip-pushpull"},
		{Name: "interests-aware-flooding"},
	}
}

// megacityFloor is the first node count considered a megacity tier:
// tiers at or above it only run under an explicit Options.Budget.
const megacityFloor = 25000

// scaleCounts returns the node-count axis: city-block to megacity
// scale. The tiers beyond metro-10k are budget-gated (see Scale).
func scaleCounts(full bool) []int {
	if full {
		return []int{300, 1000, 2500, 5000, 10000, 25000, 50000}
	}
	return []int{300, 600, 1200, 2500}
}

// tierEstimate predicts the wall clock of an n-node tier from the
// completed tiers by fitting the growth exponent of the last two
// (clamped to [1,3]; engine cost is near-linear in N at constant
// density, with superlinear log and cache terms). With a single
// completed tier it assumes N^1.5.
func tierEstimate(n int, done []int, durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0 // first tier always runs
	}
	alpha := 1.5
	if len(durs) >= 2 {
		i := len(durs) - 1
		dt := float64(durs[i]) / float64(durs[i-1])
		dn := float64(done[i]) / float64(done[i-1])
		if dt > 1 && dn > 1 {
			alpha = math.Min(3, math.Max(1, math.Log(dt)/math.Log(dn)))
		}
	}
	grow := math.Pow(float64(n)/float64(done[len(done)-1]), alpha)
	return time.Duration(float64(durs[len(durs)-1]) * grow)
}

// Scale is the city-sweep experiment: the metro environment (the
// metro-5k/metro-10k/metro-50k registry template) swept over node
// count for frugal vs gossip vs flooding. The city grows with the
// roster at the metro family's constant ~440 vehicles/km^2
// (netsim.MetroGraphDims) — the honest scaling axis, since packing a
// fixed area denser inflates per-frame reception work quadratically
// and measures congestion, not scale. The default run climbs 300→2500
// nodes on a shortened measurement window; -full runs the template's
// full window up to the 10k-node city, and the megacity tiers (25k,
// 50k) on top when Options.Budget grants the wall clock. One seed per
// point by default — each point is a whole city simulation — so expect
// minutes, not seconds.
//
// Tiers run smallest first, each a parallel (protocol × seed) grid,
// and the table grows tier by tier; enumeration and fold order match
// the untruncated sweep exactly, so a budget only ever cuts trailing
// rows, never changes earlier ones.
func Scale(o Options) (*Output, error) {
	def, ok := netsim.LookupScenario("metro-5k")
	if !ok {
		return nil, fmt.Errorf("exp: metro scenario family not registered")
	}
	counts := scaleCounts(o.Full)
	seeds := o.seedCount(1, 1)
	panel := scalePanel(def.Template.Protocol)
	// Per point: the traffic panel, then frames lost.
	runTier := func(nodes int) (*gridResults[[]float64], error) {
		return meanGrid(o, []int{len(panel)}, seeds,
			func(ix []int, seed int64) ([]float64, error) {
				sc := def.Instantiate(seed)
				sc.Nodes = nodes
				sc.Protocol = panel[ix[0]]
				cols, rows := netsim.MetroGraphDims(sc.Nodes)
				sc.Mobility.Graph = mobility.NewManhattanStyleGraph(cols, rows)
				if !o.Full {
					// Scaling shape, not absolute reproduction: a shorter
					// window keeps the default sweep in minutes.
					sc.Warmup = 5 * time.Second
					sc.Measure = 30 * time.Second
				}
				res, err := netsim.Run(sc)
				if err != nil {
					return nil, fmt.Errorf("scale %d nodes, %v: %w", sc.Nodes, sc.Protocol, err)
				}
				return append(traffic(res), float64(res.FramesLostTotal())), nil
			})
	}

	tb := metrics.NewTable(
		fmt.Sprintf("Scale — metro city sweep, %d seed(s) per point (frugal vs gossip vs flood)", seeds),
		append(append([]string{"nodes", "protocol"}, trafficCols...), "frames lost")...)
	var done []int
	var durs []time.Duration
	truncated := ""
	start := time.Now()
	for ci, n := range counts {
		elapsed := time.Since(start)
		est := tierEstimate(n, done, durs)
		if ci > 0 {
			switch {
			case n >= megacityFloor && o.Budget == 0:
				truncated = fmt.Sprintf("megacity tiers ≥%d skipped: set a -budget", megacityFloor)
			case o.Budget > 0 && elapsed+est > o.Budget:
				truncated = fmt.Sprintf("tiers ≥%d skipped: est %v past the %v budget (elapsed %v)",
					n, est.Round(time.Second), o.Budget, elapsed.Round(time.Second))
			}
			if truncated != "" {
				o.progress("scale: %s", truncated)
				break
			}
		}
		if est > 0 {
			o.progress("scale: %d-node tier starting (est %v, elapsed %v, budget %v)",
				n, est.Round(time.Second), elapsed.Round(time.Second), o.Budget)
		}
		t0 := time.Now()
		means, err := runTier(n)
		if err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
		done = append(done, n)
		for pi, spec := range panel {
			m := means.At(pi)
			row := append([]string{fmt.Sprintf("%d", n), spec.String()}, trafficCells(m)...)
			tb.AddRow(append(row, fmt.Sprintf("%.0f", m[4]))...)
			o.progress("scale %d %v -> %s", n, spec, metrics.Pct(m[0]))
		}
		o.progress("scale: %d-node tier done in %v", n, durs[len(durs)-1].Round(time.Second))
	}
	if truncated != "" {
		tb.Title += " — " + truncated
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}
