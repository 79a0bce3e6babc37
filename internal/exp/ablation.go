package exp

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Ablations quantifies the design choices DESIGN.md calls out by flipping
// one mechanism at a time on a fixed mid-size scenario:
//
//   - proportional back-off (BODelay ~ 1/|eventsToSend|) vs fixed,
//   - suppression (cancel-on-overhear) on vs off,
//   - the event-id pre-exchange vs blind pushing,
//   - the adaptive heartbeat vs a fixed period,
//
// plus the event-table GC policy (Equation 1 vs FIFO vs random) on a
// memory-starved variant.
func Ablations(o Options) (*Output, error) {
	seeds := o.seedCount(3, 10)
	variants := []struct {
		name string
		mut  func(*netsim.CoreTuning)
	}{
		{"paper", func(*netsim.CoreTuning) {}},
		{"fixed-backoff", func(c *netsim.CoreTuning) { c.FixedBackoff = true }},
		{"no-suppression", func(c *netsim.CoreTuning) { c.DisableSuppression = true }},
		{"blind-push", func(c *netsim.CoreTuning) { c.BlindPush = true }},
		{"fixed-heartbeat", func(c *netsim.CoreTuning) { c.DisableAdaptiveHB = true }},
	}
	means, err := meanGrid(o, []int{len(variants)}, seeds, func(ix []int, seed int64) ([]float64, error) {
		res, err := ablationRun(o, variants[ix[0]].mut, 0, seed)
		if err != nil {
			return nil, err
		}
		return []float64{
			res.Reliability(),
			res.AppBytesPerProcess(),
			res.EventsSentPerProcess(),
			res.DuplicatesPerProcess(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		"Ablations — mechanism off vs paper design (random waypoint, 10 m/s, 80% subscribers, 5 events)",
		"variant", "reliability", "bw/process", "events-sent", "duplicates")
	for vi, v := range variants {
		m := means.At(vi)
		tb.AddRow(v.name, metrics.Pct(m[0]), metrics.KB(m[1]), metrics.F1(m[2]), metrics.F1(m[3]))
		o.progress("ablation %s -> rel=%s", v.name, metrics.Pct(m[0]))
	}

	policies := []struct {
		name   string
		policy core.GCPolicy
	}{
		{"paper (val/(fwd+val))", core.GCPaper},
		{"fifo", core.GCFIFO},
		{"random", core.GCRandom},
	}
	gcMeans, err := meanGrid(o, []int{len(policies)}, seeds, func(ix []int, seed int64) ([]float64, error) {
		res, err := ablationRun(o, func(c *netsim.CoreTuning) {
			c.GCPolicy = policies[ix[0]].policy
		}, 3, seed)
		if err != nil {
			return nil, err
		}
		var ev float64
		for _, n := range res.Nodes {
			ev += float64(n.Proto.TableEvictions)
		}
		return []float64{res.Reliability(), ev / float64(len(res.Nodes))}, nil
	})
	if err != nil {
		return nil, err
	}
	gcTable := metrics.NewTable(
		"Ablations — event-table GC policy under memory pressure (table capacity 3, 8 events)",
		"policy", "reliability", "evictions/process")
	for pi, pol := range policies {
		m := gcMeans.At(pi)
		gcTable.AddRow(pol.name, metrics.Pct(m[0]), metrics.F1(m[1]))
		o.progress("gc ablation %s -> rel=%s", pol.name, metrics.Pct(m[0]))
	}
	return &Output{Tables: []*metrics.Table{tb, gcTable}}, nil
}

// ablationRun executes the ablation scenario: random waypoint, 10 m/s,
// 80% subscribers, events with a validity spanning the window. maxEvents
// 0 keeps the table unbounded; the GC ablation shrinks it to force
// evictions (8 events through a 3-slot table).
func ablationRun(o Options, mut func(*netsim.CoreTuning), maxEvents int, seed int64) (*netsim.Result, error) {
	env := rwpBase(o)
	validity := 60 * time.Second
	if o.Full {
		validity = 120 * time.Second
	}
	sc := rwpScenario(env, 10, 10, 0.8, seed)
	sc.Name = "ablation"
	tun := frugalTuning(sc)
	tun.HBUpperBound = 2 * time.Second // leave headroom for the adaptive HB to matter
	tun.MaxEvents = maxEvents
	mut(&tun)
	sc.Protocol = netsim.FrugalSpec(tun)
	n := 5
	if maxEvents > 0 {
		n = 8 // overflow the table to exercise GC
	}
	for i := 0; i < n; i++ {
		sc.Publications = append(sc.Publications, netsim.Publication{
			Offset:    time.Duration(i) * 500 * time.Millisecond,
			Publisher: -1,
			Validity:  validity,
		})
	}
	sc.Measure = validity
	return netsim.Run(sc)
}
