package exp

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// The frugality experiments (Figures 17-20) share one parameter sweep:
// random waypoint at 10 m/s, events 1..20 of 400 bytes with 180 s
// validity, subscribers 20%..100%, comparing the frugal protocol against
// the three flooding baselines. The sweep is memoized so that regenerating
// all four figures costs one pass.

// The metrics of one frugality point, as indices into a means cell.
const (
	frugalBandwidth = iota // app bytes sent per process
	frugalSent             // event copies sent per process
	frugalDups             // duplicates received per process
	frugalParasites        // parasite events received per process
)

type frugalData struct {
	protocols []netsim.ProtocolSpec
	events    []int
	pcts      []int
	// means is addressed At(protocol, events, pct) with indices into
	// the three axes above.
	means *gridResults[[]float64]
}

var frugalMemo memo[frugalData]

// frugalWindow is the sweep's event validity and measurement window.
func frugalWindow(o Options) time.Duration {
	if o.Full {
		return 180 * time.Second // paper: 180 s measurement window
	}
	return 60 * time.Second
}

func frugalitySweep(o Options) (*frugalData, error) {
	seeds := o.seedCount(2, 10)
	return frugalMemo.get(seeds, o.Full, func() (*frugalData, error) {
		d := &frugalData{
			// Paper panel in figure order; baselines resolve by registry name.
			protocols: []netsim.ProtocolSpec{
				rwpFrugal(),
				{Name: "interests-aware-flooding"},
				{Name: "simple-flooding"},
				{Name: "neighbors-interests-flooding"},
			},
			events: []int{1, 5, 10},
			pcts:   []int{20, 60, 100},
		}
		if o.Full {
			d.events = []int{1, 5, 10, 15, 20}
			d.pcts = []int{20, 40, 60, 80, 100}
		}
		env, window := rwpBase(o), frugalWindow(o)
		var err error
		d.means, err = meanGrid(o, []int{len(d.protocols), len(d.events), len(d.pcts)}, seeds,
			func(ix []int, seed int64) ([]float64, error) {
				res, err := frugalityRun(env, d.protocols[ix[0]], d.events[ix[1]], d.pcts[ix[2]],
					window, seed)
				if err != nil {
					return nil, err
				}
				return []float64{
					frugalBandwidth: res.AppBytesPerProcess(),
					frugalSent:      res.EventsSentPerProcess(),
					frugalDups:      res.DuplicatesPerProcess(),
					frugalParasites: res.ParasitesPerProcess(),
				}, nil
			})
		if err != nil {
			return nil, err
		}
		for pi, proto := range d.protocols {
			for ni, n := range d.events {
				for ci, pct := range d.pcts {
					m := d.means.At(pi, ni, ci)
					o.progress("frugality %v events=%d interest=%d%% -> bw=%s sent=%.1f dup=%.1f par=%.1f",
						proto, n, pct, metrics.KB(m[frugalBandwidth]),
						m[frugalSent], m[frugalDups], m[frugalParasites])
				}
			}
		}
		return d, nil
	})
}

// frugalityRun executes one frugality scenario: n events published by
// random subscribers shortly after warm-up, all with the full-window
// validity (the paper publishes 1-20 events of 400 bytes and measures for
// 180 s at 10 m/s).
func frugalityRun(env rwpEnv, proto netsim.ProtocolSpec, n, pct int, validity time.Duration, seed int64) (*netsim.Result, error) {
	sc := rwpScenario(env, 10, 10, float64(pct)/100, seed)
	sc.Name = fmt.Sprintf("frugality-%v", proto)
	sc.Protocol = proto
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

// renderFrugality turns one metric of the sweep into a table: rows are
// (protocol, events-to-publish), columns the subscriber percentages.
func renderFrugality(o Options, title string, metric int, format func(float64) string) (*Output, error) {
	d, err := frugalitySweep(o)
	if err != nil {
		return nil, err
	}
	cols := []string{"protocol", "events"}
	for _, pct := range d.pcts {
		cols = append(cols, fmt.Sprintf("%d%%", pct))
	}
	tb := metrics.NewTable(title, cols...)
	for pi, proto := range d.protocols {
		for ni, n := range d.events {
			row := []string{proto.String(), fmt.Sprintf("%d", n)}
			for ci := range d.pcts {
				row = append(row, format(d.means.At(pi, ni, ci)[metric]))
			}
			tb.AddRow(row...)
		}
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}

// Fig17 reproduces Figure 17: bandwidth used per process as a function of
// the number of events to publish and the number of subscribers.
func Fig17(o Options) (*Output, error) {
	return renderFrugality(o,
		fmt.Sprintf("Fig 17 — bandwidth per process over %s (app bytes: heartbeats + id lists + events)", frugalWindow(o)),
		frugalBandwidth, metrics.KB)
}

// Fig18 reproduces Figure 18: number of events sent per process.
func Fig18(o Options) (*Output, error) {
	return renderFrugality(o, "Fig 18 — events sent per process", frugalSent, metrics.F1)
}

// Fig19 reproduces Figure 19: number of duplicates received per process.
func Fig19(o Options) (*Output, error) {
	return renderFrugality(o, "Fig 19 — duplicates received per process", frugalDups, metrics.F1)
}

// Fig20 reproduces Figure 20: number of parasite events received per
// process.
func Fig20(o Options) (*Output, error) {
	return renderFrugality(o, "Fig 20 — parasite events received per process", frugalParasites, metrics.F1)
}
