package exp

import (
	"time"

	"repro/internal/metrics"
)

// Fig12 reproduces Figure 12: probability of event reception as a
// function of the validity period and the number of subscribers, in a
// heterogeneous mobile environment where processes move at random speeds
// between 1 and 40 m/s. Rows are validity periods, columns subscriber
// fractions.
func Fig12(o Options) (*Output, error) {
	env := rwpBase(o)
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	validities := []time.Duration{
		40 * time.Second, 80 * time.Second, 120 * time.Second, 180 * time.Second,
	}
	seeds := o.seedCount(5, 30)
	if o.Full {
		validities = []time.Duration{
			40 * time.Second, 60 * time.Second, 80 * time.Second,
			100 * time.Second, 120 * time.Second, 140 * time.Second,
			160 * time.Second, 180 * time.Second,
		}
	} else {
		fracs = []float64{0.2, 0.6, 1.0}
	}

	rels, err := meanGrid(o, []int{len(validities), len(fracs)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			sc := rwpScenario(env, 1, 40, fracs[ix[1]], seed)
			sc.Name = "fig12"
			return reliabilityPoint(sc, -1, validities[ix[0]])
		})
	if err != nil {
		return nil, err
	}

	cols := []string{"validity[s]"}
	for _, f := range fracs {
		cols = append(cols, fmtPctCol(f))
	}
	tb := metrics.NewTable(
		"Fig 12 — reliability, heterogeneous speeds 1-40 m/s (random waypoint)",
		cols...)
	for vi, v := range validities {
		row := []string{fmtSeconds(v)}
		for fi, frac := range fracs {
			rel := metrics.Pct(rels.At(vi, fi)[0])
			row = append(row, rel)
			o.progress("fig12 frac=%v validity=%v -> %s", frac, v, rel)
		}
		tb.AddRow(row...)
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}
