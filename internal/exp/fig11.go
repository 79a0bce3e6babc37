package exp

import (
	"time"

	"repro/internal/metrics"
)

// Fig11 reproduces Figure 11: probability of event reception as a
// function of the validity period, the speed of the processes and the
// number of subscribers (20% and 80%), in the random waypoint model.
// One table per subscriber fraction; rows are validity periods, columns
// speeds.
func Fig11(o Options) (*Output, error) {
	env := rwpBase(o)
	fracs := []float64{0.2, 0.8}
	speeds := []float64{0, 1, 5, 10, 20, 30, 40}
	validities := []time.Duration{
		20 * time.Second, 60 * time.Second, 100 * time.Second,
		140 * time.Second, 180 * time.Second,
	}
	seeds := o.seedCount(5, 30)
	if o.Full {
		validities = []time.Duration{
			20 * time.Second, 40 * time.Second, 60 * time.Second,
			80 * time.Second, 100 * time.Second, 120 * time.Second,
			140 * time.Second, 160 * time.Second, 180 * time.Second,
		}
	} else {
		speeds = []float64{0, 1, 10, 30}
	}

	rels, err := meanGrid(o, []int{len(fracs), len(validities), len(speeds)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			sc := rwpScenario(env, speeds[ix[2]], speeds[ix[2]], fracs[ix[0]], seed)
			sc.Name = "fig11"
			return reliabilityPoint(sc, -1, validities[ix[1]])
		})
	if err != nil {
		return nil, err
	}

	out := &Output{}
	for fi, frac := range fracs {
		cols := []string{"validity[s]"}
		for _, s := range speeds {
			cols = append(cols, metrics.F1(s)+"mps")
		}
		tb := metrics.NewTable(
			"Fig 11 — reliability, random waypoint, "+fmtPctCol(frac)+" subscribers",
			cols...)
		for vi, v := range validities {
			row := []string{fmtSeconds(v)}
			for si, speed := range speeds {
				rel := metrics.Pct(rels.At(fi, vi, si)[0])
				row = append(row, rel)
				o.progress("fig11 frac=%v speed=%v validity=%v -> %s", frac, speed, v, rel)
			}
			tb.AddRow(row...)
		}
		out.Tables = append(out.Tables, tb)
	}
	return out, nil
}
