package exp

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// ExtStorm is an extension beyond the paper's figures, motivated by its
// related-work discussion (Section 6): how do the classic broadcast-storm
// countermeasures — probabilistic and counter-based single-shot
// broadcast (Ni et al.) — fare in the paper's mobile, sparse environment?
// Being single-shot, they cannot exploit node mobility or event validity:
// the broadcast wave only covers the connected component at publication
// time, so their reliability barely grows with validity while the frugal
// protocol's climbs. Their traffic is low, but so is their coverage.
func ExtStorm(o Options) (*Output, error) {
	seeds := o.seedCount(5, 30)
	env := rwpBase(o)
	validities := []time.Duration{30 * time.Second, 90 * time.Second, 180 * time.Second}
	protocols := []netsim.ProtocolSpec{
		rwpFrugal(),
		{Name: "probabilistic-broadcast"},
		{Name: "counter-based-broadcast"},
	}

	// Per point: {reliability, event copies sent per process}.
	means, err := meanGrid(o, []int{len(validities), len(protocols)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			sc := rwpScenario(env, 10, 10, 0.8, seed)
			sc.Name = "ext-storm"
			sc.Protocol = protocols[ix[1]]
			res, err := reliabilityRun(sc, -1, validities[ix[0]])
			if err != nil {
				return nil, err
			}
			return []float64{res.Reliability(), res.EventsSentPerProcess()}, nil
		})
	if err != nil {
		return nil, err
	}

	rel := metrics.NewTable(
		"Extension — reliability: frugal vs broadcast-storm schemes (10 m/s, 80% subscribers)",
		"validity[s]", "frugal", "probabilistic", "counter-based")
	copies := metrics.NewTable(
		"Extension — event copies sent per process (validity 180 s)",
		"protocol", "copies/process")

	for vi, v := range validities {
		row := []string{fmtSeconds(v)}
		for pi, proto := range protocols {
			m := means.At(vi, pi)
			row = append(row, metrics.Pct(m[0]))
			if v == validities[len(validities)-1] {
				copies.AddRow(proto.String(), metrics.F2(m[1]))
			}
			o.progress("storm %v validity=%v -> %s", proto, v, metrics.Pct(m[0]))
		}
		rel.AddRow(row...)
	}
	return &Output{Tables: []*metrics.Table{rel, copies}}, nil
}
