package exp

import (
	"slices"
	"time"

	"repro/internal/metrics"
)

// cityValidity is the validity period used by Figures 13-15 (150 s).
const cityValidity = 150 * time.Second

// cityRotation measures city-section reliability with every process
// becoming the original publisher in turn (paper Section 5.2), skipping
// publishers that are not subscribers in interest sweeps. It returns the
// overall mean reliability and the means of the publishers that took a
// turn. Its fold stays outside meanGrid: which runs count is known only
// from the runs themselves.
func cityRotation(o Options, hbUpper time.Duration, frac float64, validity time.Duration, seeds int) (float64, []float64, error) {
	const pubs = 15
	type rot struct {
		rel        float64
		subscribed bool
	}
	runs, err := runGrid(o, []int{seeds, pubs}, func(ix []int) (rot, error) {
		seed, pub := ix[0], ix[1]
		sc := cityScenario(hbUpper, frac, int64(seed)+1)
		sc.Name = "city"
		res, err := reliabilityRun(sc, pub, validity)
		if err != nil {
			return rot{}, err
		}
		return rot{rel: res.Reliability(), subscribed: res.Nodes[pub].Subscribed}, nil
	})
	if err != nil {
		return 0, nil, err
	}
	var perPub [pubs]metrics.Agg
	var overall metrics.Agg
	for seed := 0; seed < seeds; seed++ {
		for pub := 0; pub < pubs; pub++ {
			r := runs.At(seed, pub)
			if !r.subscribed {
				continue // interest sweeps rotate among subscribers only
			}
			overall.Add(r.rel)
			perPub[pub].Add(r.rel)
		}
	}
	var means []float64
	for pub := range perPub {
		if perPub[pub].N() > 0 {
			means = append(means, perPub[pub].Mean())
		}
	}
	return overall.Mean(), means, nil
}

// Fig13 reproduces Figure 13: probability of event reception as a
// function of the heartbeat upper-bound period (1-5 s), city section,
// 100% subscribers, validity 150 s.
func Fig13(o Options) (*Output, error) {
	seeds := o.seedCount(3, 30)
	bounds := []time.Duration{
		time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
	}
	tb := metrics.NewTable(
		"Fig 13 — reliability vs heartbeat upper-bound period (city section)",
		"hb-bound[s]", "reliability")
	for _, b := range bounds {
		mean, _, err := cityRotation(o, b, 1.0, cityValidity, seeds)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmtSeconds(b), metrics.Pct(mean))
		o.progress("fig13 bound=%v -> %s", b, metrics.Pct(mean))
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}

// cityInterest is the sweep behind Figures 14 and 15: heartbeat bound
// 1 s, validity 150 s, subscribers 20%..100%. Per fraction it holds the
// overall mean and the max-min spread across publishers.
type cityInterest struct {
	fracs, means, spreads []float64
}

var cityInterestMemo memo[cityInterest]

// cityInterestSweep runs the sweep once per (seeds, scale) and serves
// both figures from it.
func cityInterestSweep(o Options) (*cityInterest, error) {
	seeds := o.seedCount(3, 30)
	return cityInterestMemo.get(seeds, o.Full, func() (*cityInterest, error) {
		d := &cityInterest{fracs: []float64{0.2, 0.4, 0.6, 0.8, 1.0}}
		for _, frac := range d.fracs {
			mean, perPub, err := cityRotation(o, time.Second, frac, cityValidity, seeds)
			if err != nil {
				return nil, err
			}
			spread := 0.0
			if len(perPub) > 0 {
				spread = slices.Max(perPub) - slices.Min(perPub)
			}
			d.means = append(d.means, mean)
			d.spreads = append(d.spreads, spread)
			o.progress("city interest frac=%v -> mean %s spread %s",
				frac, metrics.Pct(mean), metrics.Pct(spread))
		}
		return d, nil
	})
}

// cityInterestTable renders one column of the sweep against the
// subscriber fractions.
func cityInterestTable(d *cityInterest, title, col string, vals []float64) *Output {
	tb := metrics.NewTable(title, "subscribers", col)
	for i, frac := range d.fracs {
		tb.AddRow(fmtPctCol(frac), metrics.Pct(vals[i]))
	}
	return &Output{Tables: []*metrics.Table{tb}}
}

// Fig14 reproduces Figure 14: probability of event reception as a
// function of the number of subscribers (city section).
func Fig14(o Options) (*Output, error) {
	d, err := cityInterestSweep(o)
	if err != nil {
		return nil, err
	}
	return cityInterestTable(d, "Fig 14 — reliability vs subscribers (city section)",
		"reliability", d.means), nil
}

// Fig15 reproduces Figure 15: the maximum difference between the
// per-publisher reliabilities (city section), caused by the path each
// publisher takes.
func Fig15(o Options) (*Output, error) {
	d, err := cityInterestSweep(o)
	if err != nil {
		return nil, err
	}
	return cityInterestTable(d, "Fig 15 — max-min reliability difference between publishers (city section)",
		"spread", d.spreads), nil
}

// Fig16 reproduces Figure 16: probability of event reception as a
// function of the event validity period (city section, heartbeat bound
// 1 s, 100% subscribers).
func Fig16(o Options) (*Output, error) {
	seeds := o.seedCount(3, 30)
	validities := []time.Duration{
		25 * time.Second, 50 * time.Second, 75 * time.Second,
		100 * time.Second, 125 * time.Second, 150 * time.Second,
	}
	tb := metrics.NewTable(
		"Fig 16 — reliability vs event validity period (city section)",
		"validity[s]", "reliability")
	for _, v := range validities {
		mean, _, err := cityRotation(o, time.Second, 1.0, v, seeds)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmtSeconds(v), metrics.Pct(mean))
		o.progress("fig16 validity=%v -> %s", v, metrics.Pct(mean))
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}
