package netsim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/mac"
	"repro/internal/proto"
	"repro/internal/sim"
)

// This file is the deterministic run time-series (Scenario.Sample):
// the sampler rides the simulation engine as a chain of self-scheduling
// callbacks, one per sampling period across the measurement window, and
// each callback only READS state the run already maintains — the
// per-event cells, the nodes' protocol counters, the MAC ports, the
// medium's live-transmission list and the timer wheel's pending count.
// It draws no randomness, sends nothing, and mutates no protocol, MAC or
// mobility state.
//
// Why that leaves results byte-identical (the contract the
// sample-invariance tests pin): the engine's (at, seq) ordering is
// FIFO within an instant and the sampler's items only consume seq
// numbers — inserting them shifts other items' absolute seq values but
// never their relative order, so every protocol callback, RNG draw and
// MAC event executes in exactly the sequence an unsampled run produces.
// The only observable difference between a sampled and an unsampled run is
// Result.Series itself, which Fingerprint deliberately excludes.
type Series struct {
	// Period is the scenario's sampling period.
	Period time.Duration
	// Points are the samples, oldest first: one per elapsed period from
	// the end of warm-up, plus a final partial window when the
	// measurement window is not a multiple of Period.
	Points []SeriesPoint
}

// SeriesPoint is one sample of the running measurement window.
// Cumulative fields cover warm-up end through At; delta fields cover
// the window since the previous point.
type SeriesPoint struct {
	// At is the absolute sample instant.
	At sim.Time
	// Published is the cumulative number of registered publications.
	Published int
	// DeliveryRatio is the cumulative mean per-event reliability so far
	// (the running value of Result.Reliability, counting only in-time
	// deliveries that have already happened).
	DeliveryRatio float64
	// InFlight counts transmissions on air at the sample instant.
	InFlight int
	// Pending counts scheduled timer-wheel items.
	Pending int
	// Proto is the per-window delta of the protocol counters, summed
	// over all nodes (crashed incarnations included).
	Proto proto.Stats
	// MAC is the per-window delta of the MAC counters, summed over all
	// ports.
	MAC mac.Counters
}

// sampler drives the series. It is armed by runner.schedule (after the
// warm-up snapshot, before the workload pump) and chains itself across
// the measurement window.
type sampler struct {
	r      *runner
	period sim.Time
	end    sim.Time
	series *Series

	prevProto proto.Stats
	prevMAC   mac.Counters
}

// startSampler arms the series baseline at the warm-up boundary. Like
// runner.snapshot it is scheduled before any same-instant publication,
// so the first window includes ops firing exactly at warm-up end.
func (r *runner) startSampler(warm sim.Time) {
	s := &sampler{
		r:      r,
		period: sim.Time(r.sc.Sample),
		end:    warm.Add(r.sc.Measure),
		series: &Series{Period: r.sc.Sample},
	}
	r.sampler = s
	r.eng.At(warm, s.baseline)
}

// baseline captures the window-start counters and arms the chain.
func (s *sampler) baseline() {
	s.prevProto, s.prevMAC = s.totals()
	s.arm(s.r.eng.Now())
}

// arm schedules the next sample, clamping the final window to the end
// of measurement. Scheduling happens after the current point is read,
// so Pending never counts the sampler's own next item.
func (s *sampler) arm(now sim.Time) {
	if now >= s.end {
		return
	}
	next := now + s.period
	if next > s.end {
		next = s.end
	}
	s.r.eng.At(next, s.sample)
}

// sample appends one point and re-arms.
func (s *sampler) sample() {
	r := s.r
	now := r.eng.Now()
	pr, mc := s.totals()
	s.series.Points = append(s.series.Points, SeriesPoint{
		At:            now,
		Published:     len(r.cells),
		DeliveryRatio: r.cumulativeRatio(),
		InFlight:      r.medium.InFlight(now),
		Pending:       r.eng.Pending(),
		Proto:         pr.Sub(s.prevProto),
		MAC:           mc.Sub(s.prevMAC),
	})
	s.prevProto, s.prevMAC = pr, mc
	s.arm(now)
}

// totals sums the run's protocol and MAC counters over all nodes.
func (s *sampler) totals() (proto.Stats, mac.Counters) {
	var pr proto.Stats
	var mc mac.Counters
	for _, n := range s.r.nodes {
		pr = pr.Add(n.totalStats())
		mc = mc.Add(n.port.Counters())
	}
	return pr, mc
}

// cumulativeRatio is the running mean per-event reliability: the value
// Result.Reliability converges to, counting only in-time deliveries
// recorded so far.
func (r *runner) cumulativeRatio() float64 {
	if len(r.cells) == 0 {
		return 0
	}
	sum := 0.0
	for i := range r.cells {
		c := &r.cells[i]
		if c.eligible > 0 {
			sum += float64(c.inTime) / float64(c.eligible)
		}
	}
	return sum / float64(len(r.cells))
}

// seriesColumns enumerates the CSV/JSON schema: the fixed lead columns
// followed by the proto and MAC counters as their Each methods name
// them, so a counter added to either struct appears in dumped curves
// without further wiring.
func seriesColumns() []string {
	cols := []string{"t_s", "published", "delivery_ratio", "in_flight", "pending"}
	proto.Stats{}.Each(func(name string, _ uint64) { cols = append(cols, "proto_"+name) })
	mac.Counters{}.Each(func(name string, _ uint64) { cols = append(cols, "mac_"+name) })
	return cols
}

// row renders one point in seriesColumns order.
func (p SeriesPoint) row() []string {
	out := []string{
		fmt.Sprintf("%.3f", p.At.Seconds()),
		fmt.Sprintf("%d", p.Published),
		fmt.Sprintf("%.6f", p.DeliveryRatio),
		fmt.Sprintf("%d", p.InFlight),
		fmt.Sprintf("%d", p.Pending),
	}
	counter := func(_ string, v uint64) { out = append(out, fmt.Sprintf("%d", v)) }
	p.Proto.Each(counter)
	p.MAC.Each(counter)
	return out
}

// WriteCSV renders the series as one header line plus one row per
// point.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(seriesColumns(), ",")); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintln(w, strings.Join(p.row(), ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the series as one JSON document with the sampling
// period in seconds and the points as column-keyed objects.
func (s *Series) WriteJSON(w io.Writer) error {
	cols := seriesColumns()
	doc := struct {
		PeriodSeconds float64          `json:"period_seconds"`
		Points        []map[string]any `json:"points"`
	}{PeriodSeconds: s.Period.Seconds()}
	for _, p := range s.Points {
		row := p.row()
		m := make(map[string]any, len(cols))
		for i, c := range cols {
			m[c] = json.RawMessage(row[i])
		}
		doc.Points = append(doc.Points, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
