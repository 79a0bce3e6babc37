package exp

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// workloadEnv is the family's reference environment: the registered
// waypoint scenario with its explicit publication list cleared, so the
// generator under test supplies all traffic. Using a registered
// scenario keeps the environment in one place; the seed stamps the run.
func workloadEnv(seed int64) netsim.Scenario {
	def, ok := netsim.LookupScenario("waypoint")
	if !ok {
		panic("exp: reference scenario \"waypoint\" not registered")
	}
	sc := def.Instantiate(seed)
	sc.Publications = nil
	return sc
}

// workloadSpec wraps a registered generator for the sweep: traffic
// generators run standalone; churn generators (which emit no
// publications of their own) are paired with default periodic traffic
// through the "mix" generator, so their tables still measure delivery
// under the churn they inject. Util generators (explicit, mix) are
// composition helpers, not workloads to sweep — reported as skipped.
func workloadSpec(def workload.Definition) (netsim.WorkloadSpec, bool) {
	switch def.Class {
	case workload.ClassTraffic:
		return netsim.WorkloadSpec{Name: def.Name}, true
	case workload.ClassChurn:
		return netsim.WorkloadSpec{
			Name: "mix",
			Params: workload.MixParams{Parts: []workload.Spec{
				{Name: "periodic"},
				{Name: def.Name},
			}},
		}, true
	default:
		return netsim.WorkloadSpec{}, false
	}
}

// workloadRun is one run of either workload sweep: a sweepable
// generator on the reference environment under protocol p. It reports
// {events published} followed by the traffic panel, and dumps the run's
// series as <sweep>-<generator>-<protocol>-seed<N> when sampling is on.
func workloadRun(o Options, sweep string, def workload.Definition, p netsim.ProtocolSpec, seed int64) ([]float64, error) {
	sc := workloadEnv(seed)
	sc.Workload, _ = workloadSpec(def)
	sc.Protocol = p
	sc.Sample = o.Sample
	res, err := netsim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("workload %s, %v: %w", def.Name, p, err)
	}
	if err := o.dumpSeries(fmt.Sprintf("%s-%s-%v-seed%d", sweep, def.Name, p, seed), res); err != nil {
		return nil, err
	}
	return append([]float64{float64(len(res.Published))}, traffic(res)...), nil
}

// workloadCells renders the seed means of one workloadRun point.
func workloadCells(m []float64) []string {
	return append([]string{metrics.F1(m[0])}, trafficCells(m[1:])...)
}

// Workloads is the registry-backed workload family: every registered
// traffic and churn generator runs (with default params) on the
// reference waypoint environment, one row per generator. The family
// iterates the workload registry itself, so a newly registered
// generator shows up here (and in cmd/experiments -list) with no
// further wiring. Options.Protocol swaps the protocol under test
// (default: the environment's frugal tuning).
func Workloads(o Options) (*Output, error) {
	var rows []workload.Definition
	for _, def := range workload.Workloads() {
		if _, ok := workloadSpec(def); ok {
			rows = append(rows, def)
		}
	}
	p := workloadEnv(1).Protocol
	if o.Protocol != "" {
		var ok bool
		if p, ok = netsim.ParseProtocol(o.Protocol); !ok {
			return nil, fmt.Errorf("exp: unknown protocol %q (registered: %s)",
				o.Protocol, strings.Join(netsim.ProtocolNames(), ", "))
		}
	}
	seeds := o.seedCount(3, 3)
	means, err := meanGrid(o, []int{len(rows)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			return workloadRun(o, "workloads", rows[ix[0]], p, seed)
		})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Workload generators on the waypoint environment (%d seeds; churn paired with periodic traffic)", seeds),
		append([]string{"workload", "class", "events"}, trafficCols...)...)
	for wi, def := range rows {
		m := means.At(wi)
		tb.AddRow(append([]string{def.Name, string(def.Class)}, workloadCells(m)...)...)
		o.progress("workload %s -> %s", def.Name, metrics.Pct(m[1]))
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}

// WorkloadSweep runs one registered generator across every registered
// protocol on the reference environment (cmd/experiments -workload).
func WorkloadSweep(name string, o Options) (*Output, error) {
	def, ok := workload.LookupWorkload(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown workload %q (registered: %s)",
			name, strings.Join(workload.WorkloadNames(), ", "))
	}
	if _, ok := workloadSpec(def); !ok {
		return nil, fmt.Errorf("exp: workload %q is a %s helper, not a sweepable generator (registered: %s)",
			name, def.Class, strings.Join(workload.WorkloadNames(), ", "))
	}
	seeds := o.seedCount(3, 3)
	panel, err := scenarioPanel(netsim.ScenarioDef{Template: workloadEnv(1)}, o)
	if err != nil {
		return nil, err
	}
	means, err := meanGrid(o, []int{len(panel)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			return workloadRun(o, "workload", def, panel[ix[0]], seed)
		})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Workload %s — %s (%d seeds, waypoint environment)", def.Name, def.Description, seeds),
		append([]string{"protocol", "events"}, trafficCols...)...)
	for pi, pspec := range panel {
		m := means.At(pi)
		tb.AddRow(append([]string{pspec.String()}, workloadCells(m)...)...)
		o.progress("workload %s %v -> %s", def.Name, pspec, metrics.Pct(m[1]))
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}
