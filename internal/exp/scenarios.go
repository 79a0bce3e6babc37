package exp

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
)

// scenarioPanel is the protocol panel one registered scenario is swept
// against: every protocol in the proto registry, in registry (sorted)
// order, so a newly registered baseline is compared automatically. The
// panel entry matching the template's own protocol reuses the
// template's spec — its tuning is part of the declared workload.
// Options.Protocol restricts the panel to a single registered name
// (cmd/experiments -proto).
func scenarioPanel(def netsim.ScenarioDef, o Options) ([]netsim.ProtocolSpec, error) {
	tmpl := def.Template.Protocol
	var out []netsim.ProtocolSpec
	for _, d := range proto.Protocols() {
		if o.Protocol != "" && d.Name != o.Protocol {
			continue
		}
		spec := netsim.ProtocolSpec{Name: d.Name}
		if d.Name == tmpl.String() {
			spec.Params = tmpl.Params
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exp: unknown protocol %q (registered: %s)",
			o.Protocol, strings.Join(proto.ProtocolNames(), ", "))
	}
	return out, nil
}

// Scenarios is the registry-backed experiment family: every scenario
// registered with netsim.RegisterScenario — the paper's environments
// plus the vehicular (VANET-style) extensions — is swept across every
// registered protocol, one table per scenario. The family iterates
// both registries itself, so a newly registered workload or baseline
// shows up here (and in cmd/experiments -list) with no further wiring.
// Heavy scenarios (the metro city sweeps) are skipped: they run behind
// the "scale" family and explicit -scenario requests instead.
func Scenarios(o Options) (*Output, error) {
	var tables []*metrics.Table
	for _, def := range netsim.Scenarios() {
		if def.Heavy {
			continue
		}
		out, err := scenarioSweep(def, o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, out.Tables...)
	}
	return &Output{Tables: tables}, nil
}

// ScenarioSweep runs the frugal-vs-baselines comparison for one
// registered scenario (cmd/experiments -scenario).
func ScenarioSweep(name string, o Options) (*Output, error) {
	def, ok := netsim.LookupScenario(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown scenario %q (registered: %s)",
			name, strings.Join(netsim.ScenarioNames(), ", "))
	}
	return scenarioSweep(def, o)
}

// scenarioSweep fans (protocol, seed) over the worker pool and renders
// one table: per-protocol reliability, event copies sent, duplicates
// and bandwidth, averaged over seeds. Like every sweep it aggregates in
// enumeration order, so output is byte-identical at any parallelism.
func scenarioSweep(def netsim.ScenarioDef, o Options) (*Output, error) {
	seeds := o.seedCount(3, 30)
	panel, err := scenarioPanel(def, o)
	if err != nil {
		return nil, err
	}
	means, err := meanGrid(o, []int{len(panel)}, seeds,
		func(ix []int, seed int64) ([]float64, error) {
			sc := def.Instantiate(seed)
			sc.Protocol = panel[ix[0]]
			sc.Sample = o.Sample
			res, err := netsim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("scenario %s, %v: %w", def.Name, sc.Protocol, err)
			}
			if err := o.dumpSeries(fmt.Sprintf("scenario-%s-%v-seed%d",
				def.Name, sc.Protocol, seed), res); err != nil {
				return nil, err
			}
			return traffic(res), nil
		})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Scenario %s — %s (%d seeds)", def.Name, def.Description, seeds),
		append([]string{"protocol"}, trafficCols...)...)
	for pi, spec := range panel {
		m := means.At(pi)
		tb.AddRow(append([]string{spec.String()}, trafficCells(m)...)...)
		o.progress("scenario %s %v -> %s", def.Name, spec, metrics.Pct(m[0]))
	}
	return &Output{Tables: []*metrics.Table{tb}}, nil
}
