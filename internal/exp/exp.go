// Package exp defines one experiment per figure/table of the paper's
// evaluation (Section 5), the ablations called out in DESIGN.md, and
// the registry-backed "scenarios" family that sweeps every
// netsim.RegisterScenario workload against the flooding/storm
// baselines. Every experiment runs at two scales: the paper's
// parameters (Options.Full) and a CI-friendly reduction that preserves
// node density and parameter shapes.
package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Seeds overrides the number of runs per parameter point (paper:
	// 30). Zero selects the experiment's default.
	Seeds int
	// Full selects the paper-scale parameters; otherwise a scaled-down
	// variant with the same node density runs.
	Full bool
	// Parallel is the number of simulations run concurrently; zero
	// selects runtime.NumCPU(). Output is byte-identical at any
	// parallelism (see runJobs).
	Parallel int
	// Protocol, when non-empty, restricts the registry-backed scenario
	// sweeps to one registered protocol (cmd/experiments -proto). The
	// figure sweeps pin their own protocol panels and ignore it.
	Protocol string
	// Progress, when non-nil, receives one liveness line as each
	// simulation finishes (emitted from worker goroutines, serialized
	// internally) plus one line per sweep point during aggregation, in
	// deterministic sweep order.
	Progress func(string)
	// Sample, when positive, sets netsim.Scenario.Sample on every run
	// of the registry-backed scenario and workload sweeps
	// (cmd/experiments -sample), recording each simulation's
	// deterministic time-series. Sampling is observation-only: rendered
	// tables are byte-identical with it on or off (pinned by
	// TestGoldenSampleInvariance). The fixed-size figure sweeps ignore
	// it — curve dumps target the registry-backed environments.
	Sample time.Duration
	// SeriesDir, when non-empty (cmd/experiments -series-out), writes
	// each sampled run's curve to
	// <SeriesDir>/<sweep>-<protocol>-seed<N>.csv. Requires Sample.
	SeriesDir string
}

// dumpSeries writes one sampled run's series (when SeriesDir is set and
// the run recorded one) as <SeriesDir>/<base>.csv. Called from worker
// goroutines; each sweep point owns a distinct file name.
func (o Options) dumpSeries(base string, res *netsim.Result) error {
	if o.SeriesDir == "" || res.Series == nil {
		return nil
	}
	if err := os.MkdirAll(o.SeriesDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.SeriesDir, base+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Series.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("exp: writing %s: %w", path, err)
	}
	return f.Close()
}

// seedCount resolves the runs per sweep point: Options.Seeds when set,
// otherwise the sweep's default at the selected scale.
func (o Options) seedCount(quick, full int) int {
	switch {
	case o.Seeds > 0:
		return o.Seeds
	case o.Full:
		return full
	}
	return quick
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Output is the rendered result of one experiment.
type Output struct {
	Tables []*metrics.Table
}

// String concatenates the tables.
func (o *Output) String() string {
	s := ""
	for i, t := range o.Tables {
		if i > 0 {
			s += "\n"
		}
		s += t.String()
	}
	return s
}

// Definition registers an experiment.
type Definition struct {
	ID    string
	Title string
	Run   func(Options) (*Output, error)
}

// All lists every reproducible figure/table in paper order, then the
// ablations.
func All() []Definition {
	return []Definition{
		{"fig11", "Reliability vs validity, speed and subscribers (random waypoint)", Fig11},
		{"fig12", "Reliability vs validity and subscribers, heterogeneous speeds 1-40 m/s", Fig12},
		{"fig13", "Reliability vs heartbeat upper-bound period (city section)", Fig13},
		{"fig14", "Reliability vs number of subscribers (city section)", Fig14},
		{"fig15", "Reliability spread between publishers (city section)", Fig15},
		{"fig16", "Reliability vs event validity period (city section)", Fig16},
		{"fig17", "Bandwidth per process vs events and subscribers", Fig17},
		{"fig18", "Events sent per process vs events and subscribers", Fig18},
		{"fig19", "Duplicates received per process vs events and subscribers", Fig19},
		{"fig20", "Parasite events received per process vs events and subscribers", Fig20},
		{"ablation", "Design-choice ablations (back-off, suppression, id exchange, GC, adaptive HB)", Ablations},
		{"ext-shadowing", "Extension: reliability under log-normal shadowing", ExtShadowing},
		{"ext-storm", "Extension: frugal vs broadcast-storm schemes (Ni et al.)", ExtStorm},
		{"scenarios", "Extension: every registered protocol across every registered scenario (see -scenario, -proto)", Scenarios},
		{"workloads", "Extension: every registered workload generator on the reference waypoint environment (see -workload)", Workloads},
	}
}

// Lookup finds a definition by id.
func Lookup(id string) (Definition, bool) {
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// ---- shared environments (paper Section 5.1) ----

// paperRange is the 2 Mbps basic-rate radio range (paper: 339 m).
const paperRange = 339

// cityRange is the city-section radio range (paper: 44 m).
const cityRange = 44

// rwpEnv is the random-waypoint environment: N nodes on an area with the
// paper's density (150 nodes per 25 km^2 = 6 per km^2).
type rwpEnv struct {
	nodes  int
	area   geo.Rect
	warmup time.Duration
}

func rwpBase(o Options) rwpEnv {
	if o.Full {
		// Paper: 150 processes, 25 km^2, first 600 s discarded.
		return rwpEnv{nodes: 150, area: geo.NewRect(5000, 5000), warmup: 600 * time.Second}
	}
	// Same 6 nodes/km^2 density at 50 nodes: area 8.33 km^2.
	return rwpEnv{nodes: 50, area: geo.NewRect(2887, 2887), warmup: 60 * time.Second}
}

// rwpFrugal is the frugal spec the random-waypoint environments run:
// the paper's 1 s heartbeat upper bound, speed fed into heartbeats.
// Sweeps that include the frugal protocol in their panel reuse it so
// re-assigning sc.Protocol preserves the environment's tuning.
func rwpFrugal() netsim.ProtocolSpec {
	return netsim.FrugalSpec(netsim.CoreTuning{
		HBUpperBound: time.Second, // paper: RWP heartbeat upper bound 1 s
		UseSpeed:     true,
	})
}

// frugalTuning extracts the frugal tuning from a scenario's spec so a
// sweep can vary one knob (ablations, heartbeat-bound sweeps). A
// frugal spec with nil Params means the defaults, i.e. the zero
// tuning. It panics when the scenario runs a different protocol —
// silently returning zero tuning there would make the sweep produce
// plausible but wrong tables.
func frugalTuning(sc netsim.Scenario) netsim.CoreTuning {
	if sc.Protocol.String() != "frugal" {
		panic(fmt.Sprintf("exp: scenario %q does not run the frugal protocol (%v)",
			sc.Name, sc.Protocol))
	}
	if sc.Protocol.Params == nil {
		return netsim.CoreTuning{}
	}
	t, ok := sc.Protocol.Params.(netsim.CoreTuning)
	if !ok {
		panic(fmt.Sprintf("exp: scenario %q frugal params are %T, want netsim.CoreTuning",
			sc.Name, sc.Protocol.Params))
	}
	return t
}

// rwpScenario builds the paper's random-waypoint scenario skeleton.
func rwpScenario(env rwpEnv, minSpeed, maxSpeed float64, frac float64, seed int64) netsim.Scenario {
	kind := netsim.RandomWaypoint
	if maxSpeed == 0 {
		kind = netsim.StaticNodes
	}
	return netsim.Scenario{
		Nodes: env.nodes,
		Seed:  seed,
		Mobility: netsim.MobilitySpec{
			Kind:     kind,
			Area:     env.area,
			MinSpeed: minSpeed,
			MaxSpeed: maxSpeed,
		},
		MAC:                mac.DefaultConfig(paperRange),
		Protocol:           rwpFrugal(),
		SubscriberFraction: frac,
		Warmup:             env.warmup,
	}
}

// cityScenario builds the paper's city-section scenario skeleton: 15
// processes on the campus street network, 8-13 m/s road limits,
// stochastic stops.
func cityScenario(hbUpper time.Duration, frac float64, seed int64) netsim.Scenario {
	return netsim.Scenario{
		Nodes:    15,
		Seed:     seed,
		Mobility: netsim.MobilitySpec{Kind: netsim.CitySection},
		MAC:      mac.DefaultConfig(cityRange),
		Protocol: netsim.FrugalSpec(netsim.CoreTuning{
			HBUpperBound: hbUpper,
			UseSpeed:     true, // heartbeats track the 8-13 m/s road speeds
		}),
		SubscriberFraction: frac,
		Warmup:             30 * time.Second,
	}
}

// reliabilityRun executes one (scenario, publisher, validity) reliability
// measurement: a single event published at the start of the measurement
// window.
func reliabilityRun(sc netsim.Scenario, publisher int, validity time.Duration) (*netsim.Result, error) {
	sc.Schedule = []workload.Op{{At: sc.Warmup, Kind: workload.Publish, Node: publisher, Validity: validity}}
	sc.Measure = validity + 5*time.Second
	return netsim.Run(sc)
}

// reliabilityPoint is reliabilityRun reduced to the reliability number,
// in the one-metric shape meanGrid folds.
func reliabilityPoint(sc netsim.Scenario, publisher int, validity time.Duration) ([]float64, error) {
	res, err := reliabilityRun(sc, publisher, validity)
	if err != nil {
		return nil, err
	}
	return []float64{res.Reliability()}, nil
}

// traffic is the panel the registry-backed sweeps (scenarios,
// workloads) report per run, in trafficCols order.
func traffic(res *netsim.Result) []float64 {
	return []float64{
		res.Reliability(),
		res.EventsSentPerProcess(),
		res.DuplicatesPerProcess(),
		res.AppBytesPerProcess(),
	}
}

var trafficCols = []string{"reliability", "copies/proc", "dups/proc", "bandwidth"}

// trafficCells renders the seed means of a traffic panel.
func trafficCells(m []float64) []string {
	return []string{metrics.Pct(m[0]), metrics.F1(m[1]), metrics.F1(m[2]), metrics.KB(m[3])}
}

// fmtSeconds renders a duration in whole seconds for table headers.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%d", int(d.Seconds()))
}

// fmtPctCol renders a fraction as a column header like "80%".
func fmtPctCol(frac float64) string {
	return fmt.Sprintf("%d%%", int(frac*100+0.5))
}
