package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// runCfg is what one run of one workload is asked to do.
type runCfg struct {
	root    string  // repository root (goldens live under it)
	outDir  string  // where a traced run writes its spans
	seed    int64   // seeds every input the benchmark generates
	seconds float64 // how long to measure
	trace   bool    // per-layer run instead of end-to-end run
	quick   bool    // shrunk inputs for `go test` (numbers mean nothing)
	// lastAttempt is set on the re-run of an invalid run: a run that is
	// merely noisy must then report, not ask for another.
	lastAttempt bool
}

// outcome is what one run of one workload found.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // why the run is not correct, for whoever reads the log
	notes     []string // context that is not a metric (sample counts, percentile used)
	invalid   string   // non-empty: the run could not measure (late generator, no discovery); re-run it
	metrics   metricSet
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

// check counts one attempted operation and records why it failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problem(format, args...)
	}
}

// problem marks the run incorrect without counting an operation, and
// keeps the log short when thousands of operations fail the same way.
func (o *outcome) problem(format string, args ...any) {
	const keep = 20
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	if len(o.problems) == keep {
		o.problems = append(o.problems, "... further problems not listed")
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// runners maps each workload named in BENCHMARK.json to its code.
var runners = map[string]func(runCfg) (*outcome, error){
	"paper-figs":     runFigs,
	"metro-slice":    func(c runCfg) (*outcome, error) { return runSim(metroSlice, c) },
	"metro-flood-5k": func(c runCfg) (*outcome, error) { return runSim(metroFlood5k, c) },
	"udp-mesh":       runMesh,
	"udp-wire-small": func(c runCfg) (*outcome, error) { return runWire(wireSmall, c) },
	"udp-wire-large": func(c runCfg) (*outcome, error) { return runWire(wireLarge, c) },
}

// setupRepeats is how many times a run sets up: set-up is short, so one
// sample would make setup_s the noisiest metric of all.
const setupRepeats = 3

// repeatUnits runs unit at least min times, then for as long as the
// time measured so far plus half an average unit still fits the budget
// (so the measured time rounds to the budget instead of always
// overshooting it). It returns each unit's wall seconds.
func repeatUnits(budget float64, min int, unit func(i int) error) ([]float64, error) {
	var walls []float64
	total := 0.0
	for i := 0; ; i++ {
		if i >= min && total+0.5*total/float64(i) > budget {
			return walls, nil
		}
		t0 := time.Now()
		if err := unit(i); err != nil {
			return nil, err
		}
		w := time.Since(t0).Seconds()
		walls = append(walls, w)
		total += w
	}
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func goldenPath(root, name string) string {
	return filepath.Join(root, "internal", "exp", "testdata", "golden", name+".golden")
}

func spansPath(c runCfg, workload string) string {
	return filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, c.seed))
}
