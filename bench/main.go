// Command bench is the repository's benchmark: six workloads that each
// stress a different layer, five end-to-end metrics reported by every
// one of them, and a traced run that attributes time to layers. The
// contract (workloads, metrics, units, bounds) is BENCHMARK.json at the
// repository root; README.md in this directory is the catalog.
//
//	go run -C bench . -workload metro-slice -seed 1 -seconds 12 -trace 0
//	go run -C bench .                      # every workload, repeats + traced run, result JSON
//	go run -C bench . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	_ "repro/internal/proto/all"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print its result as the last line (default: every workload, each in child processes)")
	seed := fs.Int64("seed", 1, "seeds every input the benchmark generates")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of "+specFile+" for one workload, 8 when running every workload)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	quick := fs.Bool("quick", false, "shrunk inputs, for tests: checks the plumbing, measures nothing")
	repeats := fs.Int("repeats", 4, "untraced runs per workload when running every workload")
	out := fs.String("out", "", "result JSON when running every workload (default: .bench_out/result.json at the repository root)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	pin := fs.String("pin", "", "with -compare: comma-separated per-layer counts that must be identical")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare [-pin a,b] A.json B.json")
			return 2
		}
		var pins []string
		if *pin != "" {
			pins = strings.Split(*pin, ",")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), pins)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	outDir := filepath.Join(root, ".bench_out")
	if *workload == "" {
		if *seconds <= 0 {
			*seconds = allSeconds
		}
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(sp, root, *out, *seed, *seconds, *repeats, *quick)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	cfg := runCfg{root: root, outDir: outDir, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	res, err := runOne(sp, *workload, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// allSeconds is how long each run measures when one invocation runs
// every workload: with four repeats and a traced run per workload it
// keeps the whole invocation near five minutes on two cores.
const allSeconds = 8

// maxAttempts is how often a run that could not measure (a generator
// kept from its schedule, no discovery) is tried: it is re-run once.
const maxAttempts = 2

// runOne runs one workload in this process, prints every metric by
// name with its unit to w, and returns the result line.
func runOne(sp *spec, name string, cfg runCfg, w io.Writer) (*runResult, error) {
	if _, ok := sp.workload(name); !ok {
		return nil, fmt.Errorf("workload %q is not listed in %s", name, specFile)
	}
	runner, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("workload %q is listed in %s but has no code", name, specFile)
	}
	var o *outcome
	for attempt := 1; ; attempt++ {
		var err error
		cfg.lastAttempt = attempt == maxAttempts
		if o, err = runner(cfg); err != nil {
			return nil, err
		}
		if o.invalid == "" {
			break
		}
		fmt.Fprintf(w, "invalid run: %s\n", o.invalid)
		if attempt == maxAttempts {
			return nil, fmt.Errorf("%s: %d invalid runs in a row", name, maxAttempts)
		}
	}
	metrics, err := sp.emit(cfg.trace, o.metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", name)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	// The result line carries every listed metric; the log shows the ones
	// this workload measured.
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return &runResult{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}
