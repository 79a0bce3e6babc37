package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// The result file of a full run: every workload's end-to-end metrics
// summarized over the untraced repeats, its per-layer metrics from the
// one traced run, and the host they were taken on. It is what
// `bench -compare` reads.

type endToEndResult struct {
	metricDef
	summary
	Spread   float64   `json:"spread"`
	Unstable bool      `json:"unstable"`
	Values   []float64 `json:"values"`
}

type workloadResult struct {
	Why       string                    `json:"why"`
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	EndToEnd  map[string]endToEndResult `json:"end_to_end"`
	PerLayer  map[string]metricValue    `json:"per_layer"`
}

type resultFile struct {
	Host       hostInfo                  `json:"host"`
	Seed       int64                     `json:"seed"`
	RunSeconds float64                   `json:"run_seconds"`
	Repeats    int                       `json:"repeats"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

// child runs one workload in a fresh process (this same binary), so
// peak RSS, GC state and exp's memo tables are per run, and returns the
// result line it printed last.
func child(exe, workload string, seed int64, seconds float64, traced, quick bool) (*runResult, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %v): %w\n%s", workload, seed, traced, err, stdout)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, line := range lines {
		// What went wrong in a child must not stay in the child.
		if bytes.HasPrefix(line, []byte("PROBLEM:")) || bytes.HasPrefix(line, []byte("invalid run:")) {
			fmt.Printf("  %s (seed %d, trace %v): %s\n", workload, seed, traced, line)
		}
	}
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runAll is the default invocation: every workload, `repeats` untraced
// runs on consecutive seeds and one traced run, each in its own process.
func runAll(sp *spec, root, out string, seed int64, seconds float64, repeats int, quick bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{
		Host: readHost(root), Seed: seed, RunSeconds: seconds, Repeats: repeats,
		Workloads: map[string]workloadResult{},
	}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s %s, kernel %s, commit %s; %s\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.OSArch,
		file.Host.Kernel, file.Host.Commit, file.Host.Network)
	t0 := time.Now()
	ok := true
	for _, w := range sp.Workloads {
		wr := workloadResult{Why: w.Why, Correct: true, EndToEnd: map[string]endToEndResult{}}
		values := map[string][]float64{}
		for i := 0; i < repeats; i++ {
			res, err := child(exe, w.Name, seed+int64(i), seconds, false, quick)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		traced, err := child(exe, w.Name, seed, seconds, true, quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		wr.Correct = wr.Correct && traced.Correct
		wr.PerLayer = traced.Metrics

		fmt.Printf("\n== %s (%s)\n", w.Name, w.Why)
		fmt.Printf("correct %v, %d attempted, %d failed\n", wr.Correct, wr.Attempted, wr.Failed)
		for _, def := range sp.EndToEnd {
			s := summarize(values[def.Name])
			e := endToEndResult{metricDef: def, summary: s, Spread: s.spread(), Unstable: def.Name != spreadExempt && s.unstable(def.Bound), Values: values[def.Name]}
			wr.EndToEnd[def.Name] = e
			flag := ""
			if e.Unstable {
				flag = "  UNSTABLE: repeats spread wider than the bound"
			}
			fmt.Printf("  %-22s median %12.6g %-3s min %12.6g max %12.6g n %d spread %5.1f%% bound %4.0f%%%s\n",
				def.Name, s.Median, def.Unit, s.Min, s.Max, s.N, 100*e.Spread, 100*def.Bound, flag)
		}
		for _, def := range sp.PerLayer {
			if v := traced.Metrics[def.Name]; v.Value != 0 {
				fmt.Printf("  %-34s %14.6g %s\n", def.Name, v.Value, v.Unit)
			}
		}
		ok = ok && wr.Correct
		file.Workloads[w.Name] = wr
	}
	fmt.Printf("\nall workloads in %.0f s\n", time.Since(t0).Seconds())
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("result written to", out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: at least one workload's outputs are not correct")
		return 1
	}
	return 0
}
