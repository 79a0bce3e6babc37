package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is what comparing one (workload, end-to-end metric) pair of
// two result files concludes.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// judge compares B with A on one metric. A change is "worse" past
// the metric's bound and "better" past A's own run-to-run spread (a
// gain smaller than the parent's noise is no gain). When either side's
// repeats spread wider than the bound, nothing is resolved, unless
// every run of one side beats every run of the other.
func judge(a, b endToEndResult) verdict {
	sign := 1.0
	if a.Better == "higher" {
		sign = -1
	}
	// worsening is B's median relative to A's, positive when B is worse.
	worsening := sign * (b.Median - a.Median) / a.Median
	if a.Unstable || b.Unstable {
		switch {
		case sign*(b.Min-a.Max) > 0:
			return worse
		case sign*(a.Min-b.Max) > 0:
			return better
		}
		return unresolved
	}
	switch {
	case worsening > a.Bound:
		return worse
	case -worsening > a.spread() && -worsening > 0.01:
		return better
	}
	return same
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the process exit code: non-zero on any "worse", on a larger
// share of failed operations, or on a pinned count that changed.
func compareFiles(w io.Writer, pathA, pathB string, pins []string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResult(pathB); err == nil {
			return compareResults(w, a, b, pins)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultFile, pins []string) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}
	bad := 0
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-20s %13s %7s %13s %7s %6s %8s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "bound", "change", "verdict")
	for _, name := range names {
		wa := a.Workloads[name]
		wb, ok := b.Workloads[name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", name)
			bad++
			continue
		}
		metrics := make([]string, 0, len(wa.EndToEnd))
		for m := range wa.EndToEnd {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ea := wa.EndToEnd[m]
			eb, ok := wb.EndToEnd[m]
			if !ok {
				fmt.Fprintf(w, "%-16s %-20s missing from B\n", name, m)
				bad++
				continue
			}
			v := judge(ea, eb)
			if v == worse {
				bad++
			}
			rose := (eb.Median - ea.Median) / ea.Median // in the metric's own direction
			fmt.Fprintf(w, "%-16s %-20s %13.6g %6.1f%% %13.6g %6.1f%% %5.0f%% %+7.1f%%  %s\n",
				name, m, ea.Median, 100*ea.spread(), eb.Median, 100*eb.spread(), 100*ea.Bound, 100*rose, v)
		}
		if failShare(wb) > failShare(wa) || (wa.Correct && !wb.Correct) {
			fmt.Fprintf(w, "%-16s failed operations: A %d of %d, B %d of %d (correct: A %v, B %v)  worse\n",
				name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, wa.Correct, wb.Correct)
			bad++
		}
		for _, p := range pins {
			va, oka := wa.PerLayer[p]
			vb, okb := wb.PerLayer[p]
			if !oka || !okb {
				fmt.Fprintf(w, "%-16s pinned %s is not a per-layer metric of both files\n", name, p)
				bad++
			} else if va.Value != vb.Value {
				fmt.Fprintf(w, "%-16s pinned %s changed: A %v, B %v\n", name, p, va.Value, vb.Value)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}

func failShare(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
