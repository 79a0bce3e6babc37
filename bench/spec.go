package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
)

// specFile is the benchmark's contract at the root of the repository.
// It is the only catalog of workload and metric names: the program
// reads names, units and bounds from it and refuses to emit a metric it
// does not list, so the two cannot drift apart.
const specFile = "BENCHMARK.json"

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json: the program runs from bench/ under `go run -C
// bench .` and from anywhere below the root as a built binary.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or any parent", specFile)
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// validate checks the parts of the contract the program relies on:
// well-formed, unique names, known units and directions, and the
// mandatory setup_s metric.
func (s *spec) validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is not letters, digits, '_', '.', '-'", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	if len(s.Workloads) < 2 {
		return errors.New("fewer than two workloads")
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
	}
	setup := false
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if err := name("metric", m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %q has unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %q is better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %q has bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return errors.New("no setup_s metric")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d", s.RunSeconds)
	}
	return nil
}

func (s *spec) workload(name string) (workloadDef, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricSet is what one run of one workload measured, by metric name.
type metricSet map[string]float64

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit turns what a workload measured into the listed metrics: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. An end-to-end metric must have been measured and be
// positive and finite; a per-layer metric the workload does not
// exercise reads 0 (that layer did no work). A measured name the
// contract does not list is a bug in the workload.
func (s *spec) emit(traced bool, got metricSet) (map[string]metricValue, error) {
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := got[m.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		case !traced && (!ok || v <= 0):
			return nil, fmt.Errorf("end-to-end metric %s not measured (value %v)", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not listed in %s for this kind of run", name, specFile)
		}
	}
	return out, nil
}
