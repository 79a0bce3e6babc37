package main

import (
	"bytes"
	"strings"
	"testing"
)

func e2e(better string, bound float64, values ...float64) endToEndResult {
	s := summarize(values)
	return endToEndResult{
		metricDef: metricDef{Name: "m", Unit: "ms", Better: better, Bound: bound},
		summary:   s, Spread: s.spread(), Unstable: s.unstable(bound), Values: values,
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 100, 135, 75, 110, 90}
	for _, c := range []struct {
		name string
		a, b endToEndResult
		want verdict
	}{
		{"unchanged", e2e("lower", 0.07, base...), e2e("lower", 0.07, base...), same},
		{"within the bound", e2e("lower", 0.07, base...), e2e("lower", 0.07, scale(1.05)...), same},
		{"past the bound", e2e("lower", 0.07, base...), e2e("lower", 0.07, scale(1.10)...), worse},
		{"faster", e2e("lower", 0.07, base...), e2e("lower", 0.07, scale(0.90)...), better},
		{"higher is better: fell", e2e("higher", 0.07, base...), e2e("higher", 0.07, scale(0.90)...), worse},
		{"higher is better: rose", e2e("higher", 0.07, base...), e2e("higher", 0.07, scale(1.10)...), better},
		{"spread wider than the bound", e2e("lower", 0.07, noisy...), e2e("lower", 0.07, scale(1.10)...), unresolved},
		{"noisy, but every run worse", e2e("lower", 0.07, noisy...), e2e("lower", 0.07, scale(2)...), worse},
		{"noisy, but every run better", e2e("lower", 0.07, noisy...), e2e("lower", 0.07, scale(0.5)...), better},
	} {
		if got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func result(wallValues []float64, failed int64, frames float64) *resultFile {
	return &resultFile{Workloads: map[string]workloadResult{
		"w": {
			Correct: failed == 0, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]endToEndResult{"unit_wall_ms": e2e("lower", 0.1, wallValues...)},
			PerLayer: map[string]metricValue{"mac.frames_sent": {Value: frames, Unit: "count"}},
		},
	}}
}

func TestCompareExitCodes(t *testing.T) {
	steady := []float64{50, 50.5, 49.5, 50, 50.2}
	slower := []float64{60, 60.5, 59.5, 60, 60.2}
	for _, c := range []struct {
		name string
		a, b *resultFile
		pins []string
		code int
		says string
	}{
		{"same commit", result(steady, 0, 7), result(steady, 0, 7), []string{"mac.frames_sent"}, 0, "no regression"},
		{"slower", result(steady, 0, 7), result(slower, 0, 7), nil, 1, "worse"},
		{"more failures", result(steady, 0, 7), result(steady, 3, 7), nil, 1, "failed operations"},
		{"pinned count moved", result(steady, 0, 7), result(steady, 0, 8), []string{"mac.frames_sent"}, 1, "pinned mac.frames_sent changed"},
		{"count moved, not pinned", result(steady, 0, 7), result(steady, 0, 8), nil, 0, "no regression"},
		{"pin is no metric", result(steady, 0, 7), result(steady, 0, 7), []string{"nope"}, 1, "not a per-layer metric"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, c.a, c.b, c.pins); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output does not say %q:\n%s", c.name, c.says, out.String())
		}
	}
}
