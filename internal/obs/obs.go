// Package obs is the zero-dependency observability layer shared by the
// simulator and the real path: a metrics registry of scrape-time
// counters and gauges and metrics.LogHist-backed histograms with label
// support, two encoders (Prometheus text exposition and a JSON
// snapshot), and an opt-in HTTP listener (Serve) mounting /metrics,
// /healthz and net/http/pprof.
//
// Design constraints, in order:
//
//   - Hot-path cost: none for counters and gauges, which are functions
//     read at scrape time over state the component already keeps
//     (CounterFunc, GaugeFunc); Hist.Observe is one short mutex hold.
//     All map and label work happens once, at registration time.
//   - Read-only scrapes: encoders and Snapshot only observe; nothing in
//     this package may feed back into protocol or simulation state.
//     The simulator in particular never reads the registry — its
//     deterministic time-series live in netsim.Result.Series, computed
//     from run-owned counters (ARCHITECTURE.md "Observability
//     contracts").
//   - No dependencies: the module is self-contained, so the exposition
//     formats are hand-rolled (Prometheus text format 0.0.4; histograms
//     encode as summaries — p50/p90/p99 quantiles plus _sum/_count —
//     because LogHist's 176 log buckets would bloat exposition).
//
// Naming convention: metric names are snake_case with a "repro_" prefix
// and a subsystem segment (repro_transport_*, repro_pubsub_*,
// repro_loadgen_*); cumulative counters end in _total, histograms name
// their unit (..._seconds). Labels identify the emitting instance
// (typically node="<id>").
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Hist is a streaming histogram over a metrics.LogHist, safe for
// concurrent observation. Observe costs one short mutex hold; use it
// for events worth a histogram (handler latencies), not per-byte work.
type Hist struct {
	mu sync.Mutex
	h  metrics.LogHist
}

// Observe records one sample (histogram-unit value, e.g. seconds).
func (h *Hist) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (h *Hist) Snapshot() metrics.LogHist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// kind discriminates the series variants.
type kind uint8

const (
	kindCounterFunc kind = iota + 1
	kindGaugeFunc
	kindHist
)

func (k kind) String() string {
	switch k {
	case kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHist:
		return "summary"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []string // flat k1, v1, k2, v2, ... as registered
	kind   kind
	value  func() float64 // the counter or gauge reading
	h      *Hist
}

// labelString renders {k="v",...} or "" for the unlabeled series.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a set of named instruments. Registration is idempotent:
// asking for the same (name, labels) returns the same histogram, and
// registering a counter or gauge function again keeps the first.
// Asking with a conflicting kind panics — a programming error caught at
// wiring time, not scrape time. A Registry is safe for
// concurrent registration and scraping; the zero value is not usable,
// call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	elems []*series
	index map[string]*series
	help  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index: make(map[string]*series),
		help:  make(map[string]string),
	}
}

// validName enforces the Prometheus metric/label name grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*; labels additionally may not contain ':').
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && !label:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// register resolves or creates the (name, labels) series. A new
// counter or gauge gets its reading function here, under the lock, so
// a scrape running alongside never sees it half-registered.
func (r *Registry) register(name, help string, k kind, labels []string, value func() float64) *series {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label list %q", name, labels))
	}
	for i := 0; i+1 < len(labels); i += 2 {
		if !validName(labels[i], true) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, labels[i]))
		}
	}
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[key]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", key, k, s.kind))
		}
		return s
	}
	s := &series{name: name, labels: append([]string(nil), labels...), kind: k, value: value}
	// The value is created here, under the lock: two goroutines
	// registering the same series concurrently must get the same one.
	if k == kindHist {
		s.h = &Hist{}
	}
	r.index[key] = s
	r.elems = append(r.elems, s)
	if help != "" {
		r.help[name] = help
	}
	return s
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that already keep atomic counters
// (e.g. transport.UDP). fn must be safe to call from any goroutine.
// Labels are flat key/value pairs.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.register(name, help, kindCounterFunc, labels, func() float64 { return float64(fn()) })
}

// GaugeFunc registers a gauge read from fn at scrape time (queue
// depths, table sizes). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGaugeFunc, labels, fn)
}

// Histogram returns the histogram registered under (name, labels).
func (r *Registry) Histogram(name, help string, labels ...string) *Hist {
	return r.register(name, help, kindHist, labels, nil).h
}

// Sample is one series' state in a Snapshot.
type Sample struct {
	// Name and Labels identify the series (Labels is flat k/v pairs).
	Name   string
	Labels []string
	// Kind is the exposition type: "counter", "gauge" or "summary".
	Kind string
	// Value holds the counter/gauge reading; unset for histograms.
	Value float64
	// Hist is a copy of the histogram for summary series.
	Hist *metrics.LogHist
}

// snapshot captures the registered series in a stable order: sorted by
// name, then registration order within a name.
func (r *Registry) snapshot() []Sample {
	r.mu.Lock()
	elems := make([]*series, len(r.elems))
	copy(elems, r.elems)
	r.mu.Unlock()
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].name < elems[j].name })

	out := make([]Sample, 0, len(elems))
	for _, s := range elems {
		smp := Sample{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		if s.h != nil {
			h := s.h.Snapshot()
			smp.Hist = &h
		} else {
			smp.Value = s.value()
		}
		out = append(out, smp)
	}
	return out
}

// Snapshot returns every registered series with its current reading, in
// a stable order (sorted by name, then registration order).
func (r *Registry) Snapshot() []Sample { return r.snapshot() }

// fmtFloat renders a float in the Prometheus exposition style.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus encodes the registry in the Prometheus text
// exposition format (version 0.0.4). Series sharing a name are grouped
// under one # HELP/# TYPE header; histograms render as summaries with
// p50/p90/p99 quantile labels plus <name>_sum and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.snapshot()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	prev := ""
	for _, s := range samples {
		if s.Name != prev {
			if h := help[s.Name]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			prev = s.Name
		}
		if s.Hist == nil {
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				s.Name, labelString(s.Labels), fmtFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			lbl := append(append([]string(nil), s.Labels...), "quantile", fmt.Sprintf("%g", q))
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				s.Name, labelString(lbl), fmtFloat(s.Hist.Quantile(q))); err != nil {
				return err
			}
		}
		ls := labelString(s.Labels)
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			s.Name, ls, fmtFloat(s.Hist.Sum()), s.Name, ls, s.Hist.N()); err != nil {
			return err
		}
	}
	return nil
}

// jsonSeries is the JSON snapshot schema of one series.
type jsonSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  *float64          `json:"value,omitempty"`
	Count  *int              `json:"count,omitempty"`
	Sum    *float64          `json:"sum,omitempty"`
	Min    *float64          `json:"min,omitempty"`
	Max    *float64          `json:"max,omitempty"`
	P50    *float64          `json:"p50,omitempty"`
	P90    *float64          `json:"p90,omitempty"`
	P99    *float64          `json:"p99,omitempty"`
}

// WriteJSON encodes the registry snapshot as one JSON document:
// {"series": [...]} with scalar series carrying "value" and summary
// series carrying count/sum/min/max/p50/p90/p99.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.snapshot()
	out := struct {
		Series []jsonSeries `json:"series"`
	}{Series: make([]jsonSeries, 0, len(samples))}
	f := func(v float64) *float64 { return &v }
	for _, s := range samples {
		js := jsonSeries{Name: s.Name, Kind: s.Kind}
		if len(s.Labels) > 0 {
			js.Labels = make(map[string]string, len(s.Labels)/2)
			for i := 0; i+1 < len(s.Labels); i += 2 {
				js.Labels[s.Labels[i]] = s.Labels[i+1]
			}
		}
		if s.Hist == nil {
			js.Value = f(s.Value)
		} else {
			n := s.Hist.N()
			js.Count = &n
			js.Sum = f(s.Hist.Sum())
			if n > 0 {
				js.Min, js.Max = f(s.Hist.Min()), f(s.Hist.Max())
				js.P50 = f(s.Hist.Quantile(0.5))
				js.P90 = f(s.Hist.Quantile(0.9))
				js.P99 = f(s.Hist.Quantile(0.99))
			}
		}
		out.Series = append(out.Series, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
