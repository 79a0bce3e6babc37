package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own wrappers. A span is one such call: name, start,
// end and the span that caused it. Spans are aggregated in memory as
// they close (calls, total and self time per name); one in rawEvery is
// also kept verbatim, and both are written out when the run ends.
//
// Self time is the span's duration minus the part of it covered by its
// child spans, so the self times of a tree add up to its root.

// rawEvery is the raw-span sampling period: aggregates are exact, the
// raw list is a 1-in-64 sample that shows what individual calls looked
// like without holding millions of records.
const rawEvery = 64

// span is one sampled raw record. Spans of one event share Event.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Node    uint32 `json:"node"`
	Event   string `json:"event,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanAgg is the exact aggregate of every span of one name.
type spanAgg struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

func (a spanAgg) selfSeconds() float64  { return float64(a.SelfNS) / 1e9 }
func (a spanAgg) totalSeconds() float64 { return float64(a.TotalNS) / 1e9 }

// perCall is the mean total time of one call in the given unit
// (1e3 for microseconds, 1 for nanoseconds).
func (a spanAgg) perCall(nsPerUnit float64) float64 {
	if a.Calls == 0 {
		return 0
	}
	return float64(a.TotalNS) / float64(a.Calls) / nsPerUnit
}

// spanTable is a set of aggregates by span name plus the raw sample.
type spanTable struct {
	Agg map[string]spanAgg `json:"aggregates"`
	Raw []span             `json:"sampled_spans"`
}

func (t *spanTable) merge(o spanTable) {
	if t.Agg == nil {
		t.Agg = map[string]spanAgg{}
	}
	for name, a := range o.Agg {
		b := t.Agg[name]
		b.Calls += a.Calls
		b.TotalNS += a.TotalNS
		b.SelfNS += a.SelfNS
		t.Agg[name] = b
	}
	t.Raw = append(t.Raw, o.Raw...)
}

// minus removes the aggregates of an earlier snapshot of the same
// tracers, leaving what was recorded since.
func (t *spanTable) minus(earlier spanTable) {
	for name, a := range earlier.Agg {
		b := t.Agg[name]
		b.Calls -= a.Calls
		b.TotalNS -= a.TotalNS
		b.SelfNS -= a.SelfNS
		t.Agg[name] = b
	}
}

// write stores the table under the run's output directory.
func (t spanTable) write(path string) error {
	sort.Slice(t.Raw, func(i, j int) bool { return t.Raw[i].StartNS < t.Raw[j].StartNS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ---- simulator side: one goroutine, a plain stack ----

// spanKind indexes the fixed set of simulator span names, so closing a
// span is two array updates and no map lookup (a metro-slice run closes
// several million).
type spanKind int

const (
	kindHandle spanKind = iota
	kindTimer
	kindPublish
	kindBroadcast
	kindSpeed
	numSpanKinds
)

type openSpan struct {
	kind    spanKind
	id      uint64
	node    uint32
	event   event.ID
	startNS int64
	childNS int64
}

// simTracer records the spans of one single-engine simulation. The
// simulator is single-threaded (Tiles: 1), so a stack gives parents and
// self times directly.
type simTracer struct {
	layer string // "core" or "flood": the protocol the handler spans belong to
	epoch time.Time
	stack []openSpan
	agg   [numSpanKinds]spanAgg
	next  uint64
	raw   []span
}

func newSimTracer(layer string) *simTracer {
	return &simTracer{layer: layer, epoch: time.Now(), stack: make([]openSpan, 0, 8)}
}

func (t *simTracer) name(k spanKind) string {
	switch k {
	case kindHandle:
		return t.layer + ".handle"
	case kindTimer:
		return t.layer + ".timer"
	case kindPublish:
		return t.layer + ".publish"
	case kindBroadcast:
		return "mac.broadcast"
	default:
		return "mobility.speed"
	}
}

func (t *simTracer) begin(k spanKind, node uint32, ev event.ID) {
	t.next++
	t.stack = append(t.stack, openSpan{
		kind: k, id: t.next, node: node, event: ev,
		startNS: int64(time.Since(t.epoch)),
	})
}

func (t *simTracer) end() {
	end := int64(time.Since(t.epoch))
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	dur := end - s.startNS
	a := &t.agg[s.kind]
	a.Calls++
	a.TotalNS += dur
	a.SelfNS += dur - s.childNS
	var parent uint64
	if top > 0 {
		p := &t.stack[top-1]
		p.childNS += dur
		parent = p.id
	}
	if s.id%rawEvery == 0 {
		t.raw = append(t.raw, span{
			ID: s.id, Parent: parent, Name: t.name(s.kind), Node: s.node,
			Event: eventName(s.event), StartNS: s.startNS, EndNS: end,
		})
	}
}

// eventName renders the id a sampled span carries; most carry none.
func eventName(id event.ID) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}

func (t *simTracer) table() spanTable {
	out := spanTable{Agg: map[string]spanAgg{}, Raw: t.raw}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.agg[k].Calls > 0 {
			out.Agg[t.name(k)] = t.agg[k]
		}
	}
	return out
}

// ---- real-socket side: many goroutines per node ----

// liveSpan is an open entry-point span (a handler call or a publish) of
// one node; broadcasts issued while it is open charge their time to it.
type liveSpan struct {
	id      uint64
	startNS int64
	childNS atomic.Int64
}

// nodeTracer records the spans of one real node. Entry points are
// serialized by entry (the protocol serializes them anyway under its
// own lock), so at most one liveSpan is open; Broadcast runs inside the
// protocol, possibly from a timer goroutine, and finds its parent
// through cur. A broadcast from a timer callback that fires while an
// entry point is still waiting for the protocol lock is charged to that
// entry point: the wrappers cannot see the protocol's own lock.
type nodeTracer struct {
	node  uint32
	epoch time.Time
	ids   *atomic.Uint64

	entry sync.Mutex
	cur   atomic.Pointer[liveSpan]

	mu  sync.Mutex // guards agg and raw
	agg map[string]spanAgg
	raw []span
}

func newNodeTracer(node uint32, epoch time.Time, ids *atomic.Uint64) *nodeTracer {
	return &nodeTracer{node: node, epoch: epoch, ids: ids, agg: map[string]spanAgg{}}
}

func (t *nodeTracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter opens an entry-point span; the caller must call leave.
func (t *nodeTracer) enter() *liveSpan {
	t.entry.Lock()
	s := &liveSpan{id: t.ids.Add(1), startNS: t.now()}
	t.cur.Store(s)
	return s
}

func (t *nodeTracer) leave(s *liveSpan, name string, ev event.ID) {
	end := t.now()
	t.cur.Store(nil)
	t.entry.Unlock()
	t.record(s.id, 0, name, ev, s.startNS, end, s.childNS.Load())
}

// child times fn as a child of whatever entry point is open.
func (t *nodeTracer) child(name string, ev event.ID, fn func()) {
	start := t.now()
	fn()
	end := t.now()
	var parent uint64
	if p := t.cur.Load(); p != nil {
		p.childNS.Add(end - start)
		parent = p.id
	}
	t.record(t.ids.Add(1), parent, name, ev, start, end, 0)
}

func (t *nodeTracer) record(id, parent uint64, name string, ev event.ID, start, end, child int64) {
	t.mu.Lock()
	a := t.agg[name]
	a.Calls++
	a.TotalNS += end - start
	a.SelfNS += end - start - child
	t.agg[name] = a
	if id%rawEvery == 0 {
		t.raw = append(t.raw, span{
			ID: id, Parent: parent, Name: name, Node: t.node,
			Event: eventName(ev), StartNS: start, EndNS: end,
		})
	}
	t.mu.Unlock()
}

func (t *nodeTracer) table() spanTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := spanTable{Agg: make(map[string]spanAgg, len(t.agg)), Raw: append([]span(nil), t.raw...)}
	for k, v := range t.agg {
		out.Agg[k] = v
	}
	return out
}
