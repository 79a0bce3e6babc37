package flood

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// stormParams overrides a Storm's parameters; zero fields keep the
// package's.
type stormParams struct {
	P                float64
	CounterThreshold int
	AssessmentDelay  time.Duration
}

func (h *harness) addStorm(id event.NodeID, scheme StormScheme, t stormParams, subs ...string) *Storm {
	h.t.Helper()
	p, err := NewStorm(scheme, h.env(id, 500))
	if err == nil {
		if t.P != 0 {
			p.prob = t.P
		}
		if t.CounterThreshold != 0 {
			p.threshold = t.CounterThreshold
		}
		if t.AssessmentDelay != 0 {
			p.assess = t.AssessmentDelay
		}
	}
	h.join(id, p, err, subs)
	return p
}

func TestStormProbabilisticDelivers(t *testing.T) {
	h := newHarness(t, 1)
	p1 := h.addStorm(1, Probabilistic, stormParams{P: 1.0}, ".t")
	h.addStorm(2, Probabilistic, stormParams{P: 1.0}, ".t")
	h.addStorm(3, Probabilistic, stormParams{P: 1.0}, ".t")
	id, err := p1.Publish(topic.MustParse(".t"), []byte("x"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	for _, n := range []event.NodeID{2, 3} {
		if len(h.deliv[n]) != 1 || h.deliv[n][0].ID != id {
			t.Fatalf("node %v deliveries = %v", n, h.deliv[n])
		}
	}
}

func TestStormProbabilisticZeroNeverRelays(t *testing.T) {
	h := newHarness(t, 2)
	p1 := h.addStorm(1, Probabilistic, stormParams{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, stormParams{P: 1e-12}, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	if p2.Stats().EventsSent != 0 {
		t.Fatal("p~0 node relayed")
	}
	// It still delivers (reception is unconditional).
	if len(h.deliv[2]) != 1 {
		t.Fatal("non-relaying node should still deliver")
	}
}

func TestStormSingleShot(t *testing.T) {
	// Unlike periodic flooding, each node transmits each event at most
	// once — the defining property of the storm schemes.
	h := newHarness(t, 3)
	ps := make([]*Storm, 4)
	for i := range ps {
		ps[i] = h.addStorm(event.NodeID(i+1), Probabilistic, stormParams{P: 1}, ".t")
	}
	if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(30))
	for i, p := range ps {
		if got := p.Stats().EventsSent; got > 1 {
			t.Fatalf("node %d sent %d copies, want <= 1 (single shot)", i+1, got)
		}
	}
}

func TestStormCounterSuppression(t *testing.T) {
	// On a fully connected bus every node hears every relay. With
	// threshold 2 and several nodes, at least some relays must be
	// suppressed — the storm remedy at work.
	h := newHarness(t, 4)
	const n = 8
	ps := make([]*Storm, n)
	for i := range ps {
		ps[i] = h.addStorm(event.NodeID(i+1), CounterBased, stormParams{
			CounterThreshold: 2,
			AssessmentDelay:  300 * time.Millisecond,
		}, ".t")
	}
	if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(10))
	relays := uint64(0)
	for _, p := range ps[1:] {
		relays += p.Stats().EventsSent
	}
	if relays >= n-1 {
		t.Fatalf("all %d receivers relayed; counter suppression inert", relays)
	}
	// Everyone still delivered.
	for i := 1; i < n; i++ {
		if len(h.deliv[event.NodeID(i+1)]) != 1 {
			t.Fatalf("node %d deliveries = %d", i+1, len(h.deliv[event.NodeID(i+1)]))
		}
	}
}

func TestStormRelaysParasitesButDoesNotDeliver(t *testing.T) {
	// Storm schemes are network-layer broadcasts: uninterested nodes
	// relay but never deliver.
	h := newHarness(t, 5)
	p1 := h.addStorm(1, Probabilistic, stormParams{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, stormParams{P: 1}, ".other")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	if len(h.deliv[2]) != 0 {
		t.Fatal("parasite delivered")
	}
	st := p2.Stats()
	if st.Parasites == 0 {
		t.Fatal("parasite not counted")
	}
	if st.EventsSent != 1 {
		t.Fatalf("uninterested node sent %d, want 1 (relays regardless)", st.EventsSent)
	}
}

func TestStormExpiredPruned(t *testing.T) {
	h := newHarness(t, 6)
	p1 := h.addStorm(1, Probabilistic, stormParams{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, stormParams{P: 1}, ".t")
	old, err := p1.Publish(topic.MustParse(".t"), nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	// Trigger a prune via another event.
	fresh, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(8))
	if p2.HasEvent(old) || !p2.HasEvent(fresh) {
		t.Fatalf("store holds expired=%v valid=%v, want only the valid event", p2.HasEvent(old), p2.HasEvent(fresh))
	}
}

func TestStormDeterminism(t *testing.T) {
	run := func() []proto.Stats {
		h := newHarness(t, 42)
		ps := make([]*Storm, 5)
		for i := range ps {
			ps[i] = h.addStorm(event.NodeID(i+1), CounterBased, stormParams{}, ".t")
		}
		if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
			t.Fatal(err)
		}
		h.eng.RunUntil(sim.Seconds(70))
		out := make([]proto.Stats, len(ps))
		for i, p := range ps {
			out[i] = p.Stats()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storm nondeterministic at node %d", i+1)
		}
	}
}
