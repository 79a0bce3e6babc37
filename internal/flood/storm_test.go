package flood

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

func (h *harness) addStorm(id event.NodeID, scheme StormScheme, t StormTuning, subs ...string) *Storm {
	h.t.Helper()
	p, err := NewStorm(scheme, t, h.env(id, 500))
	h.join(id, p, err, subs)
	return p
}

func TestStormTuningValidate(t *testing.T) {
	h := newHarness(t, 1)
	for _, bad := range []StormTuning{{P: 1.5}, {P: -0.1}, {CounterThreshold: -1}, {AssessmentDelay: -time.Second}} {
		if _, err := NewStorm(CounterBased, bad, h.env(1, 500)); err == nil {
			t.Errorf("StormTuning %+v accepted", bad)
		}
	}
}

func TestStormProbabilisticDelivers(t *testing.T) {
	h := newHarness(t, 1)
	p1 := h.addStorm(1, Probabilistic, StormTuning{P: 1.0}, ".t")
	h.addStorm(2, Probabilistic, StormTuning{P: 1.0}, ".t")
	h.addStorm(3, Probabilistic, StormTuning{P: 1.0}, ".t")
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
	p1 := h.addStorm(1, Probabilistic, StormTuning{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, StormTuning{P: 1e-12}, ".t")
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
		ps[i] = h.addStorm(event.NodeID(i+1), Probabilistic, StormTuning{P: 1}, ".t")
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
		ps[i] = h.addStorm(event.NodeID(i+1), CounterBased, StormTuning{
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
	p1 := h.addStorm(1, Probabilistic, StormTuning{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, StormTuning{P: 1}, ".other")
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
	p1 := h.addStorm(1, Probabilistic, StormTuning{P: 1}, ".t")
	p2 := h.addStorm(2, Probabilistic, StormTuning{P: 1}, ".t")
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
			ps[i] = h.addStorm(event.NodeID(i+1), CounterBased, StormTuning{}, ".t")
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
