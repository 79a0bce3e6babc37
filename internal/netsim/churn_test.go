package netsim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestManhattanChurnDeliveryInvariants pins the crash/recovery paths
// under the registry scenario: first-time deliveries are unique per
// (event, node), a node records no deliveries while it is down, and a
// crashed-forever node stays silent after its failure instant.
func TestManhattanChurnDeliveryInvariants(t *testing.T) {
	def, ok := LookupScenario("manhattan-churn")
	if !ok {
		t.Fatal("manhattan-churn not registered")
	}
	for seed := int64(1); seed <= 3; seed++ {
		sc := def.Instantiate(seed)
		sc.DeliveryLog = true // the invariants below read res.Deliveries
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			ev   event.ID
			node event.NodeID
		}
		seen := make(map[key]bool)
		for _, d := range res.Deliveries {
			k := key{d.Event, d.Node}
			if seen[k] {
				t.Fatalf("seed %d: event %v delivered twice to node %v", seed, d.Event, d.Node)
			}
			seen[k] = true
		}
		// The template's churn schedule: node 3 down [50 s, 90 s), node
		// 7 down from 70 s forever.
		for _, d := range res.Deliveries {
			if d.Node == 3 && d.At >= sim.Seconds(50) && d.At < sim.Seconds(90) {
				t.Fatalf("seed %d: node 3 delivered at %v while crashed", seed, d.At)
			}
			if d.Node == 7 && d.At >= sim.Seconds(70) {
				t.Fatalf("seed %d: node 7 delivered at %v after its permanent crash", seed, d.At)
			}
		}
		// Determinism: the same (Scenario, Seed) replays the exact
		// delivery timeline and outcomes.
		res2, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Deliveries, res2.Deliveries) {
			t.Fatalf("seed %d: delivery timelines differ across identical runs", seed)
		}
		if !reflect.DeepEqual(res.Outcomes, res2.Outcomes) {
			t.Fatalf("seed %d: outcomes differ across identical runs", seed)
		}
	}
}

// TestMidCrashPublicationNoDoubleDelivery publishes while a node is
// down and recovers it inside the event's validity: the recovered node
// (fresh, empty tables) may re-receive the event, but the run must
// record at most one delivery per (event, node) and none during the
// down window.
func TestMidCrashPublicationNoDoubleDelivery(t *testing.T) {
	sc := Scenario{
		Name:  "mid-crash",
		Nodes: 10,
		Seed:  4,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(300, 300), // everyone in range of everyone
		},
		MAC:                mac.DefaultConfig(500),
		Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule: []workload.Op{
			{At: 20 * time.Second, Kind: workload.Crash, Node: 2},
			// Published while node 2 is down.
			publish(25*time.Second, 0, 90*time.Second),
			{At: 40 * time.Second, Kind: workload.Recover, Node: 2},
		},
		Warmup:      10 * time.Second,
		Measure:     100 * time.Second,
		DeliveryLog: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Published) != 1 {
		t.Fatalf("published %d events, want 1", len(res.Published))
	}
	ev := res.Published[0].ID
	got := 0
	for _, d := range res.Deliveries {
		if d.Event != ev {
			continue
		}
		if d.Node == 2 {
			got++
			if d.At < sim.Seconds(40) {
				t.Fatalf("crashed node delivered at %v, before its recovery", d.At)
			}
		}
	}
	if got > 1 {
		t.Fatalf("recovered node recorded %d deliveries of one event", got)
	}
	if got == 0 {
		t.Fatal("recovered node never caught up on the mid-crash publication (dense static roster should re-disseminate)")
	}
}

// TestScheduleTiesApplyInListedOrder: same-instant Schedule ops apply
// in the order written. A publication listed before its publisher's
// crash goes out; one listed after it is skipped (a down node cannot
// publish), so nothing is registered.
func TestScheduleTiesApplyInListedOrder(t *testing.T) {
	at := 5 * time.Second
	pub := publish(at, 0, 30*time.Second)
	crash := workload.Op{At: at, Kind: workload.Crash, Node: 0}
	for _, tc := range []struct {
		name      string
		schedule  []workload.Op
		published int
	}{
		{"publish then crash", []workload.Op{pub, crash}, 1},
		{"crash then publish", []workload.Op{crash, pub}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := denseStatic(3)
			sc.Schedule = tc.schedule
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Published) != tc.published {
				t.Fatalf("published %d events, want %d", len(res.Published), tc.published)
			}
			if tc.published == 1 && res.Published[0].At != sim.At(at) {
				t.Fatalf("published at %v, want %v", res.Published[0].At, at)
			}
		})
	}
}

// TestWorkloadChurnRunIsFailsafe drives the churn generators through a
// real run: crash/recover and unsubscribe/resubscribe ops emitted by
// the registry generators must execute without error and keep delivery
// records unique.
func TestWorkloadChurnRunIsFailsafe(t *testing.T) {
	sc := Scenario{
		Name:  "churn-mix",
		Nodes: 12,
		Seed:  6,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(400, 400),
		},
		MAC:                mac.DefaultConfig(500),
		SubscriberFraction: 1.0,
		Workload: WorkloadSpec{
			Name: "mix",
			Params: workload.MixParams{Parts: []workload.Spec{
				{Name: "periodic", Params: workload.PeriodicParams{Period: 4 * time.Second}},
				{Name: "churn-nodes", Params: workload.NodeChurnParams{Waves: 3, Fraction: 0.25, Downtime: 10 * time.Second}},
				{Name: "churn-subs", Params: workload.SubChurnParams{Rate: 0.2, Resub: 5 * time.Second}},
			}},
		},
		Warmup:      10 * time.Second,
		Measure:     90 * time.Second,
		DeliveryLog: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Published) == 0 {
		t.Fatal("mixed workload published nothing")
	}
	type key struct {
		ev   event.ID
		node event.NodeID
	}
	seen := make(map[key]bool)
	for _, d := range res.Deliveries {
		k := key{d.Event, d.Node}
		if seen[k] {
			t.Fatalf("event %v delivered twice to node %v under generated churn", d.Event, d.Node)
		}
		seen[k] = true
	}
}

// strayCrash is the params type of the test-only "stray-crash"
// generator: one crash of node 99, a second into the run.
type strayCrash struct{}

func (strayCrash) Validate() error { return nil }

func init() {
	workload.RegisterWorkload(workload.Definition{
		Name:        "stray-crash",
		Description: "test only: crashes a node outside any small roster",
		Class:       workload.ClassUtil,
		Params:      strayCrash{},
		New: func(workload.Params, workload.Env) (workload.Generator, error) {
			return workload.NewExplicit([]workload.Op{{At: time.Second, Kind: workload.Crash, Node: 99}}), nil
		},
	})
}

// TestWorkloadOutOfRangeOpFailsRun pins the runner's defense: a
// generator emitting an out-of-roster node index is deterministic
// misconfiguration and must fail the run, not corrupt it.
func TestWorkloadOutOfRangeOpFailsRun(t *testing.T) {
	sc := Scenario{
		Nodes: 3,
		Seed:  1,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(100, 100),
		},
		MAC:                mac.DefaultConfig(200),
		SubscriberFraction: 1.0,
		Workload:           WorkloadSpec{Name: "stray-crash"},
		Warmup:             time.Second,
		Measure:            10 * time.Second,
	}
	if _, err := Run(sc); err == nil {
		t.Fatal("run with an out-of-range workload op succeeded")
	}
}

// TestBatchedPumpConcurrentRuns drives churny generated workloads on
// several goroutines at once — the shape the exp worker pool runs at
// 10k-node scale. Under -race this is the regression net for the
// batched delivery pump: runner state (delivery slabs, pooled engine
// items, MAC scratch buffers) must stay strictly per-run, and every
// concurrent replica of the same (scenario, seed) must produce the
// identical result.
func TestBatchedPumpConcurrentRuns(t *testing.T) {
	def, ok := LookupScenario("manhattan-churn")
	if !ok {
		t.Fatal("manhattan-churn scenario missing")
	}
	sc := def.Instantiate(5)
	sc.Workload = WorkloadSpec{
		Name: "mix",
		Params: workload.MixParams{Parts: []workload.Spec{
			{Name: "poisson"},
			{Name: "churn-subs"},
		}},
	}
	const replicas = 4
	rels := make([]float64, replicas)
	delivered := make([]uint64, replicas)
	var wg sync.WaitGroup
	wg.Add(replicas)
	for i := 0; i < replicas; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := Run(sc)
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			rels[i] = res.Reliability()
			delivered[i] = res.DeliveredTotal()
		}(i)
	}
	wg.Wait()
	for i := 1; i < replicas; i++ {
		if rels[i] != rels[0] || delivered[i] != delivered[0] {
			t.Fatalf("replica %d diverged: rel %v vs %v, delivered %d vs %d",
				i, rels[i], rels[0], delivered[i], delivered[0])
		}
	}
}

// TestSharedGraphConcurrentRuns runs reduced metro instances — which
// share the registered template's street network — on several
// goroutines at once. Under -race this pins the mobility.Graph
// memoization (Validate/popularity caches) as safe for the exp worker
// pool's concurrent sweeps over one shared graph.
func TestSharedGraphConcurrentRuns(t *testing.T) {
	def, ok := LookupScenario("metro-5k")
	if !ok {
		t.Fatal("metro-5k scenario missing")
	}
	var wg sync.WaitGroup
	rels := make([]float64, 3)
	for i := range rels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := def.Instantiate(9)
			sc.Nodes = 200
			sc.Warmup = 5 * time.Second
			sc.Measure = 20 * time.Second
			res, err := Run(sc)
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			rels[i] = res.Reliability()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(rels); i++ {
		if rels[i] != rels[0] {
			t.Fatalf("replica %d diverged: %v vs %v", i, rels[i], rels[0])
		}
	}
}
