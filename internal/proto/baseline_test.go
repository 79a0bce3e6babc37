package proto

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/topic"
)

// idleRule ignores every message: the tests below exercise only the
// skeleton's periodic tasks.
type idleRule struct{}

func (idleRule) OnHeartbeat(event.Heartbeat) {}
func (idleRule) OnIDList(event.IDList)       {}
func (idleRule) OnEvents(event.Events)       {}
func (idleRule) OnPublish(*Stored[struct{}]) {}

// lastSent keeps the latest broadcast.
type lastSent struct{ m event.Message }

func (l *lastSent) Broadcast(m event.Message) { l.m = m }

// tasksNode is a Baseline on an engine of its own with two periodic
// tasks, a heartbeat and a counter, started by subscribing to subs.
func tasksNode(t *testing.T, subs ...string) (*Baseline[struct{}], *sim.Engine, *lastSent, *int) {
	t.Helper()
	eng := sim.New(1)
	tr := &lastSent{}
	b := &Baseline[struct{}]{}
	env := Env{ID: 1, Sched: EngineScheduler{eng}, Transport: tr, Rand: rand.New(rand.NewSource(1))}
	if err := b.Init(env, idleRule{}); err != nil {
		t.Fatal(err)
	}
	ticks := new(int)
	b.Every(time.Second, b.Heartbeat)
	b.Every(1500*time.Millisecond, func() { *ticks++ })
	for _, s := range subs {
		if err := b.Subscribe(topic.MustParse(s)); err != nil {
			t.Fatal(err)
		}
	}
	return b, eng, tr, ticks
}

// TestPeriodicTaskAllocs pins a baseline's periodic tasks at zero
// allocations per period once the engine is warm: each task re-arms its
// own timer with Reset, and Heartbeat reuses its boxed message until the
// subscriptions change.
func TestPeriodicTaskAllocs(t *testing.T) {
	b, eng, _, ticks := tasksNode(t, ".a", ".b")
	for i := 0; i < 2000; i++ { // every wheel slot the periods cycle through
		eng.Step()
	}
	hb, n := b.Count.HeartbeatsSent, *ticks
	allocs := testing.AllocsPerRun(100, func() { eng.Step() })
	if b.Count.HeartbeatsSent == hb || *ticks == n {
		t.Fatalf("101 steps ran %d heartbeats and %d ticks: both tasks must run", b.Count.HeartbeatsSent-hb, *ticks-n)
	}
	if allocs != 0 {
		t.Fatalf("a period of a heartbeat and a counter task allocates %v times, want 0", allocs)
	}
}

// TestHeartbeatFollowsSubscriptions checks the reused beacon: the next
// heartbeat after a subscription change announces the new set, and a
// heartbeat already sent keeps the list it was sent with.
func TestHeartbeatFollowsSubscriptions(t *testing.T) {
	b, eng, tr, _ := tasksNode(t, ".a", ".b")
	topics := func(ss ...string) []topic.Topic {
		var ts []topic.Topic
		for _, s := range ss {
			ts = append(ts, topic.MustParse(s))
		}
		return ts
	}
	heartbeat := func() []topic.Topic {
		t.Helper()
		sent := b.Count.HeartbeatsSent
		for b.Count.HeartbeatsSent == sent {
			eng.Step()
		}
		return tr.m.(event.Heartbeat).Subscriptions
	}
	first := heartbeat()
	if want := topics(".a", ".b"); !slices.Equal(first, want) || !slices.Equal(heartbeat(), want) {
		t.Fatalf("heartbeats announce %v, want %v", first, want)
	}
	b.Unsubscribe(topic.MustParse(".a"))
	if got, want := heartbeat(), topics(".b"); !slices.Equal(got, want) {
		t.Fatalf("after Unsubscribe the heartbeat announces %v, want %v", got, want)
	}
	if err := b.Subscribe(topic.MustParse(".c")); err != nil {
		t.Fatal(err)
	}
	if got, want := heartbeat(), topics(".b", ".c"); !slices.Equal(got, want) {
		t.Fatalf("after Subscribe the heartbeat announces %v, want %v", got, want)
	}
	if want := topics(".a", ".b"); !slices.Equal(first, want) {
		t.Fatalf("a sent heartbeat's list changed to %v", first)
	}
}

// TestEveryTaskThatStopsDoesNotRearm stops the protocol from inside a
// periodic task: Stop drops the task's handle, and the task must neither
// re-arm nor touch the dropped handle.
func TestEveryTaskThatStopsDoesNotRearm(t *testing.T) {
	eng := sim.New(1)
	b := &Baseline[struct{}]{}
	env := Env{ID: 1, Sched: EngineScheduler{eng}, Transport: &lastSent{}, Rand: rand.New(rand.NewSource(1))}
	if err := b.Init(env, idleRule{}); err != nil {
		t.Fatal(err)
	}
	runs := 0
	b.Every(time.Second, func() {
		runs++
		b.Stop()
	})
	if err := b.Subscribe(topic.MustParse(".a")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if runs != 1 || eng.Pending() != 0 {
		t.Fatalf("task ran %d times and left %d callbacks pending, want 1 and 0", runs, eng.Pending())
	}
}
