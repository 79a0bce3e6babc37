package netsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// fakeCluster records the primitives a Driver calls on it.
type fakeCluster struct {
	up      []bool
	refuse  bool // Publish fails
	calls   []string
	nextPub uint64
}

func (f *fakeCluster) Up(i int) bool { return f.up[i] }

func (f *fakeCluster) Publish(i int, tp topic.Topic, _ time.Duration) (event.ID, error) {
	f.calls = append(f.calls, fmt.Sprintf("publish %d %s", i, tp))
	if f.refuse {
		return event.ID{}, errors.New("refused")
	}
	f.nextPub++
	return event.ID{Lo: f.nextPub}, nil
}

func (f *fakeCluster) Crash(i int) {
	f.calls = append(f.calls, fmt.Sprintf("crash %d", i))
	f.up[i] = false
}

func (f *fakeCluster) Recover(i int) error {
	f.calls = append(f.calls, fmt.Sprintf("recover %d", i))
	f.up[i] = true
	return nil
}

func (f *fakeCluster) Subscribe(i int, tp topic.Topic) {
	f.calls = append(f.calls, fmt.Sprintf("subscribe %d %s", i, tp))
}

func (f *fakeCluster) Unsubscribe(i int, tp topic.Topic) {
	f.calls = append(f.calls, fmt.Sprintf("unsubscribe %d %s", i, tp))
}

// TestDriverSemantics pins what each op means, over a fake 4-node
// cluster: the calls the driver makes, the eligibility of each
// publication it registers, and the ops that fail the run.
func TestDriverSemantics(t *testing.T) {
	ev := topic.MustParse(".ev")
	other := topic.MustParse(".other")
	pub := func(node int) workload.Op {
		return workload.Op{Kind: workload.Publish, Node: node, Validity: time.Second}
	}
	op := func(k workload.Kind, node int) workload.Op { return workload.Op{Kind: k, Node: node} }
	cases := []struct {
		name     string
		subs     []int
		down     []int
		refuse   bool
		ops      []workload.Op
		calls    []string
		eligible []int // per registered publication
		err      string
	}{
		{
			name: "a down publisher is skipped and nothing is registered",
			subs: []int{0, 1, 2}, down: []int{1},
			ops: []workload.Op{pub(1)},
		},
		{
			name:     "an anonymous publisher comes from the subscriber roster",
			subs:     []int{2},
			ops:      []workload.Op{pub(-1), pub(-1)},
			calls:    []string{"publish 2 .ev", "publish 2 .ev"},
			eligible: []int{0, 0},
		},
		{
			name: "zero subscribers means no anonymous publication",
			ops:  []workload.Op{pub(-1)},
		},
		{
			name:     "a subscribed publisher is excluded from eligibility",
			subs:     []int{0, 1, 2},
			ops:      []workload.Op{pub(1), pub(3)},
			calls:    []string{"publish 1 .ev", "publish 3 .ev"},
			eligible: []int{2, 3},
		},
		{
			name:   "a refused publication is skipped",
			subs:   []int{0},
			refuse: true,
			ops:    []workload.Op{pub(0)},
			calls:  []string{"publish 0 .ev"},
		},
		{
			name: "subscribe and unsubscribe on a down node are no-ops",
			down: []int{2},
			ops: []workload.Op{
				op(workload.Subscribe, 2), op(workload.Unsubscribe, 2),
				op(workload.Subscribe, 1), {Kind: workload.Unsubscribe, Node: 1, Topic: other},
			},
			calls: []string{"subscribe 1 .ev", "unsubscribe 1 .other"},
		},
		{
			name: "crash and recover are idempotent",
			ops: []workload.Op{
				op(workload.Recover, 0), op(workload.Crash, 0), op(workload.Crash, 0),
				op(workload.Recover, 0), op(workload.Recover, 0),
			},
			calls: []string{"crash 0", "recover 0"},
		},
		{name: "a node past the roster fails", ops: []workload.Op{op(workload.Crash, 4)}, err: "out of range"},
		{name: "a negative node fails", ops: []workload.Op{op(workload.Subscribe, -1)}, err: "out of range"},
		{name: "a publisher below -1 fails", ops: []workload.Op{pub(-2)}, err: "out of range"},
		{
			name: "a publication without validity fails",
			ops:  []workload.Op{{Kind: workload.Publish, Node: 0}},
			err:  "without validity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &fakeCluster{up: []bool{true, true, true, true}, refuse: tc.refuse}
			for _, i := range tc.down {
				c.up[i] = false
			}
			l := NewLedger(4, tc.subs, false)
			d := NewDriver(c, l, ev, sim.NewStream(1))
			var err error
			for _, o := range tc.ops {
				if err = d.Apply(o, 0); err != nil {
					break
				}
			}
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("err = %v, want %q", err, tc.err)
			}
			if strings.Join(c.calls, "; ") != strings.Join(tc.calls, "; ") {
				t.Errorf("calls = %q, want %q", c.calls, tc.calls)
			}
			out := l.Outcomes()
			if len(out) != len(tc.eligible) {
				t.Fatalf("%d publications registered, want %d", len(out), len(tc.eligible))
			}
			for i, o := range out {
				if o.Eligible != tc.eligible[i] {
					t.Errorf("publication %d: eligible %d, want %d", i, o.Eligible, tc.eligible[i])
				}
			}
		})
	}
}
