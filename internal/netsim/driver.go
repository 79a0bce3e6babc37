package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// Cluster is the roster a Driver runs workload ops on: the simulator's
// runner, or cmd/loadgen's mesh of real sockets. Node indices are in
// [0, nodes); the Driver calls Publish, Crash, Subscribe and Unsubscribe
// only on a node that is up, and Recover only on one that is down.
type Cluster interface {
	Up(i int) bool
	Publish(i int, tp topic.Topic, validity time.Duration) (event.ID, error)
	Crash(i int)
	// Recover restarts node i with empty protocol state and its original
	// subscription; an error fails the run.
	Recover(i int) error
	Subscribe(i int, tp topic.Topic)
	Unsubscribe(i int, tp topic.Topic)
}

// Driver applies workload ops to a Cluster and registers what it
// publishes in a Ledger: the one owner of what an op means, so the
// simulator and the real-socket harness run the same semantics.
type Driver struct {
	c          Cluster
	l          *Ledger
	eventTopic topic.Topic
	// pubRng draws the publisher of an anonymous (Node -1) publication.
	pubRng *rand.Rand
}

// NewDriver returns a driver for c whose publications register in l;
// the zero topic on an op means eventTopic.
func NewDriver(c Cluster, l *Ledger, eventTopic topic.Topic, pubRng *rand.Rand) *Driver {
	return &Driver{c: c, l: l, eventTopic: eventTopic, pubRng: pubRng}
}

// Apply executes one op at time now. An op on a node out of range, a
// publication without validity or an unknown kind is misconfiguration
// and returns an error, as does a failed recovery. Ops the roster
// cannot carry out are skipped: a publication by a down node (not
// registered), an anonymous one with no subscribers, a publication the
// protocol refuses, a (un)subscription on a down node, a crash of a
// down node and a recovery of an up one.
func (d *Driver) Apply(op workload.Op, now sim.Time) error {
	if err := checkOp(op, d.l.nodes); err != nil {
		return fmt.Errorf("netsim: workload %w", err)
	}
	tp := op.Topic
	if tp.IsZero() {
		tp = d.eventTopic
	}
	switch op.Kind {
	case workload.Publish:
		i := op.Node
		if i < 0 {
			if len(d.l.subs) == 0 {
				return nil // nobody to publish; recorded as zero events
			}
			i = d.l.subs[d.pubRng.Intn(len(d.l.subs))]
		}
		if !d.c.Up(i) {
			return nil
		}
		id, err := d.c.Publish(i, tp, op.Validity)
		if err != nil {
			// Any buffered self-delivery belongs to the unregistered
			// publication.
			d.l.pending = d.l.pending[:0]
			return nil
		}
		d.l.register(PublishedEvent{ID: id, Publisher: event.NodeID(i), Topic: tp, At: now, Validity: op.Validity})
	case workload.Crash:
		if d.c.Up(op.Node) {
			d.c.Crash(op.Node)
		}
	case workload.Recover:
		if !d.c.Up(op.Node) {
			return d.c.Recover(op.Node)
		}
	case workload.Subscribe:
		if d.c.Up(op.Node) {
			d.c.Subscribe(op.Node, tp)
		}
	case workload.Unsubscribe:
		if d.c.Up(op.Node) {
			d.c.Unsubscribe(op.Node, tp)
		}
	default:
		return fmt.Errorf("netsim: unknown workload op kind %v", op.Kind)
	}
	return nil
}

// checkOp reports an op no roster of n nodes can carry out: a node out
// of range (a Publish may name -1, a random subscriber) or a
// publication without validity. Driver.Apply and Scenario.Validate
// share it, so a Schedule that validates never fails the run.
func checkOp(op workload.Op, n int) error {
	minNode := 0
	if op.Kind == workload.Publish {
		minNode = -1
	}
	if op.Node < minNode || op.Node >= n {
		return fmt.Errorf("%s op node %d out of range [%d,%d)", op.Kind, op.Node, minNode, n)
	}
	if op.Kind == workload.Publish && op.Validity <= 0 {
		return fmt.Errorf("publish op at %v without validity", op.At)
	}
	return nil
}
