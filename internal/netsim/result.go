package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"time"

	"repro/internal/event"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// PublishedEvent records one publication during the run.
type PublishedEvent struct {
	ID        event.ID
	Publisher event.NodeID
	Topic     topic.Topic
	At        sim.Time
	Validity  time.Duration
}

// EventOutcome is the delivery outcome of one published event.
type EventOutcome struct {
	PublishedEvent
	// Eligible is the number of subscribers excluding the publisher.
	Eligible int
	// DeliveredInTime counts eligible nodes that delivered the event
	// before its validity expired.
	DeliveredInTime int
	// Censored is true when the event's validity ends after the
	// measurement window does (Warmup+Measure): deliveries still due
	// were never simulated, so DeliveredInTime is a lower bound. It is
	// derived from the scenario, so Fingerprint leaves it out.
	Censored bool
}

// Reliability is the paper's "probability of event reception":
// DeliveredInTime / Eligible.
func (o EventOutcome) Reliability() float64 {
	if o.Eligible == 0 {
		return 0
	}
	return float64(o.DeliveredInTime) / float64(o.Eligible)
}

// NodeResult carries one node's counters over the measurement window.
type NodeResult struct {
	ID         event.NodeID
	Subscribed bool
	Proto      proto.Stats
	MAC        mac.Counters
}

// DeliveryRecord is one first-time application delivery.
type DeliveryRecord struct {
	Event event.ID
	Node  event.NodeID
	At    sim.Time
}

// Result is everything measured in one run.
type Result struct {
	Scenario  Scenario
	Nodes     []NodeResult
	Published []PublishedEvent
	// Deliveries lists every first delivery, but only when the scenario
	// sets DeliveryLog (or Trace): the streaming aggregation otherwise
	// folds deliveries into Outcomes and Latency as they happen and
	// keeps no per-delivery state.
	Deliveries []DeliveryRecord
	Outcomes   []EventOutcome
	// Latency is the streaming histogram of publish-to-first-delivery
	// latencies in seconds across all events, excluding the publisher's
	// local self-delivery and deliveries past the event's validity.
	// Always populated, with O(1) memory, regardless of DeliveryLog.
	Latency metrics.LogHist
	// Series is the sampled time-series of the measurement window,
	// populated when Scenario.Sample is positive. It is excluded from
	// Fingerprint by construction: the fingerprint pins that sampling
	// is observation-only — the same scenario hashes identically with
	// sampling on or off (series content itself is seed-deterministic
	// and parallelism invariant; see series_test.go).
	Series *Series
}

// Fingerprint digests everything measured in the run — publications,
// outcomes, per-node counters, the delivery log (when kept) and the
// latency histogram — into a stable hex string. Run is a pure function
// of (Scenario, Seed), so the fingerprint pins a whole city-scale
// simulation in one golden line where the full table output would be
// megabytes (see the metro golden test in internal/exp).
func (r *Result) Fingerprint() string {
	h := sha256.New()
	w := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	w(uint64(len(r.Published)))
	for _, pe := range r.Published {
		w(pe.ID)
		w(uint32(pe.Publisher))
		w(int64(pe.At))
		w(int64(pe.Validity))
		_, _ = io.WriteString(h, pe.Topic.String())
	}
	w(uint64(len(r.Outcomes)))
	for _, o := range r.Outcomes {
		w(int64(o.Eligible))
		w(int64(o.DeliveredInTime))
	}
	w(uint64(len(r.Nodes)))
	for _, n := range r.Nodes {
		w(uint32(n.ID))
		w(n.Subscribed)
		w(n.Proto)
		w(n.MAC)
	}
	w(uint64(len(r.Deliveries)))
	for _, d := range r.Deliveries {
		w(d.Event)
		w(uint32(d.Node))
		w(int64(d.At))
	}
	_ = r.Latency.WriteBinary(h)
	return hex.EncodeToString(h.Sum(nil))
}

// CoverageAt returns the fraction of eligible subscribers that had
// delivered event id by time t. It reads Deliveries, so it requires
// Scenario.DeliveryLog.
func (r *Result) CoverageAt(id event.ID, t sim.Time) float64 {
	var o *EventOutcome
	for i := range r.Outcomes {
		if r.Outcomes[i].ID == id {
			o = &r.Outcomes[i]
			break
		}
	}
	if o == nil || o.Eligible == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Deliveries {
		if d.Event == id && d.Node != o.Publisher && d.At <= t {
			n++
		}
	}
	return float64(n) / float64(o.Eligible)
}

// Reliability averages per-event reliability across all published events.
func (r *Result) Reliability() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range r.Outcomes {
		sum += o.Reliability()
	}
	return sum / float64(len(r.Outcomes))
}

// meanPerNode averages f over every node.
func (r *Result) meanPerNode(f func(NodeResult) float64) float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range r.Nodes {
		sum += f(n)
	}
	return sum / float64(len(r.Nodes))
}

// AppBytesPerProcess is the paper's "bandwidth used per process":
// application bytes broadcast per node over the measurement window
// (heartbeats + id lists + events under the size model).
func (r *Result) AppBytesPerProcess() float64 {
	return r.meanPerNode(func(n NodeResult) float64 { return float64(n.MAC.AppBytesSent) })
}

// EventsSentPerProcess counts event copies broadcast per node (paper
// Figure 18).
func (r *Result) EventsSentPerProcess() float64 {
	return r.meanPerNode(func(n NodeResult) float64 { return float64(n.Proto.EventsSent) })
}

// DuplicatesPerProcess counts received already-known events per node
// (paper Figure 19).
func (r *Result) DuplicatesPerProcess() float64 {
	return r.meanPerNode(func(n NodeResult) float64 { return float64(n.Proto.Duplicates) })
}

// ParasitesPerProcess counts received uninteresting events per node
// (paper Figure 20).
func (r *Result) ParasitesPerProcess() float64 {
	return r.meanPerNode(func(n NodeResult) float64 { return float64(n.Proto.Parasites) })
}

// FramesLostTotal sums MAC-level collision losses over all nodes.
func (r *Result) FramesLostTotal() uint64 {
	var sum uint64
	for _, n := range r.Nodes {
		sum += n.MAC.FramesLost
	}
	return sum
}
