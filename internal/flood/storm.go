package flood

import (
	"time"

	"repro/internal/event"
	"repro/internal/proto"
)

// The paper's related work (Section 6) discusses the broadcast storm
// problem (Ni et al.) and its classic remedies: the probabilistic and
// counter-based schemes. Storm implements both as additional baselines.
// Unlike the three periodic flooding variants, these are single-shot:
// a node rebroadcasts a newly received event at most once — with
// probability stormP (probabilistic) or only if it heard fewer than
// counterThreshold copies during a random assessment delay
// (counter-based). They tame redundancy in dense networks but cannot
// exploit node mobility or event validity: once the broadcast wave dies,
// partitioned nodes are never reached — precisely the gap the frugal
// protocol fills.

// StormScheme selects the rebroadcast decision rule.
type StormScheme int

const (
	// Probabilistic rebroadcasts each new event with probability stormP.
	Probabilistic StormScheme = iota
	// CounterBased rebroadcasts unless counterThreshold copies were
	// overheard during the assessment delay.
	CounterBased
)

// The schemes' parameters: standard choices in the literature.
const (
	// stormP is the probabilistic scheme's relay probability.
	stormP = 0.6
	// counterThreshold is the overheard-copy count that suppresses a
	// counter-based relay.
	counterThreshold = 3
	// assessmentDelay bounds the random wait before a relay decision.
	assessmentDelay = 500 * time.Millisecond
)

// stormState is one event's local rebroadcast state.
type stormState struct {
	copies  int  // copies heard (counter-based)
	decided bool // rebroadcast decision already taken
}

// Storm is one process running a broadcast-storm countermeasure scheme.
// It uses no control traffic and no periodic task.
type Storm struct {
	proto.Baseline[stormState]
	scheme StormScheme
	// prob, threshold and assess are stormP, counterThreshold and
	// assessmentDelay; in-package tests change them to force a verdict.
	prob      float64
	threshold int
	assess    time.Duration
}

// NewStorm creates a probabilistic or counter-based broadcast node.
func NewStorm(scheme StormScheme, env proto.Env) (*Storm, error) {
	s := &Storm{scheme: scheme, prob: stormP, threshold: counterThreshold, assess: assessmentDelay}
	if err := s.Init(env, s); err != nil {
		return nil, err
	}
	return s, nil
}

// OnHeartbeat and OnIDList implement proto.Rule: the storm schemes use
// no control traffic.
func (s *Storm) OnHeartbeat(event.Heartbeat) {}
func (s *Storm) OnIDList(event.IDList)       {}

// OnPublish implements proto.Rule: a published event is broadcast
// immediately (the storm wave origin) and never again by its publisher.
func (s *Storm) OnPublish(e *proto.Stored[stormState]) {
	e.State.decided = true
	s.Send([]*proto.Stored[stormState]{e}, s.Sched.Now())
}

// OnEvents implements proto.Rule.
func (s *Storm) OnEvents(msg event.Events) {
	now := s.Sched.Now()
	for _, ev := range msg.Events {
		// Storm schemes relay regardless of interest (they are
		// network-layer broadcasts), so parasites are kept.
		e, fresh := s.Receive(ev, now, true)
		if e != nil {
			e.State.copies++
		}
		if fresh {
			s.scheduleDecision(e)
		}
	}
	// Retention rule: an expired event stays until its decision was
	// taken; dropped earlier, a straggling copy would be stored anew and
	// arm a second decision.
	s.Prune(func(e *proto.Stored[stormState]) bool { return now >= e.ExpiresAt && e.State.decided })
}

// scheduleDecision arms the single-shot rebroadcast decision. The coin
// flip is drawn before the delay.
func (s *Storm) scheduleDecision(e *proto.Stored[stormState]) {
	if s.scheme == Probabilistic && s.Rand.Float64() >= s.prob {
		e.State.decided = true // lost the coin flip: never rebroadcast
		return
	}
	delay := time.Duration(s.Rand.Int63n(int64(s.assess) + 1))
	s.Sched.After(delay, func() {
		if s.Stopped() || e.State.decided {
			return
		}
		e.State.decided = true
		now := s.Sched.Now()
		if now >= e.ExpiresAt {
			return
		}
		if s.scheme == CounterBased && e.State.copies >= s.threshold {
			return // the neighborhood is saturated: suppress
		}
		s.Send([]*proto.Stored[stormState]{e}, now)
	})
}
