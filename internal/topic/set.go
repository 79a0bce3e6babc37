package topic

import (
	"slices"
	"sort"
)

// Set is a mutable collection of subscriptions. The zero value is an empty
// set ready to use. Set is not safe for concurrent use.
//
// Members live in a slice kept sorted by canonical name: subscription
// sets are tiny (a handful of topics) but Covers/Overlaps run on every
// received heartbeat and event of every node, where a map's
// per-iteration setup cost dominated the city-sweep profile. A sorted
// slice scans with zero overhead and gives Topics/String their
// canonical order for free.
type Set struct {
	ts []Topic // sorted by Compare
}

// NewSet returns a set holding the given topics.
func NewSet(ts ...Topic) *Set {
	s := &Set{}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// search returns t's position (or insertion point) and whether it is
// present.
func (s *Set) search(t Topic) (int, bool) {
	i := sort.Search(len(s.ts), func(i int) bool { return s.ts[i].Compare(t) >= 0 })
	return i, i < len(s.ts) && s.ts[i] == t
}

// Add inserts t and reports whether the set changed. Adding the zero topic
// is a no-op.
func (s *Set) Add(t Topic) bool {
	if t.IsZero() {
		return false
	}
	i, ok := s.search(t)
	if ok {
		return false
	}
	s.ts = append(s.ts, Topic{})
	copy(s.ts[i+1:], s.ts[i:])
	s.ts[i] = t
	return true
}

// Remove deletes t and reports whether it was present.
func (s *Set) Remove(t Topic) bool {
	i, ok := s.search(t)
	if !ok {
		return false
	}
	s.ts = append(s.ts[:i], s.ts[i+1:]...)
	return true
}

// Len returns the number of subscriptions.
func (s *Set) Len() int { return len(s.ts) }

// Empty reports whether the set has no subscriptions.
func (s *Set) Empty() bool { return len(s.ts) == 0 }

// Covers reports whether some subscription in the set is an
// ancestor-or-equal of t: an event published on t is of interest to this
// subscriber.
func (s *Set) Covers(t Topic) bool {
	for _, sub := range s.ts {
		if sub.Contains(t) {
			return true
		}
	}
	return false
}

// OverlapsAny reports whether any subscription in the set is related to
// (covers or is covered by) a topic of ts, a plain topic list such as
// the one a heartbeat carries. This is the paper's neighbor-matching
// rule: two processes are mutually interesting when their subscriptions
// overlap, and a receiver can tell an uninteresting sender without
// building a set.
func (s *Set) OverlapsAny(ts []Topic) bool {
	for _, ta := range s.ts {
		for _, tb := range ts {
			if ta.Related(tb) {
				return true
			}
		}
	}
	return false
}

// Topics returns the members sorted by canonical name.
func (s *Set) Topics() []Topic {
	return append([]Topic(nil), s.ts...)
}

// Minimal returns the smallest subscription list with the same coverage:
// topics subsumed by an ancestor in the set are dropped. Subscribing to
// ".a" and ".a.b" covers exactly what ".a" alone covers, so heartbeats
// only need to announce the minimal set — an optimization the
// topic-hierarchy semantics make free.
func (s *Set) Minimal() []Topic {
	ts := s.Topics()
	out := ts[:0:0]
	for _, t := range ts {
		subsumed := false
		for _, anc := range ts {
			if anc != t && anc.Contains(t) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, t)
		}
	}
	return out
}

// Equal reports whether the two sets hold exactly the same topics.
func (s *Set) Equal(o *Set) bool { return s.EqualSlice(o.ts) }

// EqualSlice reports whether ts lists exactly the set's members in
// canonical order, as Topics and Minimal produce them. A permuted or
// repeating list reports false even when NewSet(ts...) would equal s, so
// a caller holding an arbitrary list falls back to that.
func (s *Set) EqualSlice(ts []Topic) bool { return slices.Equal(s.ts, ts) }

// String formats the set as a sorted, comma-separated list.
func (s *Set) String() string {
	ts := s.Topics()
	out := ""
	for i, t := range ts {
		if i > 0 {
			out += ","
		}
		out += t.String()
	}
	return "{" + out + "}"
}
