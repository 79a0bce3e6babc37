// Package topic implements the dot-separated topic hierarchy of the
// paper's topic-based publish/subscribe model.
//
// Topics form a tree rooted at "." (the root topic). A subscription to a
// topic implicitly covers the whole subtree below it: a subscriber of
// ".grenoble.conferences" receives events published on
// ".grenoble.conferences.middleware".
package topic

import (
	"errors"
	"fmt"
	"strings"
)

// Topic is an immutable, canonical topic name such as ".a.b.c". The root
// topic is ".". The zero value is invalid; obtain topics via Parse,
// MustParse or Root.
type Topic struct {
	s string
}

// Root returns the root topic ".", the ancestor of every topic.
func Root() Topic { return Topic{s: "."} }

var (
	// ErrEmpty is returned when parsing an empty topic string.
	ErrEmpty = errors.New("topic: empty name")
	// ErrBadSegment is returned when a topic contains an empty or
	// malformed segment.
	ErrBadSegment = errors.New("topic: bad segment")
)

// Parse converts s into a canonical Topic. Both "a.b" and ".a.b" are
// accepted and normalize to ".a.b"; "." denotes the root. Empty segments
// ("a..b", trailing dots) and whitespace are rejected. One pass over the
// bytes validates, so a name already canonical costs no allocation.
func Parse(s string) (Topic, error) {
	if s == "" {
		return Topic{}, ErrEmpty
	}
	if s == "." {
		return Root(), nil
	}
	r := strings.TrimPrefix(s, ".")
	for start, i := 0, 0; i <= len(r); i++ {
		switch {
		case i == len(r) || r[i] == '.':
			if i == start {
				return Topic{}, fmt.Errorf("%w: empty segment in %q", ErrBadSegment, r)
			}
			start = i + 1
		case r[i] == ' ' || r[i] == '\t' || r[i] == '\n':
			seg, _, _ := strings.Cut(r[start:], ".")
			return Topic{}, fmt.Errorf("%w: whitespace in %q", ErrBadSegment, seg)
		}
	}
	if len(r) < len(s) {
		return Topic{s: s}, nil // already canonical
	}
	return Topic{s: "." + s}, nil
}

// MustParse is Parse that panics on error; intended for constants and
// tests.
func MustParse(s string) Topic {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// IsZero reports whether t is the invalid zero value.
func (t Topic) IsZero() bool { return t.s == "" }

// IsRoot reports whether t is the root topic.
func (t Topic) IsRoot() bool { return t.s == "." }

// String returns the canonical form, e.g. ".a.b". The zero value formats
// as "<invalid>".
func (t Topic) String() string {
	if t.IsZero() {
		return "<invalid>"
	}
	return t.s
}

// Segments returns the path segments from the root, excluding the root
// itself. The root topic has no segments.
func (t Topic) Segments() []string {
	if t.IsZero() || t.IsRoot() {
		return nil
	}
	return strings.Split(t.s[1:], ".")
}

// Depth returns the number of segments below the root.
func (t Topic) Depth() int { return len(t.Segments()) }

// Parent returns the immediate super-topic and true, or the zero Topic and
// false when t is the root or invalid.
func (t Topic) Parent() (Topic, bool) {
	if t.IsZero() || t.IsRoot() {
		return Topic{}, false
	}
	i := strings.LastIndexByte(t.s, '.')
	if i == 0 {
		return Root(), true
	}
	return Topic{s: t.s[:i]}, true
}

// Child returns the sub-topic of t named seg.
func (t Topic) Child(seg string) (Topic, error) {
	if t.IsZero() {
		return Topic{}, ErrEmpty
	}
	if seg == "" || strings.ContainsAny(seg, ". \t\n") {
		return Topic{}, fmt.Errorf("%w: %q", ErrBadSegment, seg)
	}
	if t.IsRoot() {
		return Topic{s: "." + seg}, nil
	}
	return Topic{s: t.s + "." + seg}, nil
}

// Contains reports whether u lies in the subtree rooted at t; that is,
// whether a subscription to t covers events published on u. A topic
// contains itself. The zero value contains nothing and is contained by
// nothing.
func (t Topic) Contains(u Topic) bool {
	if t.IsZero() || u.IsZero() {
		return false
	}
	if t.IsRoot() {
		return true
	}
	if t.s == u.s {
		return true
	}
	return strings.HasPrefix(u.s, t.s) && len(u.s) > len(t.s) && u.s[len(t.s)] == '.'
}

// Related reports whether one of the topics is an ancestor-or-equal of the
// other. Two subscriptions "match" in the sense of the paper when they are
// related: events of interest can flow between their subscribers.
func (t Topic) Related(u Topic) bool {
	return t.Contains(u) || u.Contains(t)
}

// Compare orders topics lexicographically by canonical name; it returns
// -1, 0 or +1.
func (t Topic) Compare(u Topic) int {
	return strings.Compare(t.s, u.s)
}
