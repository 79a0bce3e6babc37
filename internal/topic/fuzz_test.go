package topic

import (
	"fmt"
	"strings"
	"testing"
)

// parseSplit is Parse as it was written before the one-pass scan, with
// strings.Split: FuzzParse holds Parse to its results and error texts.
func parseSplit(s string) (Topic, error) {
	if s == "" {
		return Topic{}, ErrEmpty
	}
	if s == "." {
		return Root(), nil
	}
	s = strings.TrimPrefix(s, ".")
	for _, seg := range strings.Split(s, ".") {
		if seg == "" {
			return Topic{}, fmt.Errorf("%w: empty segment in %q", ErrBadSegment, s)
		}
		if strings.ContainsAny(seg, " \t\n") {
			return Topic{}, fmt.Errorf("%w: whitespace in %q", ErrBadSegment, seg)
		}
	}
	return Topic{s: "." + s}, nil
}

// FuzzParse pins the parser's invariants on arbitrary input: it must
// agree with parseSplit, accepted topics must have a canonical form that
// re-parses to the same value, structural accessors must agree with each
// other, and the parent chain must walk to the root in Depth steps —
// while rejected input must fail with an error, never a panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		".", "a", ".a", "a.b", ".a.b.c", ".grenoble.conferences.middleware",
		"", "..", "a..b", ".a.", " ", "a b", "a\t.b", "a\n", ".app.news",
		"..a", "a. b..", ".a b.c d", "a.b\tc.",
		strings.Repeat(".x", 100),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := Parse(s)
		want, wantErr := parseSplit(s)
		if tp != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse(%q) = %q, %v; before the one-pass scan %q, %v", s, tp.s, err, want.s, wantErr)
		}
		if err != nil {
			return // rejected: only the absence of a panic matters
		}
		if tp.IsZero() {
			t.Fatalf("Parse(%q) returned the zero topic without error", s)
		}
		canon := tp.String()
		rt, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if rt != tp {
			t.Fatalf("canonical form is not a fixed point: %q -> %q -> %q", s, canon, rt.String())
		}
		segs := tp.Segments()
		if len(segs) != tp.Depth() {
			t.Fatalf("%q: %d segments but depth %d", canon, len(segs), tp.Depth())
		}
		if tp.IsRoot() != (tp.Depth() == 0) {
			t.Fatalf("%q: IsRoot and Depth disagree", canon)
		}
		// Rebuilding from the root via Child must reproduce the topic.
		rebuilt := Root()
		for _, seg := range segs {
			var cerr error
			rebuilt, cerr = rebuilt.Child(seg)
			if cerr != nil {
				t.Fatalf("%q: segment %q rejected by Child: %v", canon, seg, cerr)
			}
		}
		if rebuilt != tp {
			t.Fatalf("%q: Child-rebuild produced %q", canon, rebuilt.String())
		}
		// The parent chain must reach the root in exactly Depth steps,
		// and every ancestor must cover the topic.
		cur, steps := tp, 0
		for {
			parent, ok := cur.Parent()
			if !ok {
				break
			}
			steps++
			if steps > tp.Depth() {
				t.Fatalf("%q: parent chain longer than depth %d", canon, tp.Depth())
			}
			if !parent.Contains(tp) {
				t.Fatalf("ancestor %q does not contain %q", parent.String(), canon)
			}
			cur = parent
		}
		if !cur.IsRoot() {
			t.Fatalf("%q: parent chain ended at %q, not the root", canon, cur.String())
		}
		if steps != tp.Depth() {
			t.Fatalf("%q: parent chain length %d != depth %d", canon, steps, tp.Depth())
		}
	})
}
