package topic

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set // zero value usable
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero set should be empty")
	}
	a := MustParse(".a")
	if !s.Add(a) {
		t.Fatal("first Add should report change")
	}
	if s.Add(a) {
		t.Fatal("second Add should report no change")
	}
	if _, ok := s.search(a); !ok || s.Len() != 1 {
		t.Fatal("membership after Add")
	}
	if !s.Remove(a) || s.Remove(a) {
		t.Fatal("Remove semantics")
	}
	if !s.Empty() {
		t.Fatal("set should be empty after Remove")
	}
}

func TestSetAddZeroTopic(t *testing.T) {
	var s Set
	if s.Add(Topic{}) {
		t.Fatal("adding zero topic should be a no-op")
	}
	if !s.Empty() {
		t.Fatal("set should remain empty")
	}
}

func TestSetCovers(t *testing.T) {
	s := NewSet(MustParse(".t0.t1"))
	tests := []struct {
		tp   string
		want bool
	}{
		{".t0.t1", true},
		{".t0.t1.t2", true}, // subtopic events are covered
		{".t0", false},      // ancestor events are not
		{".t9", false},
	}
	for _, tt := range tests {
		if got := s.Covers(MustParse(tt.tp)); got != tt.want {
			t.Errorf("Covers(%s) = %v, want %v", tt.tp, got, tt.want)
		}
	}
}

func TestSetOverlaps(t *testing.T) {
	t0 := NewSet(MustParse(".t0"))
	t1 := NewSet(MustParse(".t0.t1"))
	t2 := NewSet(MustParse(".t0.t1.t2"))
	other := NewSet(MustParse(".x"))
	empty := NewSet()

	if !t0.OverlapsAny(t2.ts) || !t2.OverlapsAny(t0.ts) {
		t.Fatal("ancestor/descendant sets must overlap (paper Fig 1)")
	}
	if !t1.OverlapsAny(t2.ts) {
		t.Fatal("t1/t2 must overlap")
	}
	if t1.OverlapsAny(other.ts) {
		t.Fatal("unrelated sets must not overlap")
	}
	if empty.OverlapsAny(t0.ts) || t0.OverlapsAny(empty.ts) {
		t.Fatal("empty set overlaps nothing")
	}
	if t0.OverlapsAny(nil) {
		t.Fatal("an empty list overlaps nothing")
	}
}

func TestSetAgainstTopicLists(t *testing.T) {
	a, b, x := MustParse(".a"), MustParse(".a.b"), MustParse(".x")
	s := NewSet(b, a)
	// EqualSlice: only the canonical listing is equal; a permuted,
	// repeating or zero-padded one is not, though NewSet of it is.
	if !s.EqualSlice([]Topic{a, b}) || !s.EqualSlice(s.Topics()) {
		t.Fatal("canonical list must equal the set")
	}
	for _, ts := range [][]Topic{{b, a}, {a, b, b}, {a, b, {}}, {a}, nil} {
		if s.EqualSlice(ts) {
			t.Fatalf("EqualSlice(%v) = true", ts)
		}
	}
	if !NewSet(b, a, b, Topic{}).Equal(s) || !NewSet().EqualSlice(nil) {
		t.Fatal("Equal must ignore order, repeats and zero topics")
	}
	// OverlapsAny reads the list as it is: a zero topic relates to
	// nothing, a related topic anywhere in it counts.
	for _, tc := range []struct {
		ts   []Topic
		want bool
	}{{[]Topic{x}, false}, {[]Topic{x, b}, true}, {[]Topic{{}}, false}, {[]Topic{MustParse(".a.b.c")}, true}, {[]Topic{Root()}, true}, {nil, false}} {
		if got := s.OverlapsAny(tc.ts); got != tc.want {
			t.Fatalf("OverlapsAny(%v) = %v, want %v", tc.ts, got, tc.want)
		}
	}
}

func TestSetTopicsSorted(t *testing.T) {
	s := NewSet(MustParse(".c"), MustParse(".a"), MustParse(".b"))
	ts := s.Topics()
	if len(ts) != 3 || ts[0].String() != ".a" || ts[2].String() != ".c" {
		t.Fatalf("Topics = %v", ts)
	}
}

func TestSetCloneIndependent(t *testing.T) {
	s := NewSet(MustParse(".a"))
	c := NewSet(s.Topics()...)
	c.Add(MustParse(".b"))
	if _, ok := s.search(MustParse(".b")); ok {
		t.Fatal("a set built from Topics must be independent")
	}
	if !s.Equal(NewSet(MustParse(".a"))) {
		t.Fatal("Equal on same content")
	}
	if s.Equal(c) {
		t.Fatal("Equal on different content")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(MustParse(".b"), MustParse(".a"))
	if got := s.String(); got != "{.a,.b}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: OverlapsAny is symmetric, and Covers(t) implies it for any
// list containing t.
func TestOverlapsSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		a, b := NewSet(), NewSet()
		for j := 0; j < 1+r.Intn(3); j++ {
			a.Add(randomTopic(r))
			b.Add(randomTopic(r))
		}
		if a.OverlapsAny(b.ts) != b.OverlapsAny(a.ts) {
			t.Fatalf("OverlapsAny not symmetric: %v vs %v", a, b)
		}
		tp := randomTopic(r)
		if a.Covers(tp) && !a.OverlapsAny([]Topic{tp}) {
			t.Fatalf("Covers without Overlaps: %v, %v", a, tp)
		}
	}
}

func TestMinimal(t *testing.T) {
	tests := []struct {
		name string
		in   []string
		want []string
	}{
		{"empty", nil, nil},
		{"disjoint", []string{".a", ".b"}, []string{".a", ".b"}},
		{"child subsumed", []string{".a", ".a.b"}, []string{".a"}},
		{"deep chain", []string{".a", ".a.b", ".a.b.c"}, []string{".a"}},
		{"root wins", []string{".", ".x", ".y.z"}, []string{"."}},
		{"mixed", []string{".a.b", ".a.b.c", ".d"}, []string{".a.b", ".d"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSet()
			for _, n := range tt.in {
				s.Add(MustParse(n))
			}
			got := s.Minimal()
			if len(got) != len(tt.want) {
				t.Fatalf("Minimal = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i].String() != tt.want[i] {
					t.Fatalf("Minimal = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// Property: the minimal set covers exactly the same topics as the full
// set.
func TestMinimalCoverageEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		s := NewSet()
		for j := 0; j < 1+r.Intn(5); j++ {
			s.Add(randomTopic(r))
		}
		min := NewSet(s.Minimal()...)
		for j := 0; j < 20; j++ {
			probe := randomTopic(r)
			if s.Covers(probe) != min.Covers(probe) {
				t.Fatalf("coverage differs for %v: full %v minimal %v",
					probe, s, min)
			}
		}
		if min.Len() > s.Len() {
			t.Fatal("minimal set larger than original")
		}
	}
}
