package topic

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr error
	}{
		{".", ".", nil},
		{"a", ".a", nil},
		{".a", ".a", nil},
		{"a.b.c", ".a.b.c", nil},
		{".grenoble.conferences.middleware", ".grenoble.conferences.middleware", nil},
		{"", "", ErrEmpty},
		{"a..b", "", ErrBadSegment},
		{"a.b.", "", ErrBadSegment},
		{"..", "", ErrBadSegment},
		{"a b", "", ErrBadSegment},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("Parse(%q) err = %v, want %v", tt.in, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q) unexpected err: %v", tt.in, err)
			}
			if got.String() != tt.want {
				t.Fatalf("Parse(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseCanonicalZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(".a.b") }); n != 0 {
		t.Fatalf("Parse of a canonical name allocates %v times, want 0", n)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("a..b")
}

func TestContains(t *testing.T) {
	tests := []struct {
		anc, desc string
		want      bool
	}{
		{".", ".a.b", true},
		{".", ".", true},
		{".a", ".a", true},
		{".a", ".a.b", true},
		{".a", ".a.b.c", true},
		{".a.b", ".a", false},
		{".a", ".ab", false}, // prefix but not a segment boundary
		{".a.b", ".a.c", false},
		{".T0", ".T0.T1.T2", true},
	}
	for _, tt := range tests {
		anc, desc := MustParse(tt.anc), MustParse(tt.desc)
		if got := anc.Contains(desc); got != tt.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", anc, desc, got, tt.want)
		}
	}
}

func TestZeroTopic(t *testing.T) {
	var z Topic
	if !z.IsZero() {
		t.Fatal("zero value should be IsZero")
	}
	if z.Contains(Root()) || Root().Contains(z) {
		t.Fatal("zero topic should not participate in Contains")
	}
	if z.String() != "<invalid>" {
		t.Fatalf("String = %q", z.String())
	}
	if _, ok := z.Parent(); ok {
		t.Fatal("zero topic has no parent")
	}
}

func TestParentChain(t *testing.T) {
	tp := MustParse(".a.b.c")
	var chain []string
	for {
		chain = append(chain, tp.String())
		p, ok := tp.Parent()
		if !ok {
			break
		}
		tp = p
	}
	want := []string{".a.b.c", ".a.b", ".a", "."}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %q, want %q", i, chain[i], want[i])
		}
	}
}

func TestChild(t *testing.T) {
	c, err := Root().Child("a")
	if err != nil || c.String() != ".a" {
		t.Fatalf("root child = %v, %v", c, err)
	}
	c2, err := c.Child("b")
	if err != nil || c2.String() != ".a.b" {
		t.Fatalf("child = %v, %v", c2, err)
	}
	if _, err := c.Child("x.y"); err == nil {
		t.Fatal("Child with dot should fail")
	}
	if _, err := c.Child(""); err == nil {
		t.Fatal("Child with empty segment should fail")
	}
}

func TestDepthSegments(t *testing.T) {
	if Root().Depth() != 0 {
		t.Fatal("root depth should be 0")
	}
	tp := MustParse(".x.y.z")
	if tp.Depth() != 3 {
		t.Fatalf("depth = %d", tp.Depth())
	}
	segs := tp.Segments()
	if len(segs) != 3 || segs[0] != "x" || segs[2] != "z" {
		t.Fatalf("segments = %v", segs)
	}
}

func TestRelated(t *testing.T) {
	a, ab, c := MustParse(".a"), MustParse(".a.b"), MustParse(".c")
	if !a.Related(ab) || !ab.Related(a) {
		t.Fatal("ancestor/descendant should be related both ways")
	}
	if a.Related(c) {
		t.Fatal("siblings are not related")
	}
}

// randomTopic builds a topic of depth 1..4 from a tiny alphabet so that
// ancestor relationships are common.
func randomTopic(r *rand.Rand) Topic {
	depth := 1 + r.Intn(4)
	tp := Root()
	for i := 0; i < depth; i++ {
		seg := string(rune('a' + r.Intn(3)))
		tp, _ = tp.Child(seg)
	}
	return tp
}

// Property: Contains is reflexive and transitive; Related is symmetric.
func TestContainsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b, c := randomTopic(r), randomTopic(r), randomTopic(r)
		if !a.Contains(a) {
			return false
		}
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return a.Related(b) == b.Related(a)
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatal("Contains/Related property violated")
		}
	}
}

// Property: parse/format round-trips.
func TestParseRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		r := rand.New(rand.NewSource(int64(n)))
		tp := randomTopic(r)
		back, err := Parse(tp.String())
		return err == nil && back == tp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsIsSegmentAware(t *testing.T) {
	// Regression: ".conf" must not contain ".conference".
	a, b := MustParse(".conf"), MustParse(".conference")
	if a.Contains(b) || b.Contains(a) {
		t.Fatal("prefix without segment boundary must not match")
	}
	if !strings.HasPrefix(b.String(), a.String()) {
		t.Fatal("test precondition: string prefix must hold")
	}
}
