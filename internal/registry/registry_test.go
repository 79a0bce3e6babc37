package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

type def struct{ name, desc string }

func TestStoreRoundTrip(t *testing.T) {
	s := New[def]("test: thing")
	s.Register("b", def{"b", "second"})
	s.Register("a", def{"a", "first"})
	s.Register("c", def{"c", "third"})

	if d, ok := s.Lookup("a"); !ok || d.desc != "first" {
		t.Fatalf("Lookup(a) = %+v, %v", d, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
	names := s.Names()
	if !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Fatalf("Names() = %v", names)
	}
	all := s.All()
	if len(all) != 3 {
		t.Fatalf("All() returned %d defs", len(all))
	}
	for i, d := range all {
		if d.name != names[i] {
			t.Fatalf("All()[%d] = %q, want %q (name order)", i, d.name, names[i])
		}
	}
}

func TestStorePanics(t *testing.T) {
	mustPanic := func(label, wantSubstr string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", label)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSubstr) {
				t.Fatalf("%s: panic %v does not mention %q", label, r, wantSubstr)
			}
		}()
		fn()
	}
	s := New[def]("test: thing")
	s.Register("x", def{})
	mustPanic("duplicate", `test: thing "x" registered twice`, func() { s.Register("x", def{}) })
	mustPanic("empty name", "test: thing registered without a name", func() { s.Register("", def{}) })
}

type tuning struct{ n int }

func (p tuning) Validate() error {
	if p.n < 0 {
		return errors.New("negative n")
	}
	return nil
}

type other struct{}

func (other) Validate() error { return nil }

type maker struct {
	name, desc string
	params     Params
	build      func(Params, int) (string, error)
}

func newMakers() *Typed[maker, int, string] {
	return NewTyped("test", "maker", func(m maker) Entry[int, string] {
		return Entry[int, string]{Name: m.name, Description: m.desc, Params: m.params, New: m.build}
	})
}

func TestTypedCheckAndBuild(t *testing.T) {
	ts := newMakers()
	ts.Register(maker{"m", "makes", tuning{}, func(p Params, env int) (string, error) {
		return fmt.Sprintf("%d/%d", p.(tuning).n, env), nil
	}})
	if got, err := ts.Build("m", nil, 7); err != nil || got != "0/7" {
		t.Fatalf("Build(nil params) = %q, %v; want the schema's zero value", got, err)
	}
	if got, err := ts.Build("m", tuning{n: 3}, 7); err != nil || got != "3/7" {
		t.Fatalf("Build = %q, %v", got, err)
	}
	for _, tc := range []struct {
		name   string
		params Params
		want   string // "" means valid
	}{
		{"m", nil, ""},
		{"m", tuning{n: 2}, ""},
		{"m", tuning{n: -1}, "negative n"},
		{"m", other{}, `test: maker "m" params are registry.other, want registry.tuning`},
		{"nope", nil, `test: unknown maker "nope" (registered: m)`},
	} {
		err := ts.CheckParams(tc.name, tc.params)
		if tc.want == "" {
			if err != nil {
				t.Fatalf("CheckParams(%s, %v) = %v", tc.name, tc.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("CheckParams(%s, %v) = %v, want %q", tc.name, tc.params, err, tc.want)
		}
		// Build resolves as CheckParams does but leaves Validate to the
		// caller, so only the lookup and type errors fail it.
		if _, err := ts.Build(tc.name, tc.params, 0); (err == nil) != (tc.want == "negative n") {
			t.Fatalf("Build(%s, %v) = %v", tc.name, tc.params, err)
		}
	}
}

func TestTypedRegisterPanics(t *testing.T) {
	build := func(Params, int) (string, error) { return "", nil }
	for _, tc := range []struct {
		m    maker
		want string
	}{
		{maker{"", "d", tuning{}, build}, `test: maker "" registered without name or description`},
		{maker{"x", "", tuning{}, build}, `test: maker "x" registered without name or description`},
		{maker{"x", "d", tuning{}, nil}, `test: maker "x" registered without factory or params schema`},
		{maker{"x", "d", nil, build}, `test: maker "x" registered without factory or params schema`},
		{maker{"x", "d", tuning{n: -1}, build}, `test: maker "x" schema zero value invalid`},
		{maker{"dup", "d", tuning{}, build}, `test: maker "dup" registered twice`},
	} {
		ts := newMakers()
		ts.Register(maker{"dup", "first", tuning{}, build})
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("Register(%+v) panicked %q, want %q", tc.m, msg, tc.want)
				}
			}()
			ts.Register(tc.m)
		}()
		if len(ts.Names()) != 1 {
			t.Fatalf("Register(%+v) inserted before panicking: %v", tc.m, ts.Names())
		}
	}
}
