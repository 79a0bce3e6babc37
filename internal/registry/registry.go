// Package registry is the shared name→definition plumbing behind the
// repo's three registries: protocols (internal/proto), scenarios
// (internal/netsim) and workload generators (internal/workload). Each
// of those packages keeps its own public API — typed Register/Lookup
// functions with domain-specific validation — and delegates the storage,
// duplicate detection and sorted enumeration to a Store. Protocols and
// generators are both built from a params schema and a factory, so they
// share a Typed store, which also owns the schema checks and the build.
//
// Registration happens at init time, so misuse (empty or duplicate
// names, missing metadata) panics loudly instead of surfacing at first
// use.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Store holds named definitions of one kind. The zero value is not
// usable; construct with New.
type Store[D any] struct {
	// what prefixes panic messages, e.g. "proto: protocol".
	what string

	mu   sync.RWMutex
	defs map[string]D
}

// New returns an empty store. what names the definition kind in panic
// messages (e.g. "netsim: scenario").
func New[D any](what string) *Store[D] {
	return &Store[D]{what: what, defs: make(map[string]D)}
}

// Register adds def under name. It panics on an empty or duplicate
// name; domain-specific validation belongs in the caller, before
// Register.
func (s *Store[D]) Register(name string, def D) {
	if name == "" {
		panic(fmt.Sprintf("%s registered without a name", s.what))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.defs[name]; dup {
		panic(fmt.Sprintf("%s %q registered twice", s.what, name))
	}
	s.defs[name] = def
}

// Lookup finds a definition by name.
func (s *Store[D]) Lookup(name string) (D, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.defs[name]
	return d, ok
}

// Names returns the sorted registered names.
func (s *Store[D]) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.defs))
	for name := range s.defs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every registered definition, sorted by name.
func (s *Store[D]) All() []D {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.defs))
	for name := range s.defs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]D, len(names))
	for i, name := range names {
		out[i] = s.defs[name]
	}
	return out
}

// Params carries a definition's scenario-level tuning. Each definition
// registers one concrete params type, its schema; a nil Params selects
// the schema's zero value, the definition's defaults. Params values
// must be plain data — copy-safe — because scenarios embedding them are
// copied freely by the experiment harness.
type Params interface {
	// Validate reports configuration errors. The zero value of a params
	// type must validate (it selects the defaults).
	Validate() error
}

// Entry is what a Typed store reads from one definition: the registry
// key, a one-line catalog description, the params schema (the zero
// value of the params type) and the factory building a V from params
// and a caller-supplied environment E.
type Entry[E, V any] struct {
	Name, Description string
	Params            Params
	New               func(Params, E) (V, error)
}

// Typed is a Store of definitions that each carry a params schema and a
// factory. Its Register shadows Store.Register with the metadata and
// schema checks.
type Typed[D, E, V any] struct {
	*Store[D]
	pkg, noun string
	entry     func(D) Entry[E, V]
}

// NewTyped returns an empty typed store. pkg and noun name the kind in
// messages (e.g. "proto", "protocol"); entry reads a definition's parts.
func NewTyped[D, E, V any](pkg, noun string, entry func(D) Entry[E, V]) *Typed[D, E, V] {
	return &Typed[D, E, V]{Store: New[D](pkg + ": " + noun), pkg: pkg, noun: noun, entry: entry}
}

// Register adds d. It panics on a missing name, description, factory
// or schema, on a schema whose zero value does not validate, and on a
// duplicate name.
func (t *Typed[D, E, V]) Register(d D) {
	e := t.entry(d)
	if e.Name == "" || e.Description == "" {
		panic(fmt.Sprintf("%s %q registered without name or description", t.what, e.Name))
	}
	if e.New == nil || e.Params == nil {
		panic(fmt.Sprintf("%s %q registered without factory or params schema", t.what, e.Name))
	}
	if err := e.Params.Validate(); err != nil {
		panic(fmt.Sprintf("%s %q schema zero value invalid: %v", t.what, e.Name, err))
	}
	t.Store.Register(e.Name, d)
}

// resolve is the single code path behind CheckParams and Build: it
// looks the name up and type-checks params against the registered
// schema, substituting the schema's zero value when params is nil.
func (t *Typed[D, E, V]) resolve(name string, p Params) (Entry[E, V], Params, error) {
	d, ok := t.Lookup(name)
	if !ok {
		return Entry[E, V]{}, nil, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			t.pkg, t.noun, name, strings.Join(t.Names(), ", "))
	}
	e := t.entry(d)
	if p == nil {
		return e, e.Params, nil
	}
	if got, want := reflect.TypeOf(p), reflect.TypeOf(e.Params); got != want {
		return Entry[E, V]{}, nil, fmt.Errorf("%s %q params are %v, want %v", t.what, name, got, want)
	}
	return e, p, nil
}

// CheckParams validates a (name, params) spec: the name must be
// registered, and params — when non-nil — must have the registered
// schema type and validate.
func (t *Typed[D, E, V]) CheckParams(name string, p Params) error {
	_, resolved, err := t.resolve(name, p)
	if err != nil {
		return err
	}
	return resolved.Validate()
}

// Build resolves name and runs its factory on p, or on the schema's
// zero value when p is nil.
func (t *Typed[D, E, V]) Build(name string, p Params, env E) (V, error) {
	e, resolved, err := t.resolve(name, p)
	if err != nil {
		var zero V
		return zero, err
	}
	return e.New(resolved, env)
}
