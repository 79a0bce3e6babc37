package workload

import (
	"fmt"
	"sort"
)

// SortOps stable-sorts ops by At in place: same-instant ops keep their
// relative order, which is how callers encode tie-breaking.
func SortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}

type explicitGen struct {
	ops []Op
	i   int
}

func (g *explicitGen) Next() (Op, bool) {
	if g.i >= len(g.ops) {
		return Op{}, false
	}
	op := g.ops[g.i]
	g.i++
	return op, true
}

// NewExplicit returns a generator replaying a fixed, pre-enumerated op
// schedule (which must already be sorted by At; see SortOps) without
// modifying it. netsim replays a scenario's hand-placed Schedule
// through it on every run, so the hand-placed path and the generated
// path share one scheduling mechanism.
func NewExplicit(ops []Op) Generator { return &explicitGen{ops: ops} }

// head is one merged stream's buffered next op.
type head struct {
	op  Op
	gen Generator
}

type merged struct{ heads []head }

// Merge interleaves generators into one time-ordered stream. Ties go to
// the earliest-listed generator, so merging is deterministic and the
// explicit schedule (always listed first by netsim) keeps its
// tie-breaking authority over generated traffic.
func Merge(gens ...Generator) Generator {
	m := &merged{}
	for _, g := range gens {
		if g == nil {
			continue
		}
		if op, ok := g.Next(); ok {
			m.heads = append(m.heads, head{op, g})
		}
	}
	return m
}

func (m *merged) Next() (Op, bool) {
	if len(m.heads) == 0 {
		return Op{}, false
	}
	best := 0
	for i := 1; i < len(m.heads); i++ {
		if m.heads[i].op.At < m.heads[best].op.At {
			best = i
		}
	}
	op := m.heads[best].op
	if next, ok := m.heads[best].gen.Next(); ok {
		m.heads[best].op = next
	} else {
		m.heads = append(m.heads[:best], m.heads[best+1:]...)
	}
	return op, true
}

// MixParams composes several registered generators into one stream —
// e.g. diurnal traffic plus node churn plus subscription churn. Parts
// are merged in time order (ties to the earlier part).
type MixParams struct {
	Parts []Spec
}

// Validate implements Params; each part must name a registered
// generator and carry schema-typed params.
func (p MixParams) Validate() error {
	for i, part := range p.Parts {
		if part.IsZero() {
			return fmt.Errorf("workload: mix part %d has no generator name", i)
		}
		if part.Name == "mix" {
			return fmt.Errorf("workload: mix part %d nests mix", i)
		}
		if err := part.Validate(); err != nil {
			return fmt.Errorf("workload: mix part %d: %w", i, err)
		}
	}
	return nil
}

func init() {
	RegisterWorkload(Definition{
		Name:        "mix",
		Description: "merges several registered generators into one time-ordered stream (traffic + churn compositions)",
		Class:       ClassUtil,
		Params:      MixParams{},
		New: func(p Params, env Env) (Generator, error) {
			parts := p.(MixParams).Parts
			gens := make([]Generator, 0, len(parts))
			for _, part := range parts {
				g, err := Build(part.Name, part.Params, env)
				if err != nil {
					return nil, err
				}
				gens = append(gens, g)
			}
			return Merge(gens...), nil
		},
	})
}
