package geo

import "math/bits"

// Grid is a uniform spatial index: values of type T filed under the
// cell containing the position they were put at, cells stored as a
// dense row-major slab over a bounding rectangle (see cellCore). It
// answers "which values were put near p?" in time proportional to the
// number of nearby values instead of the total population, with no
// hash lookup on any path, which is what lets the MAC medium scale past
// a few hundred nodes.
//
// The grid keeps no record of where a value lives: the caller owns the
// position and hands the same one to Remove that it gave to Put (the
// MAC's transmissions have a fixed origin). Positions outside the
// constructor bounds are clamped into border cells — still correct,
// just slower if pervasive.
//
// AppendDisc order is deterministic — cells in row-major order, values
// within a cell in insertion order — so simulations built on it stay
// reproducible. An occupancy bitset lets AppendDisc skip empty cells,
// most of the MAC's. The zero Grid is not usable; call NewGrid.
type Grid[T comparable] struct {
	cellCore
	buckets [][]T    // dense row-major cell slab
	occ     []uint64 // bit i set iff bucket i is non-empty
}

// NewGrid returns an empty grid over the given bounds with the given
// cell edge length. The best cell size is close to the dominant query
// radius: much smaller wastes time on bucket overhead, much larger
// degenerates toward a full scan (the size is coarsened automatically
// if bounds/cellSize would exceed the dense-slab cap, see
// maxDenseCells). It panics on a non-positive size or inverted bounds.
func NewGrid[T comparable](cellSize float64, bounds Rect) *Grid[T] {
	core := newCellCore(cellSize, bounds)
	return &Grid[T]{
		cellCore: core,
		buckets:  make([][]T, core.numCells()),
		occ:      make([]uint64, (core.numCells()+63)/64),
	}
}

// Put files v under the cell containing p.
func (g *Grid[T]) Put(v T, p Point) { g.putAt(v, g.cellIndex(p)) }

// putAt files v under bucket idx.
func (g *Grid[T]) putAt(v T, idx int) {
	g.buckets[idx] = append(g.buckets[idx], v)
	g.occ[idx>>6] |= 1 << (idx & 63)
}

// Remove deletes v from the cell containing p, the position it was put
// at; a value not filed there is a no-op.
func (g *Grid[T]) Remove(v T, p Point) { g.removeAt(v, g.cellIndex(p)) }

// removeAt deletes v from bucket idx, preserving the order of the
// bucket's remaining values (so AppendDisc stays deterministic under
// churn). An emptied bucket keeps its capacity: the MAC's transmissions
// and moving nodes constantly cycle values through the same cells, and
// re-allocating the bucket on every revisit was a per-frame allocation.
func (g *Grid[T]) removeAt(v T, idx int) {
	b := g.buckets[idx]
	for i, x := range b {
		if x == v {
			copy(b[i:], b[i+1:])
			var zero T
			b[len(b)-1] = zero
			g.buckets[idx] = b[:len(b)-1]
			if len(b) == 1 {
				g.occ[idx>>6] &^= 1 << (idx & 63)
			}
			return
		}
	}
}

// AppendDisc appends to buf every value filed in a cell intersecting
// the axis-aligned bounding square of the disc (p, r) and returns the
// extended buffer. The result is a superset of the disc: it may hold
// values up to r + size*sqrt(2) away (more for clamped out-of-bounds
// positions), and callers must re-check exact distances. A query with
// a reused buffer allocates nothing, which is what the MAC hot path
// needs. A negative radius appends nothing.
func (g *Grid[T]) AppendDisc(p Point, r float64, buf []T) []T {
	if r < 0 {
		return buf
	}
	lox, loy, hix, hiy := g.discRange(p, r)
	for cy := loy; cy <= hiy; cy++ {
		// The set bits of the row's cells [lo, hi], in index order.
		lo, hi := cy*g.cols+lox, cy*g.cols+hix
		for w := lo >> 6; w <= hi>>6; w++ {
			m := g.occ[w] & (^uint64(0) << max(lo-w<<6, 0)) & (^uint64(0) >> max(w<<6+63-hi, 0))
			for ; m != 0; m &= m - 1 {
				buf = append(buf, g.buckets[w<<6+bits.TrailingZeros64(m)]...)
			}
		}
	}
	return buf
}
