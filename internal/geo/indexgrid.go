package geo

// IndexGrid is a uniform spatial index specialized for a dense integer
// key space [0, n) — the MAC medium's node roster. Compared to the
// generic Grid it stores per-key state in a flat slice instead of a
// map, and Relocate re-buckets a key only when its position crossed a
// cell boundary, so the periodic index refresh of N moving nodes costs
// N cell computations but only touches buckets for the nodes that
// actually moved cells — the "incremental re-bucketing" half of the
// medium's allocation-flat contract. Cells live in the same dense
// row-major slab as Grid (see cellCore): the receiver-candidate query
// of the MAC hot path does zero hash lookups.
//
// Besides its containing cell, each key's last Relocate position is
// recorded (16 bytes per key, one write per refresh per node), which
// lets AppendWithin test the recorded position itself instead of handing
// back the whole 3x3-cell square: a caller that knows how far a key can
// have drifted since its Relocate widens r by that drift and gets a
// superset of the true disc that is ~1/3 the size of AppendDisc's, before
// it pays for a single exact position. Positions outside the constructor
// bounds are clamped into border cells (the recorded position is not).
//
// Iteration order of AppendDisc and AppendWithin is deterministic —
// cells in row-major order, keys within a cell in bucket order — but
// bucket order depends on movement history, so callers that need a
// canonical order must impose it (the medium puts its candidates in
// attach-rank order through a bitset over the keys).
type IndexGrid struct {
	cellCore
	buckets [][]int32 // dense row-major cell slab
	cells   []int32   // key -> containing cell index, -1 = absent
	pos     []Point   // key -> position of its last Relocate
}

// NewIndexGrid returns an empty grid over the given bounds with the
// given cell edge length, for keys [0, n). It panics on a non-positive
// size or inverted bounds.
func NewIndexGrid(cellSize float64, bounds Rect, n int) *IndexGrid {
	core := newCellCore(cellSize, bounds)
	g := &IndexGrid{
		cellCore: core,
		buckets:  make([][]int32, core.numCells()),
		cells:    make([]int32, n),
		pos:      make([]Point, n),
	}
	for i := range g.cells {
		g.cells[i] = -1
	}
	return g
}

// Relocate records key k at position p, moving it between buckets only
// if its containing cell changed. Keys outside [0, n) panic.
func (g *IndexGrid) Relocate(k int32, p Point) {
	g.pos[k] = p // before the same-cell return: AppendWithin reads it
	idx := int32(g.cellIndex(p))
	old := g.cells[k]
	if old >= 0 {
		if old == idx {
			return
		}
		g.drop(k, old)
	}
	g.buckets[idx] = append(g.buckets[idx], k)
	g.cells[k] = idx
}

// drop removes k from bucket idx, preserving the order of the remaining
// keys (so AppendDisc stays deterministic under churn). Like Grid.drop,
// an emptied bucket keeps its capacity: nodes cycle through the same
// cells as they move, and re-allocating the bucket on every revisit
// would put an allocation back on the refresh path.
func (g *IndexGrid) drop(k int32, idx int32) {
	b := g.buckets[idx]
	for i, x := range b {
		if x == k {
			copy(b[i:], b[i+1:])
			b = b[:len(b)-1]
			break
		}
	}
	g.buckets[idx] = b
}

// Keys returns the size n of the key space the grid was created for.
func (g *IndexGrid) Keys() int { return len(g.cells) }

// Len returns the number of keys recorded so far.
func (g *IndexGrid) Len() int {
	n := 0
	for _, b := range g.buckets {
		n += len(b)
	}
	return n
}

// AppendDisc appends to buf every key whose containing cell intersects
// the axis-aligned bounding square of the disc (p, r) and returns the
// extended buffer. Like Grid.AppendDisc it is a superset of the disc —
// callers must re-check exact distances — and a query with a reused
// buffer allocates nothing. A negative radius appends nothing.
func (g *IndexGrid) AppendDisc(p Point, r float64, buf []int32) []int32 {
	if r < 0 {
		return buf
	}
	lox, loy, hix, hiy := g.discRange(p, r)
	for cy := loy; cy <= hiy; cy++ {
		base := cy * g.cols
		for _, b := range g.buckets[base+lox : base+hix+1] {
			buf = append(buf, b...)
		}
	}
	return buf
}

// withinSlack is the relative slack AppendWithin grants r*r, so that
// rounding in the squared distance can only admit a key on the rim,
// never drop one.
const withinSlack = 1e-9

// AppendWithin appends to buf every key whose recorded position (its
// last Relocate) lies within r of p and returns the extended buffer: a
// subset of AppendDisc(p, r), in the same order, and a superset of the
// keys truly within r-d of p whenever no key has moved more than d
// since its Relocate (triangle inequality). Like AppendDisc it
// allocates nothing with a reused buffer, and a negative radius appends
// nothing.
func (g *IndexGrid) AppendWithin(p Point, r float64, buf []int32) []int32 {
	if r < 0 {
		return buf
	}
	r2 := r * r * (1 + withinSlack)
	lox, loy, hix, hiy := g.discRange(p, r)
	for cy := loy; cy <= hiy; cy++ {
		base := cy * g.cols
		for _, b := range g.buckets[base+lox : base+hix+1] {
			for _, k := range b {
				if g.pos[k].Dist2(p) <= r2 {
					buf = append(buf, k)
				}
			}
		}
	}
	return buf
}
