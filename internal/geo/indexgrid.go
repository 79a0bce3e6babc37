package geo

// IndexGrid is a Grid[int32] over a dense key space [0, n) — the MAC
// medium's node roster — that remembers where each key is filed.
// Relocate re-buckets a key only when its position crossed a cell
// boundary, so the periodic index refresh of N moving nodes costs N
// cell computations but only touches buckets for the nodes that
// actually moved cells — the "incremental re-bucketing" half of the
// medium's allocation-flat contract. The receiver-candidate query of
// the MAC hot path is the promoted, occupancy-aware Grid.AppendDisc:
// zero hash lookups. File keys only through Relocate: the promoted Put
// and Remove do not update the key's recorded cell.
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
	Grid[int32]
	cells []int32 // key -> containing cell index, -1 = absent
	pos   []Point // key -> position of its last Relocate
}

// NewIndexGrid returns an empty grid over the given bounds with the
// given cell edge length, for keys [0, n). It panics on a non-positive
// size or inverted bounds.
func NewIndexGrid(cellSize float64, bounds Rect, n int) *IndexGrid {
	g := &IndexGrid{
		Grid:  *NewGrid[int32](cellSize, bounds),
		cells: make([]int32, n),
		pos:   make([]Point, n),
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
	idx := g.cellIndex(p)
	old := g.cells[k]
	if old >= 0 {
		if int(old) == idx {
			return
		}
		g.removeAt(k, int(old))
	}
	g.putAt(k, idx)
	g.cells[k] = int32(idx)
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
