package geo

// cellCore is Grid's dense cell addressing (and so IndexGrid's, which
// is a Grid[int32]): a uniform partition of a bounding rectangle into
// cols x rows square cells, addressed as one flat row-major slab.
// Replacing the old map[Cell] spatial hash, it resolves a position to
// a bucket with two multiplies and two clamps — no hashing — which is
// what takes the per-frame receiver lookup of the MAC medium off the
// map hot path at city scale.
//
// Positions outside the bounds are clamped into the border cells.
// Clamping is monotone in each coordinate, so the load-bearing
// superset invariant survives arbitrary out-of-bounds traffic: a disc
// query's clamped cell range still covers the clamped cell of every
// in-disc position, queries just degrade toward scanning the border
// cells when the declared bounds are badly wrong. Callers therefore
// size bounds from scenario geometry (mobility area or street-graph
// bounding box) without needing them to be exact.
type cellCore struct {
	inv    float64 // 1 / cell edge length in meters
	origin Point   // bounds.Min
	cols   int
	rows   int
}

// maxDenseCells caps the dense slab at 2^20 buckets (~8 MB of empty
// slice headers for Grid). newCellCore doubles the cell size until the
// bounds fit — the dense-grid sizing rule: cells = (floor(w/size)+1) x
// (floor(h/size)+1), coarsened by powers of two under the cap. With
// radio-range-sized cells even a metro-100k city (~25 x 19 km at 440
// vehicles/km^2) needs only ~5e4 buckets, so coarsening triggers only
// on degenerate bounds/cell-size ratios.
const maxDenseCells = 1 << 20

func newCellCore(cellSize float64, bounds Rect) cellCore {
	if cellSize <= 0 {
		panic("geo: non-positive grid cell size")
	}
	if bounds.Width() < 0 || bounds.Height() < 0 {
		panic("geo: inverted grid bounds")
	}
	cols := int(bounds.Width()/cellSize) + 1
	rows := int(bounds.Height()/cellSize) + 1
	for cols*rows > maxDenseCells {
		cellSize *= 2
		cols = int(bounds.Width()/cellSize) + 1
		rows = int(bounds.Height()/cellSize) + 1
	}
	return cellCore{
		inv:    1 / cellSize,
		origin: bounds.Min,
		cols:   cols,
		rows:   rows,
	}
}

// numCells returns the dense slab length.
func (c *cellCore) numCells() int { return c.cols * c.rows }

// col returns the clamped cell column of x. int() truncates toward
// zero, but every x left of the origin lands in column 0 via the clamp
// anyway, so trunc-vs-floor never differs on a kept index.
func (c *cellCore) col(x float64) int {
	cx := int((x - c.origin.X) * c.inv)
	if cx < 0 {
		return 0
	}
	if cx >= c.cols {
		return c.cols - 1
	}
	return cx
}

// row returns the clamped cell row of y.
func (c *cellCore) row(y float64) int {
	cy := int((y - c.origin.Y) * c.inv)
	if cy < 0 {
		return 0
	}
	if cy >= c.rows {
		return c.rows - 1
	}
	return cy
}

// cellIndex returns the dense bucket index of the cell containing p
// (clamped into the bounds).
func (c *cellCore) cellIndex(p Point) int {
	return c.row(p.Y)*c.cols + c.col(p.X)
}

// discRange returns the clamped inclusive cell-range covering the
// axis-aligned bounding square of the disc (p, r).
func (c *cellCore) discRange(p Point, r float64) (lox, loy, hix, hiy int) {
	return c.col(p.X - r), c.row(p.Y - r), c.col(p.X + r), c.row(p.Y + r)
}
