package mobility

import "repro/internal/geo"

// NewManhattanStyleGraph lays out cols x rows intersections on 110 m
// blocks with the downtown grid's speed tiers (NewManhattanGraph fixes
// 10x8). It panics below the 2x2 minimum.
func NewManhattanStyleGraph(cols, rows int) *Graph {
	if cols < 2 || rows < 2 {
		panic("mobility: Manhattan-style grid needs at least 2x2 intersections")
	}
	const (
		spacing = 110.0

		avenueLimit    = 14.0
		avenueWeight   = 5.0
		arterialLimit  = 11.0
		arterialWeight = 3.0
	)
	g := &Graph{}
	idx := func(c, r int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddIntersection(geo.Pt(float64(c)*spacing, float64(r)*spacing))
		}
	}
	sideLimit := func(c, r int) float64 { return 8 + float64((c+r)%3) } // 8..10 m/s
	// Horizontal streets: arterials every third row.
	for r := 0; r < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			limit, weight := sideLimit(c, r), 1.0
			if r%3 == 1 {
				limit, weight = arterialLimit, arterialWeight
			}
			mustStreet(g, idx(c, r), idx(c+1, r), limit, weight)
		}
	}
	// Vertical streets: avenues every third column.
	for c := 0; c < cols; c++ {
		for r := 0; r+1 < rows; r++ {
			limit, weight := sideLimit(c, r), 1.0
			if c%3 == 0 {
				limit, weight = avenueLimit, avenueWeight
			}
			mustStreet(g, idx(c, r), idx(c, r+1), limit, weight)
		}
	}
	return g
}
