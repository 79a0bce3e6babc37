// Package geo provides the small amount of 2-D geometry the simulator
// needs: points, distances, rectangles and linear interpolation. Units are
// meters throughout.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance; cheaper for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; f=0 yields p, f=1 yields q.
func (p Point) Lerp(q Point, f float64) Point {
	return Point{p.X + (q.X-p.X)*f, p.Y + (q.Y-p.Y)*f}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, Min inclusive, Max inclusive.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning (0,0)-(w,h).
func NewRect(w, h float64) Rect { return Rect{Max: Point{w, h}} }

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }
