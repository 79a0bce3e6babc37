package mobility

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
)

// lineGraph builds 0 -- 1 -- 2 -- 3 spaced 100 m apart, two-way, 10 m/s.
func lineGraph(t *testing.T) *Graph {
	t.Helper()
	g := &Graph{}
	for i := 0; i < 4; i++ {
		g.AddIntersection(geo.Pt(float64(i)*100, 0))
	}
	for i := 0; i+1 < 4; i++ {
		if err := g.AddStreet(i, i+1, 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := lineGraph(t)
	if g.Intersections() != 4 {
		t.Fatalf("Intersections = %d", g.Intersections())
	}
	if len(g.adj[1]) != 2 {
		t.Fatalf("roads at 1 = %d, want 2", len(g.adj[1]))
	}
	r, ok := g.road(0, 1)
	if !ok || math.Abs(r.Length-100) > 1e-9 {
		t.Fatalf("road 0->1 = %+v ok=%v", r, ok)
	}
	if _, ok := g.road(0, 3); ok {
		t.Fatal("no direct road 0->3")
	}
}

func TestAddRoadErrors(t *testing.T) {
	g := lineGraph(t)
	if err := g.AddRoad(0, 0, 10, 1); err == nil {
		t.Fatal("self-loop should fail")
	}
	if err := g.AddRoad(0, 99, 10, 1); err == nil {
		t.Fatal("out-of-range should fail")
	}
	if err := g.AddRoad(0, 1, 0, 1); err == nil {
		t.Fatal("zero speed should fail")
	}
	if err := g.AddRoad(0, 1, 10, 0); err == nil {
		t.Fatal("zero weight should fail")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(t)
	path, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestShortestPathSame(t *testing.T) {
	g := lineGraph(t)
	path, err := g.ShortestPath(2, 2)
	if err != nil || len(path) != 1 || path[0] != 2 {
		t.Fatalf("path = %v, err = %v", path, err)
	}
}

func TestShortestPathPrefersFasterRoad(t *testing.T) {
	// Triangle: 0->1->2 on fast roads vs direct 0->2 slow road. The
	// two-hop route is shorter in time despite more distance.
	g := &Graph{}
	g.AddIntersection(geo.Pt(0, 0))
	g.AddIntersection(geo.Pt(100, 100))
	g.AddIntersection(geo.Pt(200, 0))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddStreet(0, 1, 50, 1)) // ~141m at 50 m/s = 2.8s
	must(g.AddStreet(1, 2, 50, 1))
	must(g.AddStreet(0, 2, 10, 1)) // 200m at 10 m/s = 20s
	path, err := g.ShortestPath(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want detour via 1", path)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := &Graph{}
	g.AddIntersection(geo.Pt(0, 0))
	g.AddIntersection(geo.Pt(100, 0))
	g.AddIntersection(geo.Pt(200, 0))
	if err := g.AddStreet(0, 1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := &Graph{}
	g.AddIntersection(geo.Pt(0, 0))
	g.AddIntersection(geo.Pt(1, 0))
	if err := g.Validate(); err == nil {
		t.Fatal("disconnected graph should fail Validate")
	}
	if err := (&Graph{}).Validate(); err == nil {
		t.Fatal("empty graph should fail Validate")
	}
}

func TestValidateOneWayOnly(t *testing.T) {
	// 0->1 only: reverse direction missing, so not strongly connected.
	g := &Graph{}
	g.AddIntersection(geo.Pt(0, 0))
	g.AddIntersection(geo.Pt(1, 0))
	if err := g.AddRoad(0, 1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("one-way-only graph should fail Validate")
	}
	if err := g.AddRoad(1, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("round trip added, Validate: %v", err)
	}
}

// popularity is intersection i's popularity, read off the prefix sums.
func popularity(g *Graph, i int) float64 {
	cum := g.cumPopularity()
	if i == 0 {
		return cum[0]
	}
	return cum[i] - cum[i-1]
}

func TestPopularity(t *testing.T) {
	g := lineGraph(t)
	// Node 1 touches streets 0-1 and 1-2: 4 directed roads of weight 1.
	if got := popularity(g, 1); math.Abs(got-4) > 1e-9 {
		t.Fatalf("popularity(1) = %v, want 4", got)
	}
	if got := popularity(g, 0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("popularity(0) = %v, want 2", got)
	}
}

func TestCampusGraph(t *testing.T) {
	g := NewCampusGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("campus graph invalid: %v", err)
	}
	if g.Intersections() != 63 {
		t.Fatalf("Intersections = %d, want 63 (9x7)", g.Intersections())
	}
	// Extent matches the paper's 1200x900 m campus.
	minP, maxP := g.Point(0), g.Point(0)
	for i := 0; i < g.Intersections(); i++ {
		p := g.Point(i)
		minP.X, minP.Y = math.Min(minP.X, p.X), math.Min(minP.Y, p.Y)
		maxP.X, maxP.Y = math.Max(maxP.X, p.X), math.Max(maxP.Y, p.Y)
	}
	if maxP.X-minP.X != 1200 || maxP.Y-minP.Y != 900 {
		t.Fatalf("campus extent = %v x %v, want 1200x900", maxP.X-minP.X, maxP.Y-minP.Y)
	}
	// Speed limits stay in the paper's 8-13 m/s band.
	for i := 0; i < g.Intersections(); i++ {
		for _, r := range g.adj[i] {
			if r.SpeedLimit < 8 || r.SpeedLimit > 13 {
				t.Fatalf("road limit %v outside [8,13]", r.SpeedLimit)
			}
		}
	}
	// Arterial roads are strictly more popular than typical side roads.
	arterial := popularity(g, 3*9+4) // row 3, col 4: the crossing
	side := popularity(g, 0)
	if arterial <= side {
		t.Fatalf("arterial popularity %v should exceed corner %v", arterial, side)
	}
}
