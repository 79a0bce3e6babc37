package mobility

import (
	"container/heap"
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/geo"
)

// Graph is a street network for the city-section model: intersections
// joined by directed roads with speed limits and popularity weights.
// Two-way streets are represented as a pair of directed roads.
//
// Derived whole-graph state (connectivity, popularity) is memoized on
// first use and invalidated by mutation: one street network is shared
// by every vehicle of a run, and recomputing O(V*E) facts per vehicle
// is what made city-scale rosters quadratic before the metro sweeps.
// The memoization is guarded by a mutex because a registered scenario
// template may share one street network across concurrently executing
// runs (the exp worker pool); a constructed graph is otherwise
// read-only, which is what makes that sharing sound.
type Graph struct {
	points []geo.Point
	adj    [][]Road

	mu        sync.Mutex
	validated bool      // Validate passed and no mutation since
	cumPop    []float64 // prefix sums of popularity, nil until built

	// Route cache: per-source shortest-path trees, LRU-evicted under a
	// byte budget (see routeCacheBudget). Guarded by mu like the other
	// memos; the prev slices themselves are immutable once published.
	routes     map[int]*routeTree
	routeLRU   list.List // front = most recently used, values *routeTree
	routeBytes int       // approximate footprint of cached trees
}

// routeTree is a memoized full-Dijkstra predecessor tree from one
// source intersection: prev[v] is the predecessor of v on the fastest
// src->v path, -1 for the source itself and for unreachable nodes.
type routeTree struct {
	src  int
	prev []int32
	elem *list.Element // position in Graph.routeLRU, guarded by Graph.mu
}

// routeCacheBudget bounds the route cache's memory per graph. A tree
// costs 4 bytes per intersection, so a V-intersection graph needs
// 4*V^2 bytes to cache every source: the metro-10k street grid
// (V=1950) fits whole in ~15 MB, while metro-50k (V~9744) would need
// ~380 MB and instead keeps the ~1700 most recently used sources —
// popularity-biased destination draws make those cover most trips.
// A variable only so eviction tests can shrink it; treat as constant.
var routeCacheBudget = 64 << 20

// mutated invalidates the memoized derived state.
func (g *Graph) mutated() {
	g.mu.Lock()
	g.validated = false
	g.cumPop = nil
	g.routes = nil
	g.routeLRU.Init()
	g.routeBytes = 0
	g.mu.Unlock()
}

// Road is a directed street from an implicit source intersection to
// intersection To.
type Road struct {
	// To is the destination intersection index.
	To int
	// Length is the road length in meters.
	Length float64
	// SpeedLimit is the legal driving speed in m/s (the paper's campus
	// uses 8-13 m/s limits).
	SpeedLimit float64
	// Weight expresses how popular the road is; destination choice is
	// biased toward intersections on heavy roads, modeling the paper's
	// "some roads are more often used than others".
	Weight float64
}

// AddIntersection appends an intersection and returns its index.
func (g *Graph) AddIntersection(p geo.Point) int {
	g.mutated()
	g.points = append(g.points, p)
	g.adj = append(g.adj, nil)
	return len(g.points) - 1
}

// Intersections returns the number of intersections.
func (g *Graph) Intersections() int { return len(g.points) }

// Point returns the location of intersection i.
func (g *Graph) Point(i int) geo.Point { return g.points[i] }

// AddRoad adds a directed road a->b; AddStreet adds both directions.
func (g *Graph) AddRoad(a, b int, speedLimit, weight float64) error {
	if a < 0 || a >= len(g.points) || b < 0 || b >= len(g.points) || a == b {
		return fmt.Errorf("mobility: bad road %d->%d", a, b)
	}
	if speedLimit <= 0 || weight <= 0 {
		return fmt.Errorf("mobility: bad road params limit=%v weight=%v", speedLimit, weight)
	}
	g.mutated()
	g.adj[a] = append(g.adj[a], Road{
		To:         b,
		Length:     g.points[a].Dist(g.points[b]),
		SpeedLimit: speedLimit,
		Weight:     weight,
	})
	return nil
}

// AddStreet adds a two-way street between a and b.
func (g *Graph) AddStreet(a, b int, speedLimit, weight float64) error {
	if err := g.AddRoad(a, b, speedLimit, weight); err != nil {
		return err
	}
	return g.AddRoad(b, a, speedLimit, weight)
}

// MaxSpeedLimit returns the fastest speed limit of any road (0 for a
// graph with no roads). City-section nodes drive at the road's limit,
// so this bounds node speed — the MAC medium uses it to size its
// spatial-index staleness margin.
func (g *Graph) MaxSpeedLimit() float64 {
	var maxLimit float64
	for _, roads := range g.adj {
		for _, r := range roads {
			if r.SpeedLimit > maxLimit {
				maxLimit = r.SpeedLimit
			}
		}
	}
	return maxLimit
}

// Bounds returns the axis-aligned bounding box of all intersections
// (the zero Rect for an empty graph). Vehicles travel along straight
// roads between intersections, so every position a graph traveler can
// report lies inside it — the MAC layer uses it to pre-size its dense
// spatial index over the scenario's geometry.
func (g *Graph) Bounds() geo.Rect {
	if len(g.points) == 0 {
		return geo.Rect{}
	}
	r := geo.Rect{Min: g.points[0], Max: g.points[0]}
	for _, p := range g.points[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// cumPopularity returns the memoized prefix sums of the intersections'
// popularity: the sum of weights of roads incident to each (in either
// direction), which biases destination choice toward busy spots. They
// are built in one O(V+E) edge sweep and shared by every traveler on
// the graph for weighted destination draws. The returned slice is never
// written again; concurrent travelers may read it freely.
func (g *Graph) cumPopularity() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cumPop != nil {
		return g.cumPop
	}
	pop := make([]float64, len(g.points))
	for a := range g.adj {
		for _, r := range g.adj[a] {
			pop[a] += r.Weight
			pop[r.To] += r.Weight
		}
	}
	cum := make([]float64, len(pop))
	sum := 0.0
	for i, w := range pop {
		sum += w
		cum[i] = sum
	}
	g.cumPop = cum
	return cum
}

// ErrUnreachable is returned when no path exists between intersections.
var ErrUnreachable = errors.New("mobility: unreachable intersection")

// ShortestPath returns the minimum-travel-time path from a to b as a
// sequence of intersection indices including both endpoints.
//
// Paths are served from a per-source shortest-path tree memoized in the
// route cache: every vehicle of a run (and every run sharing a template
// graph) asks for trips from the same popularity-biased sources, and
// one full Dijkstra per source replaces one targeted Dijkstra per trip
// — the top hotspot of the 10k-node city sweeps. The cached tree
// returns byte-identical paths to a per-call targeted Dijkstra: with
// strictly-positive road times and strict-< relaxation, every node on
// the a->b path is settled before b pops, settled predecessors never
// change afterwards, and the pop order of the full run is a prefix-
// preserving extension of the early-exit run.
func (g *Graph) ShortestPath(a, b int) ([]int, error) {
	if a == b {
		return []int{a}, nil
	}
	prev := g.routeTreeFrom(a)
	if prev[b] == -1 {
		return nil, fmt.Errorf("%w: %d from %d", ErrUnreachable, b, a)
	}
	var path []int
	for at := b; at != -1; at = int(prev[at]) {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// routeTreeFrom returns the shortest-path tree rooted at src, building
// and caching it on miss. The returned slice is immutable; callers may
// read it after the lock is released (eviction only drops the cache's
// reference). Holding mu across the build serializes concurrent
// misses, matching the Validate/popularity memos: the work is done once
// per source instead of once per trip, so contention is paid only
// while the cache warms.
func (g *Graph) routeTreeFrom(src int) []int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.routes[src]; ok {
		g.routeLRU.MoveToFront(t.elem)
		return t.prev
	}
	prev := g.dijkstraTree(src)
	if g.routes == nil {
		g.routes = make(map[int]*routeTree)
	}
	t := &routeTree{src: src, prev: prev}
	t.elem = g.routeLRU.PushFront(t)
	g.routes[src] = t
	g.routeBytes += 4 * len(prev)
	for g.routeBytes > routeCacheBudget && g.routeLRU.Len() > 1 {
		back := g.routeLRU.Back()
		old := back.Value.(*routeTree)
		g.routeLRU.Remove(back)
		delete(g.routes, old.src)
		g.routeBytes -= 4 * len(old.prev)
	}
	return prev
}

// dijkstraTree runs Dijkstra from src over the whole graph (no early
// exit) and returns the predecessor tree. Must mirror the relaxation
// rule of the pre-cache targeted search exactly (strict <, heap order)
// so reconstructed paths stay byte-identical.
func (g *Graph) dijkstraTree(src int) []int32 {
	const inf = 1e300
	dist := make([]float64, len(g.points))
	prev := make([]int32, len(g.points))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	pq := &pathHeap{{node: src}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pathItem)
		if cur.cost > dist[cur.node] {
			continue
		}
		for _, r := range g.adj[cur.node] {
			c := cur.cost + r.Length/r.SpeedLimit
			if c < dist[r.To] {
				dist[r.To] = c
				prev[r.To] = int32(cur.node)
				heap.Push(pq, pathItem{node: r.To, cost: c})
			}
		}
	}
	return prev
}

// road returns the directed road a->b (the fastest when parallel roads
// exist).
func (g *Graph) road(a, b int) (Road, bool) {
	var best Road
	found := false
	for _, r := range g.adj[a] {
		if r.To == b && (!found || r.Length/r.SpeedLimit < best.Length/best.SpeedLimit) {
			best, found = r, true
		}
	}
	return best, found
}

// Validate checks that every intersection can reach every other
// (required for destination choice to always succeed). The result is
// memoized until the graph mutates: one shared street network is
// validated once per vehicle at model construction, and the reverse
// reachability sweep used to cost O(V*E) every time.
func (g *Graph) Validate() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.validated {
		return nil
	}
	n := len(g.points)
	if n == 0 {
		return errors.New("mobility: empty graph")
	}
	// Strong connectivity via forward and reverse BFS from node 0.
	if !g.bfsAll(0, false) {
		return errors.New("mobility: graph not connected (forward)")
	}
	if !g.bfsAll(0, true) {
		return errors.New("mobility: graph not connected (reverse)")
	}
	g.validated = true
	return nil
}

func (g *Graph) bfsAll(start int, reverse bool) bool {
	adj := g.adj
	if reverse {
		// Materialize the reverse adjacency once: the edge-sweep per
		// dequeued node was the O(V*E) term.
		adj = make([][]Road, len(g.points))
		for a := range g.adj {
			for _, r := range g.adj[a] {
				adj[r.To] = append(adj[r.To], Road{To: a})
			}
		}
	}
	seen := make([]bool, len(g.points))
	queue := []int{start}
	seen[start] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, r := range adj[cur] {
			if !seen[r.To] {
				seen[r.To] = true
				count++
				queue = append(queue, r.To)
			}
		}
	}
	return count == len(g.points)
}

type pathItem struct {
	node int
	cost float64
}

type pathHeap []pathItem

func (h pathHeap) Len() int           { return len(h) }
func (h pathHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h pathHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x any)        { *h = append(*h, x.(pathItem)) }
func (h *pathHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
