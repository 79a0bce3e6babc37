package mobility

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
)

// refShortestPath is the pre-cache reference implementation: a targeted
// Dijkstra with early exit at b. The cached trees must reproduce its
// paths byte-for-byte (see ShortestPath's equivalence argument).
func refShortestPath(g *Graph, a, b int) ([]int, error) {
	if a == b {
		return []int{a}, nil
	}
	const inf = 1e300
	n := g.Intersections()
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[a] = 0
	pq := &pathHeap{{node: a}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pathItem)
		if cur.node == b {
			break
		}
		if cur.cost > dist[cur.node] {
			continue
		}
		for _, r := range g.adj[cur.node] {
			c := cur.cost + r.Length/r.SpeedLimit
			if c < dist[r.To] {
				dist[r.To] = c
				prev[r.To] = cur.node
				heap.Push(pq, pathItem{node: r.To, cost: c})
			}
		}
	}
	if prev[b] == -1 {
		return nil, fmt.Errorf("%w: %d from %d", ErrUnreachable, b, a)
	}
	var path []int
	for at := b; at != -1; at = prev[at] {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

func pathsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// builtinGraphs enumerates every built-in street network, including a
// metro-family grid as used by the scale sweeps.
func builtinGraphs() map[string]*Graph {
	return map[string]*Graph{
		"campus":    NewCampusGraph(),
		"manhattan": NewManhattanGraph(),
		"highway":   NewHighwayGraph(),
		"metro":     NewManhattanStyleGraph(36, 28), // the metro-5k grid
		"metro-2k":  NewManhattanStyleGraph(23, 18), // MetroGraphDims-scale grid
	}
}

// TestShortestPathCachedDifferential compares the cached ShortestPath
// against the reference targeted Dijkstra over every built-in graph:
// all pairs on the small graphs, a seeded sample on the large ones.
func TestShortestPathCachedDifferential(t *testing.T) {
	for name, g := range builtinGraphs() {
		n := g.Intersections()
		pairs := make([][2]int, 0, 4096)
		if n <= 64 {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		} else {
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 2000; i++ {
				pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
			}
		}
		for _, pr := range pairs {
			want, werr := refShortestPath(g, pr[0], pr[1])
			got, gerr := g.ShortestPath(pr[0], pr[1])
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s %d->%d: err %v, want %v", name, pr[0], pr[1], gerr, werr)
			}
			if !pathsEqual(got, want) {
				t.Fatalf("%s %d->%d: path %v, want %v", name, pr[0], pr[1], got, want)
			}
		}
	}
}

// TestShortestPathCacheEviction shrinks the cache budget to a couple of
// trees and checks that paths stay correct under constant eviction and
// that the cache honors its byte bound.
func TestShortestPathCacheEviction(t *testing.T) {
	old := routeCacheBudget
	defer func() { routeCacheBudget = old }()
	g := NewManhattanGraph()
	n := g.Intersections()
	routeCacheBudget = 4 * n * 2 // two trees

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		want, _ := refShortestPath(g, a, b)
		got, err := g.ShortestPath(a, b)
		if err != nil {
			t.Fatalf("%d->%d: %v", a, b, err)
		}
		if !pathsEqual(got, want) {
			t.Fatalf("%d->%d under eviction: path %v, want %v", a, b, got, want)
		}
		g.mu.Lock()
		trees, bytes := len(g.routes), g.routeBytes
		g.mu.Unlock()
		if bytes > routeCacheBudget || trees > 2 {
			t.Fatalf("cache over budget: %d trees, %d bytes (budget %d)", trees, bytes, routeCacheBudget)
		}
	}
}

// TestShortestPathCacheInvalidation checks that graph mutation drops
// cached trees: a new faster road must show up in subsequent paths.
func TestShortestPathCacheInvalidation(t *testing.T) {
	var g Graph
	for i := 0; i < 4; i++ {
		g.AddIntersection(geo.Pt(float64(i)*100, 0))
	}
	for i := 0; i < 3; i++ {
		if err := g.AddStreet(i, i+1, 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := g.ShortestPath(0, 3)
	if err != nil || !pathsEqual(p, []int{0, 1, 2, 3}) {
		t.Fatalf("line path = %v, %v", p, err)
	}
	// A fast direct shortcut 0->3 (same physical length via geometry,
	// but much higher speed limit) must invalidate the cached tree.
	if err := g.AddRoad(0, 3, 1000, 1); err != nil {
		t.Fatal(err)
	}
	p, err = g.ShortestPath(0, 3)
	if err != nil || !pathsEqual(p, []int{0, 3}) {
		t.Fatalf("post-mutation path = %v, %v (stale cache?)", p, err)
	}
}

// TestShortestPathCacheConcurrent mirrors the graph-memoization race
// test: many goroutines routing over one shared template graph must
// neither race (run with -race) nor disagree with the reference.
func TestShortestPathCacheConcurrent(t *testing.T) {
	g := NewManhattanGraph()
	n := g.Intersections()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				got, err := g.ShortestPath(a, b)
				if err != nil {
					errs <- fmt.Errorf("%d->%d: %w", a, b, err)
					return
				}
				want, _ := refShortestPath(g, a, b)
				if !pathsEqual(got, want) {
					errs <- fmt.Errorf("%d->%d: %v != %v", a, b, got, want)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestShortestPathUnreachableCached pins the error contract through the
// cache, including the wrapped ErrUnreachable sentinel.
func TestShortestPathUnreachableCached(t *testing.T) {
	var g Graph
	g.AddIntersection(geo.Pt(0, 0))
	g.AddIntersection(geo.Pt(100, 0))
	g.AddIntersection(geo.Pt(200, 0))
	if err := g.AddRoad(0, 1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	// The a==b fast path must not consult (or populate) the cache.
	if p, err := g.ShortestPath(2, 2); err != nil || !pathsEqual(p, []int{2}) {
		t.Fatalf("self path = %v, %v", p, err)
	}
}
