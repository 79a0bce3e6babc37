package netsim

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
)

// isometries are the maps under which a street-graph run must be
// unchanged: a mirror and a quarter turn. IEEE negation is exact and
// math.Hypot ignores sign and argument order, so every road length is
// bit-identical; the MAC visits receivers in attach-rank order and
// route choice reads only lengths and weights. So nothing a run
// decides may depend on where the city sits or which way it faces.
var isometries = []struct {
	name string
	f    func(geo.Point) geo.Point
}{
	{"mirror (x,y)→(−x,y)", func(p geo.Point) geo.Point { return geo.Point{X: -p.X, Y: p.Y} }},
	{"rotate (x,y)→(−y,x)", func(p geo.Point) geo.Point { return geo.Point{X: -p.Y, Y: p.X} }},
}

// roads returns the roads leaving intersection i. The graph exports no
// view of its adjacency lists, since no program needs one, so the test
// reads them by reflection.
func roads(g *mobility.Graph, i int) []mobility.Road {
	adj := reflect.ValueOf(g).Elem().FieldByName("adj").Index(i)
	out := make([]mobility.Road, adj.Len())
	for j := range out {
		r := adj.Index(j)
		out[j] = mobility.Road{
			To:         int(r.FieldByName("To").Int()),
			SpeedLimit: r.FieldByName("SpeedLimit").Float(),
			Weight:     r.FieldByName("Weight").Float(),
		}
	}
	return out
}

// mapGraph rebuilds g with every intersection moved by f, in the same
// index order, and every road re-added in the same order.
func mapGraph(t *testing.T, g *mobility.Graph, f func(geo.Point) geo.Point) *mobility.Graph {
	t.Helper()
	m := &mobility.Graph{}
	for i := range g.Intersections() {
		m.AddIntersection(f(g.Point(i)))
	}
	for i := range g.Intersections() {
		for _, r := range roads(g, i) {
			if err := m.AddRoad(i, r.To, r.SpeedLimit, r.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestIsometryKeepsFingerprint runs every street-graph scenario, the
// Heavy metro-slice included, on its graph mirrored and rotated, and
// requires each run's Fingerprint to equal the unmapped run's. Every
// node then sits in different grid cells, often past a border the
// unmapped run never touches, so this checks geo's cell arithmetic and
// clamping and the MAC's speed-bound margins at city scale, where the
// roster-walk reference medium cannot run. The small scenarios run
// under every registered protocol; metro-slice, the costliest, under
// frugal, gossip-pushpull and simple-flooding.
func TestIsometryKeepsFingerprint(t *testing.T) {
	all := ProtocolNames()
	for _, c := range []struct {
		scenario  string
		protocols []string
	}{
		{"campus", all},
		{"manhattan", all},
		{"manhattan-churn", all},
		{"highway", all},
		{"rush-hour", all},
		{"metro-slice", []string{"frugal", "gossip-pushpull", "simple-flooding"}},
	} {
		def, ok := LookupScenario(c.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", c.scenario)
		}
		for _, p := range c.protocols {
			t.Run(c.scenario+"/"+p, func(t *testing.T) {
				t.Parallel()
				sc := def.Instantiate(1)
				if sc.Protocol.String() != p {
					spec, ok := ParseProtocol(p)
					if !ok {
						t.Fatalf("protocol %q not registered", p)
					}
					sc.Protocol = spec
				}
				g := sc.Mobility.Graph
				if g == nil {
					build := defaultGraph[sc.Mobility.Kind]
					if build == nil {
						t.Fatalf("%s: mobility kind %v has no street graph", c.scenario, sc.Mobility.Kind)
					}
					g = build()
				}
				want := fingerprint(t, sc)
				for _, iso := range isometries {
					mapped := sc
					mapped.Mobility.Graph = mapGraph(t, g, iso.f)
					if got := fingerprint(t, mapped); got != want {
						t.Errorf("%s: fingerprint %s, unmapped %s", iso.name, got, want)
					}
				}
			})
		}
	}
}

func fingerprint(t *testing.T, sc Scenario) string {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}
