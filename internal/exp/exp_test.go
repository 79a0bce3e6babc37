package exp

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

func TestRegistry(t *testing.T) {
	defs := All()
	if len(defs) != 15 {
		t.Fatalf("registry has %d entries, want 15 (fig11..fig20 + ablation + extensions + scenarios + workloads)", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if d.ID == "" || d.Title == "" || d.Run == nil {
			t.Fatalf("incomplete definition %+v", d)
		}
		if seen[d.ID] {
			t.Fatalf("duplicate id %s", d.ID)
		}
		seen[d.ID] = true
	}
	if _, ok := Lookup("fig13"); !ok {
		t.Fatal("Lookup(fig13) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

func TestFig13ShapeAndDeterminism(t *testing.T) {
	run := func() *Output {
		out, err := Fig13(Options{Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run()
	if len(a.Tables) != 1 || len(rows(a.Tables[0])) != 5 {
		t.Fatalf("fig13 shape wrong: %+v", a)
	}
	// The paper's trend: short heartbeat bounds beat long ones.
	first := parsePct(t, rows(a.Tables[0])[0][1])
	last := parsePct(t, rows(a.Tables[0])[4][1])
	if first <= last {
		t.Fatalf("reliability at 1s bound (%v) should beat 5s bound (%v)", first, last)
	}
	b := run()
	if a.String() != b.String() {
		t.Fatal("fig13 output not deterministic")
	}
}

func TestFig16ValidityMonotone(t *testing.T) {
	out, err := Fig16(Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(out.Tables[0])
	lo := parsePct(t, rs[0][1])         // 25 s
	hi := parsePct(t, rs[len(rs)-1][1]) // 150 s
	if hi < lo+0.2 {
		t.Fatalf("validity 150s (%v) should clearly beat 25s (%v)", hi, lo)
	}
}

// frugalPoint looks one point of the frugality sweep up by value: the
// per-metric seed means of (protocol, events, pct).
func frugalPoint(t *testing.T, d *frugalData, proto string, events, pct int) []float64 {
	t.Helper()
	pi := slices.IndexFunc(d.protocols, func(p netsim.ProtocolSpec) bool { return p.String() == proto })
	ni, ci := slices.Index(d.events, events), slices.Index(d.pcts, pct)
	if pi < 0 || ni < 0 || ci < 0 {
		t.Fatalf("no frugality point (%s, %d events, %d%%)", proto, events, pct)
	}
	return d.means.At(pi, ni, ci)
}

func TestFrugalityOrderings(t *testing.T) {
	d, err := frugalitySweep(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	maxEvents := d.events[len(d.events)-1]
	for _, pct := range d.pcts {
		frugal := frugalPoint(t, d, "frugal", maxEvents, pct)
		simple := frugalPoint(t, d, "simple-flooding", maxEvents, pct)
		aware := frugalPoint(t, d, "interests-aware-flooding", maxEvents, pct)
		// Paper Fig 18: 50-100x fewer events sent; demand at least 5x.
		if frugal[frugalSent]*5 > simple[frugalSent] {
			t.Errorf("pct=%d: frugal sent %.1f vs simple %.1f, want >5x gap",
				pct, frugal[frugalSent], simple[frugalSent])
		}
		// Paper Fig 19: far fewer duplicates than the best alternative.
		if frugal[frugalDups]*5 > aware[frugalDups] {
			t.Errorf("pct=%d: frugal dups %.1f vs interests-aware %.1f, want >5x gap",
				pct, frugal[frugalDups], aware[frugalDups])
		}
		// Paper Fig 17: frugal uses less bandwidth at scale.
		if frugal[frugalBandwidth] > simple[frugalBandwidth] {
			t.Errorf("pct=%d: frugal bandwidth %.0f exceeds simple flooding %.0f",
				pct, frugal[frugalBandwidth], simple[frugalBandwidth])
		}
	}
	// Paper Fig 20: parasites are worst around 60% interest for ours.
	par20 := frugalPoint(t, d, "frugal", maxEvents, 20)[frugalParasites]
	par60 := frugalPoint(t, d, "frugal", maxEvents, 60)[frugalParasites]
	par100 := frugalPoint(t, d, "frugal", maxEvents, 100)[frugalParasites]
	if !(par60 > par20 && par60 > par100) {
		t.Errorf("frugal parasites should peak at 60%%: 20%%=%.1f 60%%=%.1f 100%%=%.1f",
			par20, par60, par100)
	}
	if par100 != 0 {
		t.Errorf("parasites at 100%% interest = %.1f, want 0", par100)
	}
}

func TestFrugalityCrossover(t *testing.T) {
	// The paper's one exception: with a single small event and 20%
	// interest, interests-aware flooding undercuts us on bandwidth
	// (heartbeats dominate our cost there).
	d, err := frugalitySweep(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	frugal := frugalPoint(t, d, "frugal", 1, 20)[frugalBandwidth]
	aware := frugalPoint(t, d, "interests-aware-flooding", 1, 20)[frugalBandwidth]
	if aware >= frugal {
		t.Skipf("crossover not visible at this scale: frugal=%.0f aware=%.0f", frugal, aware)
	}
}

func TestFrugalityMemoized(t *testing.T) {
	a, err := frugalitySweep(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := frugalitySweep(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical options should return the memoized sweep")
	}
}

// TestCityInterestMemoized pins that fig14 and fig15 render from one
// sweep: the same options return the same sweep, another seed count
// runs its own.
func TestCityInterestMemoized(t *testing.T) {
	sweep := func(seeds int) *cityInterest {
		d, err := cityInterestSweep(Options{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := sweep(1)
	if b := sweep(1); a != b {
		t.Fatal("identical options should return the memoized sweep")
	}
	if c := sweep(2); a == c || slices.Equal(a.means, c.means) {
		t.Fatal("a different seed count must run its own sweep")
	}
}

func TestAblationBlindPushCostsBandwidth(t *testing.T) {
	// The id pre-exchange is the load-bearing frugality mechanism: blind
	// pushing must cost extra traffic at equal-or-worse usefulness.
	var paperBW, blindBW float64
	for seed := int64(1); seed <= 2; seed++ {
		p, err := ablationRun(Options{}, func(*netsim.CoreTuning) {}, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ablationRun(Options{}, func(c *netsim.CoreTuning) { c.BlindPush = true }, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		paperBW += p.AppBytesPerProcess()
		blindBW += b.AppBytesPerProcess()
	}
	if blindBW <= paperBW {
		t.Fatalf("blind push bandwidth %.0f should exceed paper design %.0f", blindBW, paperBW)
	}
}

func TestAblationGCPressure(t *testing.T) {
	res, err := ablationRun(Options{}, func(*netsim.CoreTuning) {}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var evictions uint64
	for _, n := range res.Nodes {
		evictions += n.Proto.TableEvictions
	}
	if evictions == 0 {
		t.Fatal("capacity-3 table with 8 events must evict")
	}
}

func TestHeadlineClaim(t *testing.T) {
	// Abstract: "an event with a validity period of 180 seconds is
	// received by 95% of the devices which move at 10 m/s" with 80%
	// subscribers. At the scaled-down density-preserving environment we
	// demand >= 80% over a few seeds (measured ~95% +/- seed noise).
	env := rwpBase(Options{})
	var sum float64
	const seeds = 3
	for seed := int64(1); seed <= seeds; seed++ {
		sc := rwpScenario(env, 10, 10, 0.8, seed)
		sc.Name = "headline"
		rel, err := reliabilityPoint(sc, -1, 180*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sum += rel[0]
	}
	got := sum / seeds
	t.Logf("headline reliability (scaled environment) = %.1f%%", got*100)
	if got < 0.8 {
		t.Fatalf("headline reliability = %.2f, want >= 0.80", got)
	}
}

// rows returns tb's data rows, read back from its rendering: the cells
// the figures print hold no spaces.
func rows(tb *metrics.Table) [][]string {
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if tb.Title != "" {
		lines = lines[1:]
	}
	var out [][]string
	for _, l := range lines[2:] { // past the header and the separator
		out = append(out, strings.Fields(l))
	}
	return out
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), "%"))
	var v float64
	if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
		t.Fatalf("bad pct %q: %v", s, err)
	}
	return v / 100
}

func TestStormSchemesCannotExploitValidity(t *testing.T) {
	// The defining contrast of ext-storm: single-shot broadcast schemes
	// gain (almost) nothing from longer validities, while the frugal
	// protocol keeps converting validity into reliability.
	env := rwpBase(Options{})
	run := func(proto netsim.ProtocolSpec, v time.Duration) float64 {
		sc := rwpScenario(env, 10, 10, 0.8, 1)
		sc.Protocol = proto
		rel, err := reliabilityPoint(sc, -1, v)
		if err != nil {
			t.Fatal(err)
		}
		return rel[0]
	}
	frugalGain := run(rwpFrugal(), 180*time.Second) - run(rwpFrugal(), 30*time.Second)
	stormGain := run(netsim.ProtocolSpec{Name: "probabilistic-broadcast"}, 180*time.Second) - run(netsim.ProtocolSpec{Name: "probabilistic-broadcast"}, 30*time.Second)
	if frugalGain <= stormGain {
		t.Fatalf("frugal validity gain %.2f should exceed storm gain %.2f",
			frugalGain, stormGain)
	}
	if frugalGain < 0.2 {
		t.Fatalf("frugal gained only %.2f from 6x validity", frugalGain)
	}
}

func TestFig12TableShape(t *testing.T) {
	out, err := Fig12(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	if len(tb.Cols) != 4 { // validity + 3 fractions (quick scale)
		t.Fatalf("cols = %v", tb.Cols)
	}
	rs := rows(tb)
	if len(rs) != 4 {
		t.Fatalf("rows = %d, want 4 validities", len(rs))
	}
	// More subscribers never hurts (row-wise monotone, with slack for
	// single-seed noise).
	for i, r := range rs {
		lo := parsePct(t, r[1])
		hi := parsePct(t, r[3])
		if hi+0.15 < lo {
			t.Fatalf("row %d: 100%% subs (%v) far below 20%% subs (%v)", i, hi, lo)
		}
	}
}

func TestFig17TableShape(t *testing.T) {
	out, err := Fig17(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(out.Tables[0])
	// 4 protocols x 3 event counts at quick scale.
	if len(rs) != 12 {
		t.Fatalf("rows = %d, want 12", len(rs))
	}
	if rs[0][0] != "frugal" {
		t.Fatalf("first protocol = %q", rs[0][0])
	}
}

func TestExtShadowingRuns(t *testing.T) {
	out, err := ExtShadowing(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := out.Tables[0]
	rs := rows(tb)
	if len(rs) != 3 || len(tb.Cols) != 4 {
		t.Fatalf("shape = %dx%d", len(rs), len(tb.Cols))
	}
	// Shadowing at the calibrated radius must not hurt reliability at
	// the longest validity (long links only add opportunities).
	disc := parsePct(t, rs[2][1])
	sigma8 := parsePct(t, rs[2][3])
	if sigma8+0.1 < disc {
		t.Fatalf("sigma=8 (%v) far below disc (%v)", sigma8, disc)
	}
}
