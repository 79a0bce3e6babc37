package exp

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestMetroFingerprint pins a full metro-5k city run end to end: one
// sha-256 over every publication, outcome, per-node counter and the
// streaming latency histogram (netsim.Result.Fingerprint). The table
// goldens above exercise the same engine layers but only at village
// scale and only through rounded aggregates; this case is the one
// place a megacity-path regression — route cache, dense grids,
// streaming aggregation — must reproduce a city-scale run bit for bit.
// It costs a couple of minutes, so it hides behind -short like the
// Heavy scenarios it guards.
func TestMetroFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full metro-5k run (~2 min); rerun without -short")
	}
	def, ok := netsim.LookupScenario("metro-5k")
	if !ok {
		t.Fatal("metro-5k not registered")
	}
	// Sampling rides along: the golden was recorded unsampled, so the
	// comparison doubles as the city-scale sample-invariance check
	// (Scenario.Sample is observation-only; see netsim/series.go).
	sc := def.Instantiate(1)
	sc.Sample = 10 * time.Second
	res, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metro-5k-fingerprint", res.Fingerprint()+"\n")
	if res.Series == nil || len(res.Series.Points) == 0 {
		t.Fatal("sampled metro-5k run has no series")
	}
}

// TestMetroSliceFingerprint pins the metro-slice district run bit for
// bit, unsampled and sampled against the same golden: the sampler's
// observation-only contract enforced against on-disk bytes, in tier-1
// time (about a second per run), not just between two same-process
// runs.
func TestMetroSliceFingerprint(t *testing.T) {
	def, ok := netsim.LookupScenario("metro-slice")
	if !ok {
		t.Fatal("metro-slice not registered")
	}
	res, err := netsim.Run(def.Instantiate(1))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metro-slice-fingerprint", res.Fingerprint()+"\n")
	sc := def.Instantiate(1)
	sc.Sample = 5 * time.Second
	sampled, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metro-slice-fingerprint", sampled.Fingerprint()+"\n")
	if sampled.Series == nil || len(sampled.Series.Points) == 0 {
		t.Fatal("sampled metro-slice run has no series")
	}
}
