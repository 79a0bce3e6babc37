package netsim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// forceFan makes the capture/replay fan run regardless of the host's
// core count for the duration of the test, so tile parity is never
// vacuously green on a single-core CI machine.
func forceFan(t *testing.T) {
	t.Helper()
	testForceFan = true
	t.Cleanup(func() { testForceFan = false })
}

// TestTileParity is the differential net over the tile-parallel runner:
// every non-Heavy registered scenario must produce a byte-identical
// Result.Fingerprint at 1, 2, 4 and 7 tiles — including 7, which tiles
// unevenly (1x7 or 7x1) and so exercises skewed ownership. One tile
// must literally reduce to the single-engine path.
func TestTileParity(t *testing.T) {
	forceFan(t)
	tileCounts := []int{1, 2, 4, 7}
	if testing.Short() {
		tileCounts = []int{1, 4}
	}
	for _, def := range Scenarios() {
		if def.Heavy {
			continue
		}
		def := def
		t.Run(def.Name, func(t *testing.T) {
			ref, err := Run(def.Instantiate(42))
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Fingerprint()
			if ref.DeliveredTotal() == 0 {
				t.Fatal("scenario delivered nothing; parity check is vacuous")
			}
			if ref.Tile != nil {
				t.Fatalf("untiled run reports tile stats %+v", *ref.Tile)
			}
			for _, k := range tileCounts {
				sc := def.Instantiate(42)
				sc.Tiles = k
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("tiles=%d: %v", k, err)
				}
				if got := res.Fingerprint(); got != want {
					t.Errorf("tiles=%d fingerprint %s, want %s", k, got, want)
				}
				if k > 1 {
					st := res.Tile
					if st == nil || st.Tiles != k {
						t.Fatalf("tiles=%d run reports stats %+v", k, st)
					}
					// The machinery must actually engage, or the parity
					// above proves nothing about it.
					if st.Windows == 0 || st.BorderFrames == 0 {
						t.Errorf("tiles=%d machinery idle: %+v", k, *st)
					}
					if st.FannedFrames+st.SerialFrames == 0 {
						t.Errorf("tiles=%d delivered no frames through the fan hook: %+v", k, *st)
					}
				}
			}
		})
	}
}

// TestTileParityMetamorphic shifts the tile lattice origin: ownership,
// crossings and border classification all change, the results must not.
func TestTileParityMetamorphic(t *testing.T) {
	forceFan(t)
	def, ok := LookupScenario("manhattan")
	if !ok {
		t.Fatal("manhattan scenario not registered")
	}
	base := def.Instantiate(7)
	base.Tiles = 4
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, shift := range []geo.Point{
		geo.Pt(137, 0),
		geo.Pt(0, 211),
		geo.Pt(-63.5, 422.25),
	} {
		sc := def.Instantiate(7)
		sc.Tiles = 4
		sc.TileShift = shift
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("shift %v: %v", shift, err)
		}
		if got := res.Fingerprint(); got != want {
			t.Errorf("shift %v fingerprint %s, want %s", shift, got, want)
		}
		if res.Tile.Crossings == 0 && ref.Tile.Crossings == 0 {
			t.Errorf("shift %v: no crossings in either lattice; metamorphic check weak", shift)
		}
	}
}

// TestTileParityGatedPaths covers the configurations that must bypass
// the handler fan but still shard: probabilistic reception (shared-RNG
// draws per receiver force the serial order) and a delivery log.
func TestTileParityGatedPaths(t *testing.T) {
	forceFan(t)
	sc := Scenario{
		Nodes:              60,
		Seed:               11,
		Mobility:           MobilitySpec{Kind: RandomWaypoint, Area: geo.NewRect(1500, 1500), MinSpeed: 1, MaxSpeed: 25, Pause: time.Second},
		MAC:                mac.DefaultConfig(400),
		Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second}),
		SubscriberFraction: 0.8,
		Warmup:             5 * time.Second,
		Measure:            30 * time.Second,
		Publications: []Publication{
			{Publisher: -1, Validity: 20 * time.Second},
			{Offset: time.Second, Publisher: -1, Validity: 20 * time.Second},
		},
		DeliveryLog: true,
	}
	params := radio.Default80211b()
	shadow := radio.Shadowing{
		Params:         params,
		SensitivityDBm: params.ReceivedPowerDBm(400),
		SigmaDB:        6,
		LimitDBm:       -111,
	}
	sc.MAC.Range = shadow.MaxRange(1e-3)
	sc.MAC.ReceiveProb = shadow.ReceiveProb
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.DeliveredTotal() == 0 {
		t.Fatal("shadowing scenario delivered nothing; check is vacuous")
	}
	tiled := sc
	tiled.Tiles = 4
	res, err := Run(tiled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Errorf("shadowed tiled run diverged: %s vs %s", res.Fingerprint(), ref.Fingerprint())
	}
	if res.Tile.FannedFrames != 0 {
		t.Errorf("fan ran %d frames under ReceiveProb; must stay serial", res.Tile.FannedFrames)
	}
}

// TestTiledConcurrentRuns runs the tile-parallel metro-slice district
// concurrently with itself, the shape the exp worker pool composes with
// tiling (-parallel over tiled runs). Under -race this is the net over
// the fan workers and window-prepare workers: every capture buffer,
// position slab and crossing list must stay strictly per-run, and the
// replicas must agree bit for bit with the untiled reference.
func TestTiledConcurrentRuns(t *testing.T) {
	forceFan(t)
	def, ok := LookupScenario("metro-slice")
	if !ok {
		t.Fatal("metro-slice not registered")
	}
	base := def.Instantiate(3)
	base.Warmup = 5 * time.Second
	base.Measure = 15 * time.Second
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	const replicas = 2
	got := make([]string, replicas)
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := def.Instantiate(3)
			sc.Warmup = base.Warmup
			sc.Measure = base.Measure
			sc.Tiles = 4
			res, err := Run(sc)
			if err != nil {
				t.Errorf("replica %d: %v", i, err)
				return
			}
			if res.Tile.FannedFrames == 0 {
				t.Errorf("replica %d never fanned; race net is vacuous", i)
			}
			got[i] = res.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("tiled replica %d fingerprint %s, want untiled %s", i, fp, want)
		}
	}
}

// TestTileAutoResolution pins the Tiles knob semantics: 0 is the
// single-engine path at any roster size, custom models always run
// single-engine, negatives fail validation.
func TestTileAutoResolution(t *testing.T) {
	small := Scenario{Nodes: 100}
	if got := small.resolveTiles(); got != 1 {
		t.Errorf("small auto resolved to %d tiles, want 1", got)
	}
	big := Scenario{Nodes: 50_000}
	if got := big.resolveTiles(); got != 1 {
		t.Errorf("big auto resolved to %d tiles, want 1", got)
	}
	forced := Scenario{Nodes: 50, Tiles: 6}
	if got := forced.resolveTiles(); got != 6 {
		t.Errorf("explicit Tiles resolved to %d, want 6", got)
	}
	custom := Scenario{Nodes: 2, Tiles: 6, CustomModels: make([]mobility.Model, 2)}
	if got := custom.resolveTiles(); got != 1 {
		t.Errorf("CustomModels resolved to %d tiles, want 1", got)
	}
	neg := Scenario{Nodes: 50, Tiles: -1}
	neg = neg.withDefaults()
	if err := neg.Validate(); err == nil {
		t.Error("negative Tiles passed validation")
	}
}
