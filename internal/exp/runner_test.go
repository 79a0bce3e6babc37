package exp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// TestConcurrentRunsIdentical pins the invariant the parallel runner
// rests on: netsim.Run is a pure function of (Scenario, Seed), even
// when many runs execute concurrently on different goroutines.
func TestConcurrentRunsIdentical(t *testing.T) {
	scenario := func() (netsim.Scenario, time.Duration) {
		sc := rwpScenario(rwpBase(Options{}), 10, 10, 0.8, 7)
		sc.Name = "determinism"
		sc.DeliveryLog = true // the test diffs full delivery records
		return sc, 30 * time.Second
	}
	sc, v := scenario()
	serial, err := reliabilityRun(sc, -1, v)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*netsim.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc, v := scenario()
			results[w], errs[w] = reliabilityRun(sc, -1, v)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(results[w].Nodes, serial.Nodes) ||
			!reflect.DeepEqual(results[w].Deliveries, serial.Deliveries) ||
			!reflect.DeepEqual(results[w].Outcomes, serial.Outcomes) {
			t.Fatalf("concurrent run %d differs from serial run", w)
		}
	}
	var delivered uint64
	for _, n := range serial.Nodes {
		delivered += n.Proto.Delivered
	}
	if delivered == 0 {
		t.Fatal("scenario delivered nothing; determinism check is vacuous")
	}
}

// TestSweepParallelismInvariance asserts the acceptance criterion
// end-to-end: a sweep's rendered tables are byte-identical at
// parallelism 1 and parallelism N.
func TestSweepParallelismInvariance(t *testing.T) {
	run := func(parallel int) string {
		out, err := Fig13(Options{Seeds: 1, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("fig13 tables differ across parallelism:\n--- parallel=1\n%s\n--- parallel=8\n%s",
			serial, parallel)
	}
}

// TestCityParallelInvariance runs a seed sweep of metro-slice replicas
// through the worker pool at Parallel 1 and 4: the fingerprints must be
// equal run by run. Every replica instantiated from the registered
// template shares its street graph (and the graph's mutex-guarded route
// cache), so under -race this is also the check that concurrent city
// runs share nothing else.
func TestCityParallelInvariance(t *testing.T) {
	def, ok := netsim.LookupScenario("metro-slice")
	if !ok {
		t.Fatal("metro-slice not registered")
	}
	const seeds = 3
	sweep := func(parallel int) []string {
		fps, err := runJobs(Options{Parallel: parallel}, seeds, func(i int) (string, error) {
			sc := def.Instantiate(int64(i) + 1)
			sc.Warmup = 5 * time.Second
			sc.Measure = 10 * time.Second
			res, err := netsim.Run(sc)
			if err != nil {
				return "", err
			}
			return res.Fingerprint(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fps
	}
	if serial, pooled := sweep(1), sweep(4); !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("parallel=4 fingerprints %v, parallel=1 %v", pooled, serial)
	}
}

// TestRunJobsOrderAndErrors covers the scheduler itself: results come
// back in job order, and the lowest-indexed failing job wins
// regardless of parallelism.
func TestRunJobsOrderAndErrors(t *testing.T) {
	for _, parallel := range []int{1, 4, 16} {
		o := Options{Parallel: parallel}
		got, err := runJobs(o, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
	boom := func(i int) (int, error) {
		if i == 17 || i == 63 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}
	for _, parallel := range []int{1, 4, 16} {
		_, err := runJobs(Options{Parallel: parallel}, 100, boom)
		if err == nil || err.Error() != "job 17 failed" {
			t.Fatalf("parallel=%d: err = %v, want job 17's", parallel, err)
		}
	}
}

// TestMeanGridMatchesHandFold pins the seed fold every table goes
// through: over a 2x3 grid x 4 seeds of a 3-metric job, meanGrid equals
// a per-cell, per-metric Agg folded in seed order, bit for bit, at one
// worker and at eight; and a failing sweep reports the lowest-indexed
// failing job, as runJobs does.
func TestMeanGridMatchesHandFold(t *testing.T) {
	dims := []int{2, 3}
	const seeds = 4
	// Magnitudes spread over nine decades, so a fold in any other order
	// rounds differently.
	job := func(ix []int, seed int64) ([]float64, error) {
		rng := rand.New(rand.NewSource(int64(ix[0])<<16 | int64(ix[1])<<8 | seed))
		return []float64{rng.Float64(), rng.NormFloat64() * 1e6, rng.ExpFloat64() * 1e-3}, nil
	}
	for _, parallel := range []int{1, 8} {
		got, err := meanGrid(Options{Parallel: parallel}, dims, seeds, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				var want [3]metrics.Agg
				for seed := int64(1); seed <= seeds; seed++ {
					run, _ := job([]int{i, j}, seed)
					for m, x := range run {
						want[m].Add(x)
					}
				}
				for m := range want {
					if g, w := got.At(i, j)[m], want[m].Mean(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("parallel=%d point (%d,%d) metric %d: meanGrid %v, hand fold %v",
							parallel, i, j, m, g, w)
					}
				}
			}
		}
		_, err = meanGrid(Options{Parallel: parallel}, dims, seeds, func(ix []int, seed int64) ([]float64, error) {
			if ix[1] == 1 && seed >= 3 {
				return nil, fmt.Errorf("point %v seed %d failed", ix, seed)
			}
			return job(ix, seed)
		})
		if err == nil || err.Error() != "point [0 1] seed 3 failed" {
			t.Fatalf("parallel=%d: err = %v, want point [0 1] seed 3's", parallel, err)
		}
	}
}
