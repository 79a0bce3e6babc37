package exp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

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
	if serial.DeliveredTotal() == 0 {
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
