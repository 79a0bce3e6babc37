package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// parallelism resolves Options.Parallel: zero (or negative) selects one
// worker per CPU.
func (o Options) parallelism() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.NumCPU()
}

// runJobs is the shared run-scheduler behind every sweep: it executes
// jobs 0..n-1 on a pool of o.parallelism() workers and returns the
// results in job order.
//
// Determinism contract: each job must be a pure function of its index —
// the sweeps enumerate their (protocol, params, seed) grid up front and
// each job is one netsim.Run, which is itself a pure function of
// (Scenario, Seed). Results are aggregated by the caller in enumeration
// order after all jobs finish, so sweep tables are byte-identical at
// any parallelism (including the float-sensitive Welford accumulators,
// which always fold samples in the same order).
//
// On failure the error of the lowest-indexed failing job is returned —
// also independent of parallelism: indices are claimed in order, every
// claimed index runs to completion (the abort check happens before
// claiming, never after), and claiming index j implies every i < j was
// claimed earlier — so if job j fails, a lower failing job has always
// recorded its error too. Unclaimed jobs after a failure are skipped.
//
// With Options.Progress set, one liveness line is emitted as each job
// finishes (serialized across workers); the per-point lines the sweeps
// emit during aggregation remain deterministic.
func runJobs[T any](o Options, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	var mu sync.Mutex
	done := 0
	tick := func() {
		if o.Progress == nil {
			return
		}
		mu.Lock()
		done++
		o.progress("%d/%d simulations done", done, n)
		mu.Unlock()
	}
	workers := min(o.parallelism(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := job(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
			tick()
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := job(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
				tick()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// gridResults holds one result per point of a dense multi-dimensional
// sweep grid, addressable with the consumer's own loop indices — see
// runGrid.
type gridResults[T any] struct {
	dims []int
	vals []T
}

// At returns the result at the given multi-index, one index per
// dimension passed to runGrid.
func (g *gridResults[T]) At(idx ...int) T {
	if len(idx) != len(g.dims) {
		panic(fmt.Sprintf("exp: At got %d indices for %d dims", len(idx), len(g.dims)))
	}
	flat := 0
	for d, i := range idx {
		if i < 0 || i >= g.dims[d] {
			panic(fmt.Sprintf("exp: index %d out of range for dim %d (size %d)", i, d, g.dims[d]))
		}
		flat = flat*g.dims[d] + i
	}
	return g.vals[flat]
}

// runGrid fans a dense parameter grid out over runJobs: dims are the
// dimension sizes (e.g. {len(fracs), len(validities), seeds}) and job
// receives the multi-index of its point. Consumers read results back
// with At using their own loop indices, so the enumeration side and
// the aggregation side cannot drift out of lock-step — the failure
// mode of hand-rolled flat counters, which silently misattribute
// samples to the wrong table cells when one side's loop nesting
// changes.
func runGrid[T any](o Options, dims []int, job func(idx []int) (T, error)) (*gridResults[T], error) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	vals, err := runJobs(o, n, func(flat int) (T, error) {
		idx := make([]int, len(dims))
		for d := len(dims) - 1; d >= 0; d-- {
			idx[d] = flat % dims[d]
			flat /= dims[d]
		}
		return job(idx)
	})
	if err != nil {
		return nil, err
	}
	return &gridResults[T]{dims: dims, vals: vals}, nil
}

// meanGrid is runGrid for the fold every figure point goes through: the
// mean over seeded runs. It appends the seed axis to dims, runs job for
// every (point, seed) on the runJobs pool — seed is 1-based, as the
// scenarios stamp it — and returns, per point, the mean of each metric
// job reported. This is the one place seeds are folded: each metric
// goes through a metrics.Agg in seed order after all jobs finish, so
// the Welford arithmetic, hence every table byte, is independent of
// parallelism. A spread beside the mean (Agg carries Std) or a
// per-point stopping rule belongs here and nowhere else.
func meanGrid(o Options, dims []int, seeds int, job func(ix []int, seed int64) ([]float64, error)) (*gridResults[[]float64], error) {
	nd := len(dims)
	runs, err := runGrid(o, append(dims[:nd:nd], seeds), func(ix []int) ([]float64, error) {
		return job(ix[:nd], int64(ix[nd])+1)
	})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, len(runs.vals)/seeds)
	for p := range means {
		point := runs.vals[p*seeds : (p+1)*seeds]
		aggs := make([]metrics.Agg, len(point[0]))
		for _, run := range point {
			for m, x := range run {
				aggs[m].Add(x)
			}
		}
		means[p] = make([]float64, len(aggs))
		for m := range aggs {
			means[p][m] = aggs[m].Mean()
		}
	}
	return &gridResults[[]float64]{dims: dims, vals: means}, nil
}

// memo keeps a sweep that several figures render from (fig14-15,
// fig17-20), so regenerating all of them costs one pass. Seed count and
// scale are the only Options that change a figure sweep's numbers, so
// they are the key. Nothing is locked while run executes: concurrent
// first callers each sweep, and all of them get the result stored first.
type memo[V any] struct {
	m sync.Map // memoKey -> *V
}

type memoKey struct {
	seeds int
	full  bool
}

func (c *memo[V]) get(seeds int, full bool, run func() (*V, error)) (*V, error) {
	key := memoKey{seeds, full}
	if v, ok := c.m.Load(key); ok {
		return v.(*V), nil
	}
	v, err := run()
	if err != nil {
		return nil, err
	}
	stored, _ := c.m.LoadOrStore(key, v)
	return stored.(*V), nil
}
