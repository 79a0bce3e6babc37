package workload_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func op(at time.Duration, kind workload.Kind, node int) workload.Op {
	o := workload.Op{At: at, Kind: kind, Node: node}
	if kind == workload.Publish {
		o.Validity = time.Minute
	}
	return o
}

func TestMergeTimeOrderedStableTies(t *testing.T) {
	a := workload.NewExplicit([]workload.Op{
		op(1*time.Second, workload.Publish, -1),
		op(5*time.Second, workload.Crash, 1),
	})
	b := workload.NewExplicit([]workload.Op{
		op(1*time.Second, workload.Recover, 2),
		op(3*time.Second, workload.Publish, -1),
	})
	got := make([]workload.Op, 0, 4)
	m := workload.Merge(a, b)
	for {
		o, ok := m.Next()
		if !ok {
			break
		}
		got = append(got, o)
	}
	if len(got) != 4 {
		t.Fatalf("merged %d ops, want 4", len(got))
	}
	// The 1 s tie goes to the earlier-listed generator (a's publish).
	if got[0].Kind != workload.Publish || got[1].Kind != workload.Recover {
		t.Fatalf("tie broken against the earlier generator: %+v", got[:2])
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("merge not time-ordered: %v after %v", got[i].At, got[i-1].At)
		}
	}
}

func TestSpecAndMixValidation(t *testing.T) {
	if err := (workload.Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if err := (workload.Spec{Name: "no-such"}).Validate(); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Fatalf("unknown name accepted: %v", err)
	}
	// Schema type mismatch is caught at validation, not at build.
	err := workload.CheckParams("poisson", workload.PeriodicParams{})
	if err == nil || !strings.Contains(err.Error(), "params are") {
		t.Fatalf("mismatched params accepted: %v", err)
	}
	err = workload.MixParams{Parts: []workload.Spec{{Name: "mix"}}}.Validate()
	if err == nil || !strings.Contains(err.Error(), "nests mix") {
		t.Fatalf("nested mix accepted: %v", err)
	}
	err = workload.MixParams{Parts: []workload.Spec{{}}}.Validate()
	if err == nil {
		t.Fatal("unnamed mix part accepted")
	}
	ok := workload.MixParams{Parts: []workload.Spec{
		{Name: "poisson", Params: workload.PoissonParams{Rate: 1}},
		{Name: "churn-nodes"},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
}

func TestBadParamsRejected(t *testing.T) {
	bad := []workload.Params{
		workload.PoissonParams{Rate: -1},
		workload.PoissonParams{Topics: workload.TopicModel{ZipfS: 0.5}},
		workload.PoissonParams{Topics: workload.TopicModel{Spread: -1}},
		workload.FlashCrowdParams{PeakRate: -1},
		workload.DiurnalParams{MinRate: 5, MaxRate: 1},
		workload.NodeChurnParams{Fraction: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d (%T %+v) validated", i, p, p)
		}
	}
}

// TestZipfTopicSkew pins the Zipf-vs-uniform popularity contract: with
// ZipfS set, the head topic dominates; with uniform popularity, no
// topic does.
func TestZipfTopicSkew(t *testing.T) {
	count := func(zipfS float64) map[string]int {
		env := workload.Env{
			Nodes:   10,
			Rand:    rand.New(rand.NewSource(5)),
			Measure: 2000 * time.Second,
		}
		gen, err := workload.Build("poisson", workload.PoissonParams{
			Rate:   1,
			Topics: workload.TopicModel{Spread: 8, ZipfS: zipfS},
		}, env)
		if err != nil {
			t.Fatal(err)
		}
		freq := make(map[string]int)
		total := 0
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			if op.Topic.IsZero() {
				t.Fatal("spread topic model emitted the zero topic")
			}
			if !strings.HasPrefix(op.Topic.String(), ".") {
				t.Fatalf("malformed topic %v", op.Topic)
			}
			freq[op.Topic.String()]++
			total++
		}
		if total < 500 {
			t.Fatalf("only %d publications generated", total)
		}
		return freq
	}
	zipf := count(2.0)
	if max := maxFreq(zipf); float64(max.n) < 0.4*float64(sum(zipf)) {
		t.Fatalf("Zipf(2) head topic only %d of %d publications", max.n, sum(zipf))
	}
	uniform := count(0)
	if len(uniform) != 8 {
		t.Fatalf("uniform spread used %d of 8 topics", len(uniform))
	}
	if max := maxFreq(uniform); float64(max.n) > 0.3*float64(sum(uniform)) {
		t.Fatalf("uniform head topic %d of %d publications (too skewed)", max.n, sum(uniform))
	}
}

type freq struct {
	topic string
	n     int
}

func maxFreq(m map[string]int) freq {
	var best freq
	for tp, n := range m {
		if n > best.n {
			best = freq{tp, n}
		}
	}
	return best
}

func sum(m map[string]int) int {
	total := 0
	for _, n := range m {
		total += n
	}
	return total
}

// TestGenerationFlatMemory is the O(1)-memory contract: pulling a
// million lazily generated publications must not allocate per op (no
// precomputed op slices anywhere on the path).
func TestGenerationFlatMemory(t *testing.T) {
	const rate, horizon = 1000.0, 1000 * time.Second // ~1e6 arrivals
	env := workload.Env{
		Nodes:   100,
		Rand:    rand.New(rand.NewSource(9)),
		Measure: horizon,
	}
	var total int
	allocs := testing.AllocsPerRun(1, func() {
		gen, err := workload.Build("poisson", workload.PoissonParams{Rate: rate}, env)
		if err != nil {
			t.Fatal(err)
		}
		total = 0
		for {
			_, ok := gen.Next()
			if !ok {
				break
			}
			total++
		}
	})
	if total < 900_000 {
		t.Fatalf("generated only %d publications, want ~1e6", total)
	}
	if allocs > 100 {
		t.Fatalf("generating %d publications allocated %v times; generation must be O(1) memory", total, allocs)
	}
}
