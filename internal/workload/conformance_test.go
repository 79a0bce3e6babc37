package workload_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/topic"
	"repro/internal/workload"
)

// The conformance suite (modeled on internal/proto's chaos suite) is
// the contract every registered generator must honor with its default
// params, for any seed:
//
//   - determinism: identical (params, Env seed) produce identical op
//     streams;
//   - monotonicity: op times are non-decreasing;
//   - bounds: every op lies within [0, Warmup+Measure], node indices
//     lie in [0, Nodes) (-1 only on Publish), publishes carry a
//     positive validity;
//   - termination: the stream is finite (the runner pulls until
//     exhaustion);
//   - liveness: traffic generators emit at least one publication and
//     churn generators at least one op over a two-minute window.
//
// The suite is table-driven over the registry, so a newly registered
// generator is enrolled automatically.

// confEnv is the suite's reference environment.
func confEnv(seed int64) workload.Env {
	return workload.Env{
		Nodes:      20,
		Rand:       rand.New(rand.NewSource(seed)),
		Warmup:     10 * time.Second,
		Measure:    120 * time.Second,
		EventTopic: topic.MustParse(".app.news"),
	}
}

// drain pulls the full stream, failing the test if it exceeds cap ops
// (a runaway generator must not hang the suite).
func drain(t *testing.T, gen workload.Generator, cap int) []workload.Op {
	t.Helper()
	var ops []workload.Op
	for {
		op, ok := gen.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
		if len(ops) > cap {
			t.Fatalf("generator emitted more than %d ops without terminating", cap)
		}
	}
}

func TestWorkloadConformance(t *testing.T) {
	defs := workload.Workloads()
	if len(defs) < 7 {
		t.Fatalf("only %d generators registered; mix, the four arrival processes and both churn kinds must be wired in", len(defs))
	}
	for _, def := range defs {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				env := confEnv(seed)
				gen, err := def.New(def.Params, env)
				if err != nil {
					t.Fatalf("factory with default params failed: %v", err)
				}
				ops := drain(t, gen, 1<<21)

				var pubs, churn int
				for i, op := range ops {
					if i > 0 && op.At < ops[i-1].At {
						t.Fatalf("seed %d: op %d at %v after %v (non-monotone)", seed, i, op.At, ops[i-1].At)
					}
					if op.At < 0 || op.At > env.End() {
						t.Fatalf("seed %d: op %d at %v outside [0, %v]", seed, i, op.At, env.End())
					}
					min := 0
					if op.Kind == workload.Publish {
						min = -1
						pubs++
						if op.Validity <= 0 {
							t.Fatalf("seed %d: publish %d without validity", seed, i)
						}
					} else {
						churn++
					}
					if op.Node < min || op.Node >= env.Nodes {
						t.Fatalf("seed %d: op %d (%v) node %d out of [%d, %d)", seed, i, op.Kind, op.Node, min, env.Nodes)
					}
				}
				switch def.Class {
				case workload.ClassTraffic:
					if pubs == 0 {
						t.Fatalf("seed %d: traffic generator emitted no publications", seed)
					}
				case workload.ClassChurn:
					if churn == 0 {
						t.Fatalf("seed %d: churn generator emitted no dynamics", seed)
					}
				}

				// Determinism: an identical build replays the stream.
				gen2, err := def.New(def.Params, confEnv(seed))
				if err != nil {
					t.Fatalf("second factory build failed: %v", err)
				}
				ops2 := drain(t, gen2, 1<<21)
				if len(ops) != len(ops2) {
					t.Fatalf("seed %d: replay emitted %d ops, first run %d", seed, len(ops2), len(ops))
				}
				for i := range ops {
					if ops[i] != ops2[i] {
						t.Fatalf("seed %d: op %d differs across identical builds:\n%+v\n%+v", seed, i, ops[i], ops2[i])
					}
				}
			}
		})
	}
}

// TestWorkloadConformanceTinyRoster re-runs the bounds half on a
// one-node roster: node-picking generators must not index out of
// range, whatever the roster size.
func TestWorkloadConformanceTinyRoster(t *testing.T) {
	for _, def := range workload.Workloads() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			env := confEnv(3)
			env.Nodes = 1
			gen, err := def.New(def.Params, env)
			if err != nil {
				t.Fatalf("factory failed on 1-node roster: %v", err)
			}
			for i, op := range drain(t, gen, 1<<21) {
				min := 0
				if op.Kind == workload.Publish {
					min = -1
				}
				if op.Node < min || op.Node >= 1 {
					t.Fatalf("op %d (%v) node %d out of range on 1-node roster", i, op.Kind, op.Node)
				}
			}
		})
	}
}
