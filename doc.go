// Package repro is a from-scratch Go reproduction of "Frugal Event
// Dissemination in a Mobile Environment" (Baehni, Chhabra, Guerraoui —
// Middleware 2005): a topic-based publish/subscribe protocol for mobile
// ad-hoc networks, the discrete-event MANET simulator it is evaluated on
// (random-waypoint and city-section mobility, 802.11b-style CSMA
// broadcast MAC with collisions), three flooding baselines, and a harness
// that regenerates every figure and table of the paper's evaluation.
//
// Layout:
//
//   - internal/core — the frugal protocol (the paper's contribution)
//   - internal/proto — the protocol layer: Disseminator interface,
//     shared Stats/Scheduler/Transport, and the protocol registry
//     (internal/proto/all wires the built-ins in)
//   - internal/sim, geo, topic, event, radio, mobility, mac — substrates
//   - internal/flood — the flooding baselines of Section 5.2 plus the
//     broadcast-storm schemes
//   - internal/gossip — the push-pull rumor-mongering baseline
//   - internal/workload — the workload registry: lazy traffic/churn
//     generators scenarios select by name
//   - internal/registry — the shared generic name→definition store
//     behind the protocol, scenario and workload registries, and the
//     typed store (params schema + factory) protocols and workload
//     generators share
//   - internal/netsim, metrics, exp — scenario runner, scenario
//     registry and experiments
//   - internal/obs — the shared observability layer: a zero-dependency
//     metrics registry (Prometheus text + JSON encoders, /metrics +
//     /healthz + pprof HTTP listener) and CPU/heap profile helpers
//     (ARCHITECTURE.md "Observability contracts")
//   - internal/trace — bounded message-level timelines in one O(1)
//     ring, shared by the simulator's -trace and the real path's
//     flight recorder
//   - pubsub, internal/transport — the real-network face of the same
//     core protocol: a goroutine-safe Node over batched, bounded-queue
//     UDP peer-group broadcast with dynamic membership (seed-based
//     join from observed datagram sources, suspicion-window failure
//     detection) and a build-tagged Linux sendmmsg/recvmmsg syscall
//     fast path that sends runs of equal-size messages as UDP GSO
//     segment trains (ARCHITECTURE.md "Real-path contracts" and
//     "Real-deployment contracts"), with per-node metrics registration
//     and flight recording built in
//   - cmd/experiments, cmd/frugalsim, cmd/loadgen —
//     command-line tools (loadgen soak-tests N real UDP nodes under
//     the registered workload generators — full or partial circulant
//     meshes, static or learned rosters, optional crash/recover churn
//     waves — and prints the measured delivery ratio/latency next to
//     the netsim prediction, optionally serving live /metrics and
//     writing a machine-readable report)
//   - examples: ExampleRun (quickstart), ExampleRun_campus and
//     ExampleRun_carpark in internal/netsim, ExampleNewNode and
//     ExampleNewUDPNode in pubsub; go test checks their output
//
// ARCHITECTURE.md maps the paper's sections onto these packages and
// sketches the dataflow of one simulation.
//
// go run ./cmd/experiments regenerates the paper's tables; go run -C
// bench . is the repository's benchmark (its paper-figs workload times
// every figure family against its golden; catalog in BENCHMARK.json).
//
// # Building and running
//
// The module is self-contained (no external dependencies):
//
//	go build ./...
//	go test ./...                        # unit + reproduction tests
//	go test -race ./...                  # includes the parallel runner
//	go run ./cmd/experiments -list       # enumerate experiments + scenarios
//	go run ./cmd/experiments -fig fig13  # one figure, scaled down
//	go run ./cmd/experiments -scenario manhattan # one registered scenario
//	go run ./cmd/experiments -parallel 8 # cap concurrent simulations
//
// Observability rides along without changing any result: -sample
// records a deterministic per-run time-series (-series-out dumps the
// curves as CSV/JSON), -cpuprofile/-memprofile profile the sweeps, and
// cmd/loadgen -metrics-addr serves live Prometheus metrics, pprof and
// per-node flight-recorder dumps for a real soak (ARCHITECTURE.md
// "Observability contracts").
//
// # Scenario registry
//
// Beyond the paper's figures, whole workloads are defined declaratively:
// a netsim.ScenarioDef bundles mobility model, node count, radio range,
// protocol tuning, publication schedule, optional crash/churn events and
// measurement windows under a name (netsim.RegisterScenario). Registered
// scenarios are swept across every registered protocol by the exp
// package's "scenarios" experiment family and are addressable from both
// CLIs (experiments -scenario, frugalsim -scenario). go run
// ./cmd/experiments -list prints the catalog (this applies to the
// protocol and workload registries below too): the listing is generated
// from the registries themselves, so it cannot drift.
//
// Every non-Heavy catalog entry is swept against every registered
// protocol; a default-scale sweep (3 seeds x 7 protocols) finishes in
// about a second. Heavy entries (the metro city sweeps) are excluded
// from the registry-wide families and the golden suite — reach them
// with -scenario (on either CLI) or the benchmark's metro-slice and
// metro-flood-5k workloads.
//
// The vehicular environments are backed by two mobility models layered
// on the street-graph machinery (mobility.Manhattan, mobility.Highway);
// both satisfy the same determinism, continuity and speed-bound
// contracts as the paper's models (see the internal/mobility godoc).
//
// # Protocol registry
//
// Protocols are first-class and declarative too: internal/proto defines
// the Disseminator interface and a registry mapping names to factories
// plus params schemas (proto.RegisterProtocol); each protocol package
// registers itself in init and internal/proto/all blank-imports them
// all. A netsim.Scenario selects its protocol with ProtocolSpec{Name,
// Params} — validated against the registered schema at
// Scenario.Validate time — and the runner builds instances purely by
// name.
//
// Every registered protocol must pass the conformance suite in
// internal/proto (safety under drop/duplicate/reorder, no parasite
// deliveries, monotone counters, per-seed determinism); the suite is
// table-driven over the registry, so registration is enrollment. See
// ARCHITECTURE.md "Adding a protocol".
//
// # Workload registry
//
// Workloads are the third first-class registry (internal/workload):
// named generators lazily synthesize publication traffic, node
// lifecycle churn and subscription churn from the run's seeded RNG. A
// netsim.Scenario opts in with WorkloadSpec{Name, Params}; the zero
// spec means the scenario's hand-placed Schedule []workload.Op alone
// drives the run (replayed through workload.NewExplicit — one op type
// and one scheduling mechanism for both paths), and a non-zero spec's
// stream is merged with the schedule. The runner pumps ops through a single
// armed engine callback, so a million-publication run stays O(1)
// memory and remains a pure function of (Scenario, Seed).
//
// Traffic generators spread topics over the topic tree uniformly or
// Zipf-skewed (workload.TopicModel). The exp "workloads" family sweeps
// every registered generator on the reference waypoint environment
// (experiments -fig workloads); -workload <name> sweeps one generator
// across every registered protocol, and frugalsim -workload merges a
// generator into an ad-hoc scenario. Every registered generator must
// pass the conformance suite in internal/workload (deterministic per
// seed, monotone in time, in-bounds for the run's horizon). See
// ARCHITECTURE.md "Adding a workload".
//
// # Determinism contract
//
// A netsim.Result is a pure function of (Scenario, Seed): every run owns
// its engine, RNG streams, mobility models and protocol instances, and
// shares no mutable state. The experiment harness exploits this by
// fanning each sweep's (protocol, parameters, seed) grid out over a
// worker pool (Options.Parallel, default NumCPU) and aggregating in
// enumeration order, so rendered tables are byte-identical at any
// parallelism.
//
// One run is one engine on one goroutine; that worker pool is the
// multi-core design (ARCHITECTURE.md "Multi-core").
//
// The simulated medium (internal/mac) indexes node positions and live
// transmissions in one dense spatial grid type (internal/geo.Grid; the
// node index geo.IndexGrid is a Grid[int32]), so per-frame receiver,
// carrier-sense and interference lookups cost O(nodes in range) rather
// than O(all nodes); the index pads queries by
// a mobility-derived staleness margin and re-checks exact distances, so
// its deliveries are frame-for-frame identical to the full-roster
// reference scan (mac.Config.FullScan).
package repro
