// Package boomsim is the public API of a from-scratch Go reproduction of
// Kumar, Huang, Grot and Nagarajan, "Boomerang: a Metadata-Free Architecture
// for Control Flow Delivery" (HPCA 2017): a cycle-level front-end simulator
// with a synthetic server-workload substrate and the complete lineup of
// control-flow-delivery schemes the paper evaluates (next-line, DIP, FDIP,
// PIF, SHIFT, Confluence, Boomerang, plus limit studies and hierarchical-BTB
// alternatives).
//
// # Running one simulation
//
// Construct a Simulation with functional options and run it under a
// context:
//
//	s, err := boomsim.New(
//		boomsim.WithScheme("Boomerang"),
//		boomsim.WithWorkload("Apache"),
//		boomsim.WithBTBEntries(32768),
//		boomsim.WithWindow(200_000, 1_000_000),
//	)
//	if err != nil { ... }
//	r, err := s.Run(ctx)
//
// Run checks ctx cooperatively inside the simulation loop; canceling the
// context returns ErrCanceled within a few chunks of instructions.
// WithProgress installs a callback invoked every N retired instructions.
// The returned Result is plain data and marshals to JSON.
//
// # Declarative schemes
//
// Every scheme is a SchemeConfig: plain serializable data (FTQ depth,
// prefetcher kind and parameters, BTB organisation, miss policy, predictor,
// storage-overhead accounting) interpreted by one generic builder. Compose
// novel scenarios in Go or load them from JSON scheme files, no internals
// required:
//
//	cfg, err := boomsim.LoadSchemeConfig("boomerang-ftq64.json")
//	s, err := boomsim.New(boomsim.WithSchemeConfig(cfg), boomsim.WithWorkload("DB2"))
//
// Inline configs travel with wire requests, so boomsimd workers execute
// schemes they have never seen registered, and the configuration Key covers
// the full config.
//
// # Scheme and workload registries
//
// Schemes and workloads are string-keyed. Schemes() and Workloads()
// enumerate what is registered — each SchemeInfo carries the scheme's full
// SchemeConfig — and unknown names surface as ErrUnknownScheme /
// ErrUnknownWorkload from New. RegisterScheme and RegisterWorkload extend
// the registries: new declarative configs (variants, ablations, freshly
// calibrated profiles) become addressable by every consumer of this package
// without touching its call sites.
//
// # Per-component statistics
//
// Result.Stats is a hierarchical registry flattened to dotted names: every
// simulated component reports its counters under its own namespace
// ("frontend.fetch_stall_cycles", "bpu.tage.useful_resets",
// "cache.llc_misses", "boomerang.probes", ...). The registry flows
// unchanged through boomsimd responses, Prometheus metrics and cluster
// reassembly; the typed fields on Result are a projection of it.
//
// # Batch runs
//
// RunMatrix executes many Simulations across a bounded worker pool with
// order-stable results: results[i] always corresponds to sims[i], and the
// output is identical for every parallelism level.
//
//	results, err := boomsim.RunMatrix(ctx, sims, boomsim.WithParallelism(8))
//
// # Distributed runs
//
// A matrix can shard across a pool of boomsimd workers instead of the
// local pool: cells route by rendezvous hashing on their configuration
// Key (keeping worker result caches hot across sweeps), worker
// backpressure is honored, stragglers can be hedged, a dying worker's
// cells re-dispatch to the survivors, and results return in matrix order,
// byte-identical to a local run:
//
//	cl, err := boomsim.NewCluster(boomsim.WithEndpoints("http://sim-1:8080", "http://sim-2:8080"))
//	results, err := cl.RunMatrix(ctx, sims)
//	// or: boomsim.RunMatrix(ctx, sims, boomsim.WithCluster(cl))
//
// ErrNoWorkers and ErrWorkerFailed type the distributed failure modes;
// Cluster.Stats and Cluster.MetricsHandler expose coordinator counters
// (dispatches, retries, hedges, cache-hit ratio, per-worker latency).
//
// The implementation lives under internal/: internal/core holds the
// Boomerang mechanism itself, internal/scheme the evaluated configurations,
// internal/sim the run harness, and internal/exp the experiment engine that
// RunExperiment drives; the paper's figures are experiment specs under
// testdata/experiments/. The cmd/boomsim binary and the examples/ programs
// consume only this package.
package boomsim
