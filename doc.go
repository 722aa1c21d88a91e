// Package nbr is a from-scratch Go reproduction of "NBR: Neutralization
// Based Reclamation" (Singh, Brown, Mashtizadeh; PPoPP 2021), and a usable
// library around it.
//
// The public API has one entry point, the Runtime (nbr.NewRuntime): one
// lease registry, one reclamation scheme and one arena, with any number of
// concurrent ordered sets attached to it by NewSet. Handler goroutines
// Acquire a Lease, operate on sets under it (set.Insert(lease, key)), and
// Release it on the way out — thread slots recycle across any number of
// short-lived goroutines, departing threads leak nothing (their in-flight
// reclamation state is adopted by later reclaimers), and the scheme's
// declared garbage bound holds across the churn. See examples/quickstart
// for the one-set case.
//
// One Lease covers every Set of its Runtime, so a single lease per request
// covers all of a handler's structures; the garbage bound is declared once
// and aggregates across them (the arena is a stateless router: a
// reclamation burst is grouped by owning structure and back with the pools
// when the scheme's free call returns, so Retired − Freed is all the memory
// the allocator has not got back); and AcquireCtx provides FIFO blocking
// admission with context cancellation instead of spin-retry. See
// examples/server for the runtime under real net/http traffic and DESIGN.md
// §10 for the layer's design.
//
// The paper's algorithms live in internal/core; the substrates that make
// them expressible under a garbage-collected runtime live in internal/mem
// (manual-memory pool with use-after-free detection) and internal/sigsim
// (simulated POSIX neutralization signals). internal/smr defines the
// scheme/data-structure interface, internal/smr/* the baseline reclamation
// algorithms, internal/ds/* the evaluated data structures (the paper's five
// plus a resizable split-ordered hash map whose doubling retires each old
// bucket array as one segment — K records behind a single scheme-side stamp;
// DESIGN.md §14). internal/catalog, a leaf over those packages, constructs
// every scheme and structure by name and encodes the paper's Table 1; this
// package builds on it, and above this package sit internal/dstest (the
// correctness suites) and internal/bench, the harness that regenerates every
// figure of the paper's evaluation and measures its shared-runtime cells on
// the Runtime that ships (driven by cmd/nbrbench or the top-level testing.B
// benchmarks in bench_test.go). DESIGN.md §1 has the import order.
//
// The runtime is observable in time, not just in count: every Runtime
// carries a per-thread flight recorder (internal/obs) — fixed rings of
// packed events plus power-of-two latency histograms for admission wait,
// lease hold, read-phase duration, signal→neutralization latency, garbage
// residence age and reap latency — disabled by default at a cost of one
// predictable branch per instrumented path, switched on with
// Runtime.Observe(true). Runtime.Debug returns an http.Handler serving the
// JSON snapshot (stats, bounds, waiters, quantiles, the last-K merged
// events; examples/server mounts it at /debug/nbr behind -debug, alongside
// /debug/pprof with scheme/structure-labelled samples), PublishExpvar
// republishes the same document through expvar's /debug/vars, and on any
// bound or drain violation the test harnesses dump the merged event
// timeline, which names the stalled thread and its open read phase. See
// DESIGN.md §15.
//
// The usage rules this API implies — leases never leave their acquiring
// goroutine, read phases contain only restartable operations, arena handles
// are dereferenced only under a guard bracket or reservation — are enforced
// statically by cmd/nbrvet, which runs as a blocking CI check; see
// DESIGN.md §13 for the rules and the annotation grammar.
//
// See DESIGN.md for the architecture and the substitution arguments — §5 is
// the index of experiment presets and snapshot cells — and the committed
// BENCH_<n>.json trajectory (diffed by cmd/nbrtrend) for the measured results.
package nbr
