// Package obs is the repository's observability layer: a stdlib-only
// registry of counters, gauges and fixed-bucket histograms exposed in
// Prometheus text exposition format, plus the per-query trace timeline
// the server returns for trace-flagged requests.
//
// The paper's whole argument is cost accounting — compdists and page
// accesses as the measure of every pivot structure — and the serving
// layers already count them internally (core.Space, store.Pager,
// internal/cache, the admission controller, the WAL). This package
// gives those counters one operational surface: every layer registers
// its numbers here, GET /metrics scrapes them in a format any
// Prometheus-compatible collector ingests, GET /v1/stats renders the
// server's request lines from the same handles (Histogram.Quantile is
// its percentile definition), and the repository benchmark's traced runs
// read the registry through Snapshot.
//
// Design constraints, in order:
//
//   - Zero-alloc increments. Counter.Inc/Add, Gauge.Set/Add and
//     Histogram.Observe run on query hot paths (per request, per batch,
//     per shard probe, per WAL append) and must not allocate. They are
//     annotated //metriclint:noalloc — machine-checked by `make lint` —
//     and witnessed at runtime by testing.AllocsPerRun regression tests.
//     All metric handles are created at registration time (allocation is
//     fine there) and held by the instrumented struct, so the hot path
//     is an atomic add, never a map lookup.
//
//   - Stdlib only. Exposition is written by hand (the format is a few
//     lines of spec); no client_golang dependency.
//
//   - Pull for what exists, push for what doesn't. Subsystems that
//     already maintain counters (cache hits, pager traffic, WAL size,
//     the live epoch) are exposed through CounterFunc/GaugeFunc views
//     read at scrape time — zero added cost per event and the /v1/stats
//     JSON surface reads the same sources, so the two can never
//     disagree. Only genuinely new measurements (request counts and
//     latency histograms, swap durations, fsync times) use the
//     incrementing types, and those handles are the only copy.
//
// Metric names use the mx_ prefix and follow Prometheus conventions:
// _total suffix on monotone counters, base-unit seconds for durations.
// The full catalog is docs/OBSERVABILITY.md.
package obs
