// Package obs is the runtime observability subsystem: an OMPT-style tool
// interface the rest of the runtime reports into. The runtime (internal/rt)
// carries emit points at every interesting transition — region fork/join,
// hot-team lease/retire, task create/schedule/complete, steal attempts,
// barrier waits, dependence releases, work-sharing encounters (including
// the parallel package's algorithm dispatch, which reports as ordinary
// work-sharing) — each guarded by a single atomic load of the published
// hook table. With no tool installed that load returns nil and the emit
// point is one predicted branch, so the runtime's allocation-free hot
// paths are unchanged.
//
// Counters have one home: the sharded metrics registry (EnableMetrics,
// ReadMetrics, WriteMetricsText) counts runtime events, and internal/rt
// owns the hot-team pool and admission counters. The other built-in
// consumers record events only. The tracer, while a trace is recording,
// appends fixed-size records to per-worker ring buffers with no locks and
// no allocations on the emit path; its Stats are ring accounting, not
// runtime counters. A drain pass converts the records to Chrome
// trace-event JSON (loadable in Perfetto: one track per worker, nested
// phase slices, flow arrows from task spawn to task run and from
// dependence release to the released task). The flight recorder keeps the
// last few seconds of the same records in private rings; both resolve
// user-span names against one intern table (InternName).
//
// Custom tools install their own hook table with SetHooks, the OMPT
// analogue of registering a tool; the built-in tracer is installed with
// EnableTracing/StartTrace. Both occupy the one tool slot, which composes
// with the metrics registry and the flight recorder.
package obs
