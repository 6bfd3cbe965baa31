//! `folearn-obs` — the observability spine of the folearn workspace.
//!
//! Everything the paper claims is a *shape* claim: oracle calls
//! quadratic per level (Lemma 7), splitter-game lengths bounded by `s`
//! (Fact 4), locality-radius recursion in the ND learner (Theorem 13).
//! This crate is the single instrumentation layer that turns those
//! shapes into data every subsystem reports the same way:
//!
//! * [`span`]/[`Counter`] — hierarchical spans with monotonic timings
//!   and typed work counters, captured in per-thread buffers (no lock on
//!   the probe path; workers hand finished [`SpanRecord`]s to their
//!   coordinator, mirroring the sharded-arena merge of the parallel ERM
//!   engine);
//! * [`PowHistogram`] — the power-of-two histogram behind the server's
//!   latency metrics and span-duration aggregation;
//! * [`Registry`] — the one metrics registry both daemons keep and
//!   render their `stats` payload with: per-endpoint latency rows, the
//!   span rollup, the 60 s [`TimeSeries`], and named counters;
//! * [`Json`] — the shared JSON value tree (wire protocol, bench
//!   reports, trace files);
//! * [`export`] — JSONL and tree-summary exporters.
//!
//! Capture is opt-in at runtime ([`set_enabled`]) and can be compiled
//! out entirely by building without the `capture` feature; either way
//! instrumented code paths produce bit-identical results, because probes
//! only ever *record* — they never influence control flow.

pub mod export;
pub mod hist;
pub mod json;
pub mod registry;
pub mod series;
pub mod span;

pub use hist::{PowHistogram, BUCKETS};
pub use json::{Json, JsonError};
pub use registry::{endpoint_row, latency_json, Registry};
pub use series::{TimeSeries, WINDOW_S};
pub use span::{
    adopt, count, enabled, meta, set_enabled, span, take_thread_roots, Counter, CounterSet,
    LocalStats, Span, SpanRecord, COUNTERS,
};
