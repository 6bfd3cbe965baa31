//! One metrics registry for every daemon — the data behind `stats`.
//!
//! A [`Registry`] holds, behind one mutex:
//!
//! * per-endpoint request counts, errors and a latency
//!   [`PowHistogram`] ([`Registry::record_request`]);
//! * the per-span-name rollup of absorbed span trees
//!   ([`Registry::absorb_span`]): a duration histogram plus summed work
//!   counters per name;
//! * the 60 s [`TimeSeries`] behind `folearn top`;
//! * the daemon's named `u64` values ([`Registry::add`],
//!   [`Registry::set`]).
//!
//! The daemon declares its `stats` layout once, at construction: a
//! list of slot names in render order. A slot is one of the sections
//! `endpoints`, `spans` or `series`; a value the daemon passes to
//! [`Registry::snapshot`] as an extra pair (gauges that are not `u64`
//! counters, such as a flag or a ratio); or else a `u64` kept here.
//! Dotted names such as `cache.hits` render as nested objects. Adding a
//! counter therefore costs one declaration and one call site.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::hist::PowHistogram;
use crate::json::Json;
use crate::series::TimeSeries;
use crate::span::{CounterSet, SpanRecord};

/// `count`, the `_us` latency summary, and the full-resolution `hist`
/// wire form that lets a router merge latencies bucket-wise.
pub fn latency_json(latency: &PowHistogram) -> Json {
    let mut block = latency.summary_json("us");
    if let Json::Obj(pairs) = &mut block {
        pairs.push(("hist".to_string(), latency.to_wire_json()));
    }
    block
}

/// One endpoint row: [`latency_json`] with `errors` after `count`. The
/// daemons' snapshots and the router's cluster merge all render endpoint
/// rows through this function.
pub fn endpoint_row(errors: u64, latency: &PowHistogram) -> Json {
    let mut row = latency_json(latency);
    if let Json::Obj(pairs) = &mut row {
        pairs.insert(1, ("errors".to_string(), Json::Num(errors as f64)));
    }
    row
}

/// Per-endpoint count, errors and latency.
struct OpRecord {
    op: &'static str,
    errors: u64,
    latency: PowHistogram,
}

/// Per-span-name aggregate over absorbed span trees.
struct SpanAgg {
    name: String,
    duration_us: PowHistogram,
    counters: CounterSet,
}

impl SpanAgg {
    fn to_json(&self) -> Json {
        let mut row = self.duration_us.summary_json("us");
        if let Json::Obj(pairs) = &mut row {
            for (c, v) in self.counters.iter_nonzero() {
                pairs.push((c.name().to_string(), Json::Num(v as f64)));
            }
        }
        row
    }
}

struct Inner {
    /// Every declared slot in render order, with its `u64` value (unused
    /// for sections and extras).
    values: Vec<(&'static str, u64)>,
    endpoints: Vec<OpRecord>,
    spans: Vec<SpanAgg>,
    series: TimeSeries,
}

impl Inner {
    fn value_mut(&mut self, name: &str) -> Option<&mut u64> {
        let slot = self.values.iter_mut().find(|(n, _)| *n == name);
        debug_assert!(slot.is_some(), "metric {name:?} was never declared");
        slot.map(|(_, v)| v)
    }
}

/// Shared, thread-safe metrics of one daemon.
pub struct Registry {
    role: &'static str,
    start: Instant,
    inner: Mutex<Inner>,
}

impl Registry {
    /// An all-zero registry for a daemon of `role` whose `stats` lists
    /// the slots `layout` after `role`, `version`, `uptime_ms` and
    /// `requests` (see the module docs for what a slot can be).
    pub fn new(role: &'static str, layout: &[&'static str]) -> Self {
        Self {
            role,
            start: Instant::now(),
            inner: Mutex::new(Inner {
                values: layout.iter().map(|&name| (name, 0)).collect(),
                endpoints: Vec::new(),
                spans: Vec::new(),
                series: TimeSeries::new(),
            }),
        }
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `n` to the declared value `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(v) = self.inner().value_mut(name) {
            *v += n;
        }
    }

    /// Overwrite the declared value `name` (gauges synced from elsewhere).
    pub fn set(&self, name: &str, value: u64) {
        if let Some(v) = self.inner().value_mut(name) {
            *v = value;
        }
    }

    /// Record one served request on endpoint `op`.
    pub fn record_request(&self, op: &'static str, us: u64, ok: bool) {
        let mut inner = self.inner();
        let at = match inner.endpoints.iter().position(|r| r.op == op) {
            Some(at) => at,
            None => {
                inner.endpoints.push(OpRecord {
                    op,
                    errors: 0,
                    latency: PowHistogram::new(),
                });
                inner.endpoints.len() - 1
            }
        };
        let rec = &mut inner.endpoints[at];
        rec.errors += u64::from(!ok);
        rec.latency.record(us);
        inner.series.record_request(us, ok);
    }

    /// Update the live time-series (cache and hedge events).
    pub fn series(&self, update: impl FnOnce(&mut TimeSeries)) {
        update(&mut self.inner().series);
    }

    /// Fold a finished span tree into the per-name rollup: every span in
    /// the tree adds its duration and counters to its name's aggregate.
    pub fn absorb_span(&self, rec: &SpanRecord) {
        fn visit(rec: &SpanRecord, spans: &mut Vec<SpanAgg>) {
            let at = match spans.iter().position(|s| s.name == rec.name) {
                Some(at) => at,
                None => {
                    spans.push(SpanAgg {
                        name: rec.name.clone(),
                        duration_us: PowHistogram::new(),
                        counters: CounterSet::new(),
                    });
                    spans.len() - 1
                }
            };
            spans[at].duration_us.record(rec.elapsed_ns / 1_000);
            spans[at].counters.merge(&rec.counters);
            for child in &rec.children {
                visit(child, spans);
            }
        }
        visit(rec, &mut self.inner().spans);
    }

    /// The `stats` payload: `role`, `version`, `uptime_ms`, `requests`,
    /// then every declared slot in order. `extras` supplies the slots
    /// whose values the daemon renders itself.
    pub fn snapshot(&self, mut extras: Vec<(&'static str, Json)>) -> Json {
        let inner = self.inner();
        debug_assert!(
            extras
                .iter()
                .all(|(name, _)| inner.values.iter().any(|(n, _)| n == name)),
            "every extra must fill a declared slot"
        );
        let requests: u64 = inner.endpoints.iter().map(|r| r.latency.count()).sum();
        let mut pairs = vec![
            ("role".to_string(), Json::str(self.role)),
            ("version".to_string(), Json::str(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_ms".to_string(),
                Json::Num(self.start.elapsed().as_millis() as f64),
            ),
            ("requests".to_string(), Json::Num(requests as f64)),
        ];
        for &(name, value) in &inner.values {
            let json = if let Some(at) = extras.iter().position(|(n, _)| *n == name) {
                extras.swap_remove(at).1
            } else {
                match name {
                    "endpoints" => Json::Obj(
                        inner
                            .endpoints
                            .iter()
                            .map(|r| (r.op.to_string(), endpoint_row(r.errors, &r.latency)))
                            .collect(),
                    ),
                    "spans" => Json::Obj(
                        inner
                            .spans
                            .iter()
                            .map(|s| (s.name.clone(), s.to_json()))
                            .collect(),
                    ),
                    "series" => inner.series.to_json(),
                    _ => Json::Num(value as f64),
                }
            };
            insert(&mut pairs, name, json);
        }
        Json::Obj(pairs)
    }
}

/// Append `value` under the dotted `name`, joining a run of names with
/// the same head into one nested object.
fn insert(pairs: &mut Vec<(String, Json)>, name: &str, value: Json) {
    let Some((head, rest)) = name.split_once('.') else {
        pairs.push((name.to_string(), value));
        return;
    };
    if !matches!(pairs.last(), Some((k, Json::Obj(_))) if k == head) {
        pairs.push((head.to_string(), Json::Obj(Vec::new())));
    }
    if let Some((_, Json::Obj(inner))) = pairs.last_mut() {
        insert(inner, rest, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Counter;

    const LAYOUT: &[&str] = &[
        "connections",
        "durable",
        "cache.hits",
        "cache.misses",
        "cache.hit_rate",
        "endpoints",
        "spans",
        "series",
    ];

    fn registry() -> Registry {
        Registry::new("server", LAYOUT)
    }

    fn endpoint<'a>(snap: &'a Json, op: &str) -> &'a Json {
        snap.get("endpoints").and_then(|e| e.get(op)).unwrap()
    }

    #[test]
    fn layout_renders_in_declared_order_with_nested_dotted_names() {
        let m = registry();
        m.add("connections", 2);
        m.add("connections", 1);
        m.set("cache.hits", 3);
        m.set("cache.misses", 1);
        let snap = m.snapshot(vec![
            ("durable", Json::Bool(true)),
            ("cache.hit_rate", Json::Num(0.75)),
        ]);
        let Json::Obj(pairs) = &snap else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "role",
                "version",
                "uptime_ms",
                "requests",
                "connections",
                "durable",
                "cache",
                "endpoints",
                "spans",
                "series"
            ]
        );
        assert_eq!(snap.get("connections").and_then(Json::as_usize), Some(3));
        assert_eq!(snap.get("durable").and_then(Json::as_bool), Some(true));
        let cache = snap.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(3));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_num), Some(0.75));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never declared")]
    fn undeclared_names_fail_in_debug_builds() {
        registry().add("conections", 1);
    }

    #[test]
    fn histogram_quantiles_bracket_latencies() {
        let m = registry();
        for us in [10u64, 20, 30, 40, 1000] {
            m.record_request("solve", us, true);
        }
        m.record_request("ping", 1, true);
        let snap = m.snapshot(Vec::new());
        assert_eq!(snap.get("requests").unwrap().as_usize(), Some(6));
        let solve = endpoint(&snap, "solve");
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(5));
        let p50 = solve.get("p50_us").unwrap().as_num().unwrap();
        assert!((16.0..=64.0).contains(&p50), "p50 {p50}");
        let p99 = solve.get("p99_us").unwrap().as_num().unwrap();
        assert!(p99 >= 1000.0, "p99 {p99}");
    }

    #[test]
    fn empty_registry_reads_zero() {
        let snap = registry().snapshot(Vec::new());
        assert_eq!(snap.get("requests").unwrap().as_usize(), Some(0));
        assert_eq!(snap.get("connections").unwrap().as_usize(), Some(0));
        // No endpoint has been touched: the endpoints object is empty.
        assert_eq!(snap.get("endpoints").unwrap(), &Json::Obj(vec![]));
        assert_eq!(snap.get("spans").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn single_sample_sets_every_percentile() {
        let m = registry();
        m.record_request("ping", 10, true);
        let snap = m.snapshot(Vec::new());
        let ping = endpoint(&snap, "ping");
        // One sample in bucket [8, 16): every quantile reads the bucket's
        // upper bound, mean and max read the sample exactly.
        for q in ["p50_us", "p95_us", "p99_us"] {
            assert_eq!(ping.get(q).unwrap().as_usize(), Some(16), "{q}");
        }
        assert_eq!(ping.get("mean_us").unwrap().as_num(), Some(10.0));
        assert_eq!(ping.get("max_us").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn top_bucket_saturates_but_max_is_exact() {
        let m = registry();
        m.record_request("solve", u64::MAX, true);
        let snap = m.snapshot(Vec::new());
        let solve = endpoint(&snap, "solve");
        assert_eq!(
            solve.get("p50_us").unwrap().as_num(),
            Some((1u64 << (crate::hist::BUCKETS - 1)) as f64)
        );
        assert_eq!(solve.get("max_us").unwrap().as_num(), Some(u64::MAX as f64));
    }

    #[test]
    fn concurrent_records_account_max_and_total() {
        let m = registry();
        let threads = 8u64;
        let per_thread = 200u64;
        let latency = |t: u64, i: u64| {
            if t == 3 && i == 77 {
                9999
            } else {
                t * per_thread + i + 1
            }
        };
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Latencies 1..=1600, with the global max (9999)
                        // recorded by exactly one thread.
                        m.record_request("solve", latency(t, i), i % 10 == 0);
                        m.add("connections", 1);
                    }
                });
            }
        });
        let snap = m.snapshot(Vec::new());
        let solve = endpoint(&snap, "solve");
        let n = threads * per_thread;
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(n as usize));
        assert_eq!(
            snap.get("connections").unwrap().as_usize(),
            Some(n as usize)
        );
        assert_eq!(solve.get("max_us").unwrap().as_usize(), Some(9999));
        // Total (via mean·count) must equal the exact sum: no lost
        // updates under concurrency.
        let expected: u64 = (0..threads)
            .flat_map(|t| (0..per_thread).map(move |i| latency(t, i)))
            .sum();
        let mean = solve.get("mean_us").unwrap().as_num().unwrap();
        assert_eq!((mean * n as f64).round() as u64, expected);
        // Only every 10th request reported ok, so 9 in 10 are errors.
        let errors = solve.get("errors").unwrap().as_usize().unwrap();
        assert_eq!(errors, n as usize * 9 / 10);
    }

    #[test]
    fn snapshot_reports_identity_uptime_series_and_hist() {
        let m = Registry::new("router", &["hedges_fired", "endpoints", "series"]);
        m.record_request("solve", 10, false);
        m.add("hedges_fired", 1);
        m.series(|s| {
            s.record_cache(true);
            s.record_hedge(false);
            s.record_hedge_won();
        });
        let snap = m.snapshot(Vec::new());
        assert_eq!(snap.get("role").and_then(Json::as_str), Some("router"));
        assert_eq!(
            snap.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(snap.get("uptime_ms").and_then(Json::as_num).is_some());
        // No `spans` slot declared, so none rendered.
        assert!(snap.get("spans").is_none());
        let series = snap.get("series").unwrap();
        assert_eq!(series.get("window_s").and_then(Json::as_usize), Some(60));
        let buckets = series.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        for (key, n) in [
            ("requests", 1),
            ("errors", 1),
            ("cache_hits", 1),
            ("hedges_fired", 1),
            ("hedges_won", 1),
        ] {
            assert_eq!(
                buckets[0].get(key).and_then(Json::as_usize),
                Some(n),
                "{key}"
            );
        }
        // Endpoint rows count errors and carry the full histogram for
        // cluster merging.
        let solve = endpoint(&snap, "solve");
        assert_eq!(solve.get("errors").and_then(Json::as_usize), Some(1));
        let hist = PowHistogram::from_wire_json(solve.get("hist").unwrap()).unwrap();
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn endpoint_row_and_latency_json_share_one_shape() {
        let mut h = PowHistogram::new();
        h.record(100);
        h.record(3000);
        let row = endpoint_row(1, &h);
        let Json::Obj(pairs) = &row else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["count", "errors", "mean_us", "p50_us", "p95_us", "p99_us", "max_us", "hist"]
        );
        let mut latency = latency_json(&h);
        if let Json::Obj(pairs) = &mut latency {
            pairs.insert(1, ("errors".to_string(), Json::Num(1.0)));
        }
        assert_eq!(latency, row);
        assert_eq!(
            PowHistogram::from_wire_json(row.get("hist").unwrap()).unwrap(),
            h
        );
    }

    #[test]
    fn absorbed_spans_aggregate_by_name() {
        let m = registry();
        let mut worker = SpanRecord::new("erm.worker");
        worker.elapsed_ns = 2_000_000;
        worker.counters.add(Counter::EvaluatedParams, 50);
        let mut root = SpanRecord::new("server.solve");
        root.elapsed_ns = 5_000_000;
        root.children.push(worker.clone());
        root.children.push(worker);
        m.absorb_span(&root);
        m.absorb_span(&root);
        let snap = m.snapshot(Vec::new());
        let spans = snap.get("spans").unwrap();
        let solve = spans.get("server.solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_usize(), Some(2));
        // Zero counters are left out of the row.
        assert!(solve.get("evaluated_params").is_none());
        let worker = spans.get("erm.worker").unwrap();
        assert_eq!(worker.get("count").unwrap().as_usize(), Some(4));
        assert_eq!(
            worker.get("evaluated_params").unwrap().as_usize(),
            Some(200)
        );
        assert_eq!(worker.get("mean_us").unwrap().as_num(), Some(2000.0));
    }
}
