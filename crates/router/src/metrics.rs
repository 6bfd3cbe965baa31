//! The router's cluster fan-in: merge every backend's `stats` snapshot
//! into the `cluster` object of the router's own `stats`.
//!
//! The router's own metrics live in a [`folearn_obs::Registry`] (see
//! `router.rs`); endpoint rows here are rendered by the same
//! [`endpoint_row`] as every daemon's.

use folearn_obs::{endpoint_row, PowHistogram};
use folearn_server::proto::Json;

/// One backend's contribution to the cluster stats fan-in: its health
/// state as the router sees it, and either its `stats` snapshot or the
/// error that kept it from reporting.
pub struct NodeStats {
    pub addr: String,
    pub live: bool,
    pub ejections: u64,
    pub consecutive_failures: u32,
    pub stats: Result<Json, String>,
}

fn num_at(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_num().unwrap_or(0.0)
}

/// Merge backend `stats` snapshots into the cluster-wide view the
/// router serves under the `cluster` key: counters summed across
/// reporting backends, endpoint latency histograms merged bucket-wise
/// (via the full-resolution `hist` wire form each backend attaches),
/// and one row per node with its health/ejection state and identity.
pub fn aggregate_cluster(nodes: &[NodeStats]) -> Json {
    let reporting: Vec<&NodeStats> = nodes.iter().filter(|n| n.stats.is_ok()).collect();
    let sum = |path: &[&str]| -> f64 {
        reporting
            .iter()
            .map(|n| num_at(n.stats.as_ref().expect("filtered Ok"), path))
            .sum()
    };
    let cache_hits = sum(&["cache", "hits"]);
    let cache_misses = sum(&["cache", "misses"]);
    let lookups = cache_hits + cache_misses;
    let hit_rate = if lookups == 0.0 {
        0.0
    } else {
        cache_hits / lookups
    };

    // Merge per-endpoint histograms bucket-wise. Ops without a `hist`
    // key (older backends) are skipped rather than mis-averaged.
    let mut endpoints: Vec<(String, u64, PowHistogram)> = Vec::new();
    for n in &reporting {
        let snap = n.stats.as_ref().expect("filtered Ok");
        let Some(Json::Obj(ops)) = snap.get("endpoints") else {
            continue;
        };
        for (op, rec) in ops {
            let Some(hist) = rec.get("hist").and_then(|h| PowHistogram::from_wire_json(h).ok())
            else {
                continue;
            };
            let errors = num_at(rec, &["errors"]) as u64;
            match endpoints.iter_mut().find(|(name, _, _)| name == op) {
                Some((_, e, h)) => {
                    *e += errors;
                    h.merge(&hist);
                }
                None => endpoints.push((op.clone(), errors, hist)),
            }
        }
    }

    let node_rows: Vec<Json> = nodes
        .iter()
        .map(|n| {
            let mut pairs = vec![
                ("addr".to_string(), Json::str(n.addr.clone())),
                ("live".to_string(), Json::Bool(n.live)),
                ("ejections".to_string(), Json::Num(n.ejections as f64)),
                (
                    "consecutive_failures".to_string(),
                    Json::Num(f64::from(n.consecutive_failures)),
                ),
            ];
            match &n.stats {
                Ok(snap) => {
                    // `durable` rides along verbatim so `folearn top`
                    // can tell a WAL-backed node from a volatile one.
                    for key in ["role", "version", "durable"] {
                        if let Some(v) = snap.get(key) {
                            pairs.push((key.to_string(), v.clone()));
                        }
                    }
                    for key in [
                        "uptime_ms",
                        "requests",
                        "worker_panics",
                        "wal_records_replayed",
                        "snapshot_loads",
                        "torn_tail_truncations",
                        "recovery_ms",
                    ] {
                        pairs.push((key.to_string(), Json::Num(num_at(snap, &[key]))));
                    }
                    pairs.push((
                        "cache_hits".to_string(),
                        Json::Num(num_at(snap, &["cache", "hits"])),
                    ));
                }
                Err(e) => pairs.push(("error".to_string(), Json::str(e.clone()))),
            }
            Json::Obj(pairs)
        })
        .collect();

    Json::obj([
        ("backends_total", Json::int(nodes.len())),
        (
            "backends_live",
            Json::int(nodes.iter().filter(|n| n.live).count()),
        ),
        ("backends_reporting", Json::int(reporting.len())),
        ("requests", Json::Num(sum(&["requests"]))),
        ("connections", Json::Num(sum(&["connections"]))),
        ("structures", Json::Num(sum(&["structures"]))),
        ("hypotheses", Json::Num(sum(&["hypotheses"]))),
        ("worker_panics", Json::Num(sum(&["worker_panics"]))),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache_hits)),
                ("misses", Json::Num(cache_misses)),
                ("evictions", Json::Num(sum(&["cache", "evictions"]))),
                ("entries", Json::Num(sum(&["cache", "entries"]))),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ),
        (
            "solver",
            Json::obj([
                (
                    "evaluated_params",
                    Json::Num(sum(&["solver", "evaluated_params"])),
                ),
                (
                    "pruned_params",
                    Json::Num(sum(&["solver", "pruned_params"])),
                ),
            ]),
        ),
        (
            "endpoints",
            Json::Obj(
                endpoints
                    .iter()
                    .map(|(op, errors, hist)| (op.clone(), endpoint_row(*errors, hist)))
                    .collect(),
            ),
        ),
        ("nodes", Json::Arr(node_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake backend snapshot with just the fields aggregation reads.
    fn backend_snap(requests: f64, hits: f64, misses: f64, solve_us: &[u64]) -> Json {
        let mut hist = PowHistogram::new();
        for &us in solve_us {
            hist.record(us);
        }
        Json::obj([
            ("role", Json::str("server")),
            ("version", Json::str("0.1.0")),
            ("uptime_ms", Json::Num(1234.0)),
            ("requests", Json::Num(requests)),
            ("connections", Json::Num(2.0)),
            ("structures", Json::Num(1.0)),
            ("hypotheses", Json::Num(1.0)),
            ("worker_panics", Json::Num(0.0)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(hits)),
                    ("misses", Json::Num(misses)),
                    ("evictions", Json::Num(0.0)),
                    ("entries", Json::Num(misses)),
                ]),
            ),
            (
                "solver",
                Json::obj([
                    ("evaluated_params", Json::Num(10.0)),
                    ("pruned_params", Json::Num(5.0)),
                ]),
            ),
            (
                "endpoints",
                Json::obj([(
                    "solve",
                    Json::obj([
                        ("count", Json::Num(solve_us.len() as f64)),
                        ("errors", Json::Num(1.0)),
                        ("hist", hist.to_wire_json()),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn aggregation_sums_counters_and_merges_histograms_bucket_wise() {
        let nodes = vec![
            NodeStats {
                addr: "127.0.0.1:1".to_string(),
                live: true,
                ejections: 0,
                consecutive_failures: 0,
                stats: Ok(backend_snap(10.0, 4.0, 6.0, &[10, 20, 30])),
            },
            NodeStats {
                addr: "127.0.0.1:2".to_string(),
                live: true,
                ejections: 1,
                consecutive_failures: 0,
                stats: Ok(backend_snap(5.0, 2.0, 2.0, &[5000, 6000])),
            },
            NodeStats {
                addr: "127.0.0.1:3".to_string(),
                live: false,
                ejections: 2,
                consecutive_failures: 7,
                stats: Err("connect refused".to_string()),
            },
        ];
        let agg = aggregate_cluster(&nodes);
        assert_eq!(agg.get("backends_total").and_then(Json::as_usize), Some(3));
        assert_eq!(agg.get("backends_live").and_then(Json::as_usize), Some(2));
        assert_eq!(
            agg.get("backends_reporting").and_then(Json::as_usize),
            Some(2)
        );
        assert_eq!(agg.get("requests").and_then(Json::as_usize), Some(15));
        let cache = agg.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(6));
        assert_eq!(cache.get("misses").and_then(Json::as_usize), Some(8));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_num), Some(6.0 / 14.0));
        // The merged solve histogram holds all five samples, and its
        // quantiles see both nodes' latency regimes.
        let solve = agg.get("endpoints").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").and_then(Json::as_usize), Some(5));
        assert_eq!(solve.get("errors").and_then(Json::as_usize), Some(2));
        let merged = PowHistogram::from_wire_json(solve.get("hist").unwrap()).unwrap();
        assert_eq!(merged.count(), 5);
        assert!(merged.quantile(0.99) >= 6000);
        assert!(merged.quantile(0.20) <= 64);
        // Node rows: identity for reporters, the error for the dead one.
        let rows = agg.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("role").and_then(Json::as_str), Some("server"));
        assert_eq!(rows[0].get("uptime_ms").and_then(Json::as_num), Some(1234.0));
        // Recovery counters default to zero for backends that predate
        // them (absent key → 0, never a hole in the row).
        assert_eq!(
            rows[0].get("wal_records_replayed").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(
            rows[0].get("torn_tail_truncations").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(rows[1].get("ejections").and_then(Json::as_usize), Some(1));
        assert_eq!(
            rows[2].get("error").and_then(Json::as_str),
            Some("connect refused")
        );
        assert_eq!(
            rows[2].get("consecutive_failures").and_then(Json::as_usize),
            Some(7)
        );
    }

    #[test]
    fn aggregation_over_no_reporting_backends_reads_zero() {
        let agg = aggregate_cluster(&[NodeStats {
            addr: "127.0.0.1:1".to_string(),
            live: false,
            ejections: 0,
            consecutive_failures: 3,
            stats: Err("down".to_string()),
        }]);
        assert_eq!(agg.get("backends_reporting").and_then(Json::as_usize), Some(0));
        assert_eq!(agg.get("requests").and_then(Json::as_usize), Some(0));
        assert_eq!(
            agg.get("cache").unwrap().get("hit_rate").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(agg.get("endpoints").unwrap(), &Json::Obj(vec![]));
    }
}
