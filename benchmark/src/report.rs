//! Output: the result line of one workload run, the header that records
//! what was measured where, the `run` / `trace` modes that run every
//! workload in a child process of its own, and `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use folearn_cluster::RouterConfig;
use folearn_obs::Json;
use folearn_server::ServerConfig;

use crate::inputs::CLIENTS;
use crate::metrics::{self, Better, Manifest};
use crate::procfs;
use crate::stats;
use crate::workloads::{Outcome, Workload};

/// A number for the result line: JSON has no infinity, and a latency
/// percentile that landed on a failed request is one.
fn finite(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { f64::MAX })
}

/// The last line a workload run prints: exactly `correct`, `attempted`,
/// `failed` and `metrics` (each with its value and unit).
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = metrics::unit(name).expect("every reported metric is defined");
            (
                name.to_string(),
                Json::obj([("value", finite(*v)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.failed == 0 && o.checked > 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// What a result depends on besides the code: the commit, the host, the
/// filesystem under the output (and the durable data dir), the build
/// profile, the seed, and the daemon defaults in effect.
pub fn header(seed: u64, seconds: f64, out_dir: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let server = ServerConfig::default();
    let router = RouterConfig::default();
    let or_auto = |configured: usize, auto: usize| if configured == 0 { auto } else { configured };
    Json::obj([
        ("git_rev", Json::str(procfs::git_rev(Path::new(".")))),
        ("host_cores", Json::int(cores)),
        ("fs_type", Json::str(procfs::fs_type(out_dir))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("clients", Json::int(CLIENTS)),
        (
            "daemon_defaults",
            Json::obj([
                ("workers", Json::int(or_auto(server.workers, cores))),
                (
                    "event_loops",
                    Json::int(or_auto(server.event_loops, cores.min(4))),
                ),
                ("cache_capacity", Json::int(server.cache_capacity)),
                ("cache_shards", Json::int(server.cache_shards)),
                ("queue_depth", Json::int(server.queue_depth)),
                (
                    "max_inflight_per_conn",
                    Json::int(server.max_inflight_per_conn),
                ),
                ("trace", Json::Bool(server.trace)),
            ]),
        ),
        (
            "router_defaults",
            Json::obj([
                ("replicas", Json::int(router.replicas)),
                (
                    "hedge_delay_ms",
                    router
                        .hedge_delay
                        .map_or(Json::Null, |d| Json::int(d.as_millis() as usize)),
                ),
                (
                    "repair_interval_ms",
                    router
                        .repair_interval
                        .map_or(Json::Null, |d| Json::int(d.as_millis() as usize)),
                ),
            ]),
        ),
    ])
}

/// `run` / `trace`: every workload in a fresh child process (so peak
/// RSS and leftover threads cannot leak between workloads), every
/// metric printed by name with its unit, all results written to `out`
/// under one header. `Ok(false)` when any workload failed or answered
/// wrongly.
pub fn run_all(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    out: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(out_dir)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let parsed = Json::parse(last).ok().filter(|_| child.status.success());
        let Some(result) = parsed else {
            eprintln!("{}: no result (exit {})", w.name(), child.status);
            all_ok = false;
            // All its work failed; left out, `compare` could not see it.
            results.push((w.name().to_string(), crashed(w.planned(seconds))));
            continue;
        };
        all_ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            for (name, m) in ms {
                let value = m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{:<20} {name:<40} {value:>16.4} {unit}", w.name());
            }
        }
        results.push((w.name().to_string(), result));
    }
    let file = Json::obj([
        ("header", header(seed, seconds, out_dir)),
        ("workloads", Json::Obj(results)),
    ]);
    std::fs::write(out, file.render_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_ok)
}

/// The result of a workload whose process ended without one: every
/// unit of its planned work failed, and it measured nothing.
fn crashed(planned: usize) -> Json {
    Json::obj([
        ("correct", Json::Bool(false)),
        ("attempted", Json::int(planned)),
        ("failed", Json::int(planned)),
        ("metrics", Json::Obj(Vec::new())),
    ])
}

/// One side of a comparison: every run file's workload results.
fn load_runs(files: &[PathBuf]) -> Result<Vec<Json>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            let json = Json::parse(&text).map_err(|e| format!("{}: {}", f.display(), e.0))?;
            json.get("workloads")
                .cloned()
                .ok_or_else(|| format!("{}: not a run file (no `workloads`)", f.display()))
        })
        .collect()
}

/// The values of one (workload, metric) across runs.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_num()
        })
        .collect()
}

/// Failed ÷ attempted of one workload, over all runs of a side.
fn error_rate(runs: &[Json], workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(workload)?.get(key)?.as_num())
            .sum()
    };
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        0.0
    }
}

/// The verdict on one (workload, metric) pair: `B` against baseline `A`.
/// `missing` when B has no value (its workload crashed or never ran),
/// `unresolved` when only A lacks one.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let Some(mb) = stats::median(b) else {
        return "missing";
    };
    let Some(ma) = stats::median(a) else {
        return "unresolved";
    };
    let spread = |xs: &[f64]| stats::relative_spread(xs).unwrap_or(0.0);
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_wins_all = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let a_wins_all = a.iter().all(|&y| b.iter().all(|&x| beats(y, x)));
    if spread(a) > bound || spread(b) > bound {
        if b_wins_all {
            "better"
        } else if a_wins_all {
            "worse"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > bound {
        "better"
    } else {
        "unchanged"
    }
}

/// `compare A… -- B…`: medians, quartiles and a verdict for every
/// (workload, end-to-end metric). `Ok(false)` on any regression, any
/// metric B lacks, or any rise in the error rate.
pub fn compare(
    a_files: &[PathBuf],
    b_files: &[PathBuf],
    manifest: &Manifest,
) -> Result<bool, String> {
    let (a, b) = (load_runs(a_files)?, load_runs(b_files)?);
    let q = |xs: &[f64]| {
        let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        format!(
            "{:.4} [{q1:.4}, {q3:.4}]",
            stats::median(xs).unwrap_or(f64::NAN)
        )
    };
    println!(
        "{:<18} {:<16} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    let mut ok = true;
    for w in &manifest.workloads {
        for m in &manifest.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            let v = verdict(&va, &vb, m.better, bound);
            ok &= v != "worse" && v != "missing";
            println!(
                "{w:<18} {:<16} {:>34} {:>34} {bound:>7.3}  {v}",
                m.name,
                q(&va),
                q(&vb),
            );
        }
        let (ea, eb) = (error_rate(&a, w), error_rate(&b, w));
        let rose = eb > ea;
        ok &= !rose;
        println!(
            "{w:<18} {:<16} {ea:>34.6} {eb:>34.6} {:>7}  {}",
            "error_rate",
            "+0",
            if rose { "worse" } else { "unchanged" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_records_host_build_seed_and_daemon_defaults() {
        let h = header(42, 10.0, Path::new("."));
        for key in [
            "git_rev",
            "host_cores",
            "fs_type",
            "profile",
            "seed",
            "seconds",
            "clients",
        ] {
            assert!(h.get(key).is_some(), "header lacks {key}");
        }
        assert_eq!(h.get("seed").and_then(Json::as_usize), Some(42));
        assert!(h.get("host_cores").and_then(Json::as_usize).unwrap() >= 1);
        assert_ne!(h.get("fs_type").and_then(Json::as_str), Some("unknown"));
        let profile = h.get("profile").and_then(Json::as_str).unwrap();
        assert!(profile == "debug" || profile == "release");
        let d = h.get("daemon_defaults").unwrap();
        for key in ["workers", "event_loops", "cache_capacity"] {
            assert!(
                d.get(key).and_then(Json::as_usize).unwrap() >= 1,
                "daemon default {key}"
            );
        }
        assert_eq!(
            d.get("cache_capacity").and_then(Json::as_usize),
            Some(ServerConfig::default().cache_capacity)
        );
        assert!(h
            .get("router_defaults")
            .and_then(|r| r.get("replicas"))
            .is_some());
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&a, &[100.2, 100.8, 99.4, 100.1, 99.9], Better::Lower, 0.05),
            "unchanged"
        );
        assert_eq!(
            verdict(
                &a,
                &[110.0, 111.0, 109.0, 110.5, 109.5],
                Better::Lower,
                0.05
            ),
            "worse"
        );
        assert_eq!(
            verdict(
                &a,
                &[110.0, 111.0, 109.0, 110.5, 109.5],
                Better::Higher,
                0.05
            ),
            "better"
        );
        // Spread wider than the bound: unresolved unless one side wins
        // every pairing.
        let wide = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(verdict(&a, &wide, Better::Lower, 0.05), "unresolved");
        let wide_worse = [200.0, 300.0, 250.0, 400.0, 220.0];
        assert_eq!(verdict(&a, &wide_worse, Better::Lower, 0.05), "worse");
        // No value on B: its workload crashed or never ran.
        assert_eq!(verdict(&a, &[], Better::Lower, 0.05), "missing");
        assert_eq!(verdict(&[], &a, Better::Lower, 0.05), "unresolved");
    }

    /// A run file holding one workload `w` with one metric `m`.
    fn run_file(dir: &Path, name: &str, result: Json) -> PathBuf {
        let path = dir.join(name);
        let file = Json::obj([("workloads", Json::Obj(vec![("w".into(), result)]))]);
        std::fs::write(&path, file.render()).unwrap();
        path
    }

    fn measured(value: f64, attempted: usize, failed: usize) -> Json {
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::int(attempted)),
            ("failed", Json::int(failed)),
            (
                "metrics",
                Json::obj([(
                    "m",
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("s"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_fails_on_a_regression_a_crash_a_missing_metric_or_new_errors() {
        let dir = std::env::temp_dir().join(format!("benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let side = |tag: &str, results: Vec<Json>| -> Vec<PathBuf> {
            results
                .into_iter()
                .enumerate()
                .map(|(i, r)| run_file(&dir, &format!("{tag}{i}.json"), r))
                .collect()
        };
        let base = side(
            "a",
            (0..5)
                .map(|i| measured(1.0 + 0.001 * i as f64, 100, 0))
                .collect(),
        );
        let judge = |tag: &str, results: Vec<Json>| compare(&base, &side(tag, results), &manifest);

        let same = (0..5)
            .map(|i| measured(1.0 - 0.001 * i as f64, 100, 0))
            .collect();
        assert_eq!(judge("same", same), Ok(true));
        let slower = (0..5).map(|_| measured(1.5, 100, 0)).collect();
        assert_eq!(judge("slower", slower), Ok(false));
        // One crashed run: its workload entry is all failures and no
        // metrics. The error rate rises even though the medians hold.
        let mut crash: Vec<Json> = (0..4).map(|_| measured(1.0, 100, 0)).collect();
        crash.push(crashed(100));
        assert_eq!(judge("crash", crash), Ok(false));
        // Every run crashed: no values at all on B.
        assert_eq!(
            judge("gone", (0..5).map(|_| crashed(100)).collect()),
            Ok(false)
        );
        // Requests the wall-clock guard kept from starting count as failed.
        let cut = (0..5).map(|_| measured(1.0, 100, 3)).collect();
        assert_eq!(judge("cut", cut), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_no_infinity() {
        let o = Outcome {
            attempted: 10,
            failed: 1,
            checked: 9,
            metrics: vec![("latency_p99_us", f64::INFINITY), ("setup_s", 0.5)],
            report: String::new(),
        };
        let line = Json::parse(&result_line(&o)).unwrap();
        let Json::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        let p99 = line
            .get("metrics")
            .and_then(|m| m.get("latency_p99_us"))
            .unwrap();
        assert!(p99.get("value").and_then(Json::as_num).unwrap().is_finite());
        assert_eq!(p99.get("unit").and_then(Json::as_str), Some("us"));
    }
}
