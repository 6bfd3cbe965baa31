//! The four workloads, and the run that measures one of them.
//!
//! Every run has the same shape: generate the seeded inputs and the
//! in-process reference answers (untimed); set up (timed: daemon start,
//! registers, warm-up); drive the fixed request count from two client
//! threads (timed); check every answer; in traced runs, measure the
//! layers; then set up eight more times so `setup_s` is a median.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use folearn_graph::{io, Graph};
use folearn_hardness::oracle::{BruteForceOracle, ErmOracle, OracleAnswer, RemoteOracle};
use folearn_hardness::reduction::{model_check_via_erm, ReductionReport};
use folearn_logic::{eval, Formula};
use folearn_server::snapshot::DurableRecord;
use folearn_server::{ClientApi, Request, Response, SolveOutcome, SolverSpec, WireExample};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::daemons::{control, reference_solve, register, start_router, Daemons, Reference};
use crate::inputs::{self, Op, Question, CLIENTS, TUPLESETS_PER_CLIENT};
use crate::layers::{self, SolveCase, StatsView};
use crate::load::{self, ClientLog, Phase, PhaseStats, Verdict};
use crate::spans::{self, SpanRec};
use crate::{metrics, procfs, stats};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Pipeline window of each `durable_mixed` client.
const WINDOW: usize = 8;
/// Reduction reports per client cross-checked against an in-process
/// `BruteForceOracle` run.
const REPORTS_CHECKED: usize = 2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hot strict request/reply against one daemon.
    HotRr,
    /// Distinct, compute-bound solves against one daemon.
    ColdLearn,
    /// The Lemma 7 reduction through a three-backend cluster.
    ReductionCluster,
    /// Pipelined writes and reads against one durable daemon.
    DurableMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotRr,
        Workload::ColdLearn,
        Workload::ReductionCluster,
        Workload::DurableMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRr => "hot_rr",
            Workload::ColdLearn => "cold_learn",
            Workload::ReductionCluster => "reduction_cluster",
            Workload::DurableMixed => "durable_mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units of work per second of `--seconds`, summed over both
    /// clients: requests, or ERM-oracle calls on `reduction_cluster`. A
    /// run's work is this times `--seconds`, fixed, so two commits given
    /// the same arguments do the same work; the figures were sized so a
    /// run of the commit that introduced the benchmark lasts about
    /// `--seconds` on a 2-core host.
    fn per_second(self) -> f64 {
        match self {
            Workload::HotRr => 5000.0,
            Workload::ColdLearn => 70.0,
            Workload::ReductionCluster => 2400.0,
            Workload::DurableMixed => 2250.0,
        }
    }

    /// Work items per client for a run of `seconds`.
    fn per_client(self, seconds: f64) -> usize {
        ((self.per_second() * seconds / CLIENTS as f64).round() as usize).max(4)
    }

    /// Work items of a run of `seconds`, over both clients.
    pub fn planned(self, seconds: f64) -> usize {
        self.per_client(seconds) * CLIENTS
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Nominal run length; sets the fixed amount of work.
    pub seconds: f64,
    /// Record spans and measure the layers instead of the end-to-end
    /// metrics.
    pub trace: bool,
    /// Where spans, data dirs and replay files go.
    pub out_dir: PathBuf,
}

/// What a run found.
pub struct Outcome {
    /// Requests attempted in the timed phase.
    pub attempted: u64,
    /// Requests that failed: transport, server error, wrong answer, or
    /// an acknowledged write lost across the restart.
    pub failed: u64,
    /// Answers compared against a reference and found equal.
    pub checked: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: the summary and, traced, the attribution
    /// table.
    pub report: String,
}

/// Run one workload.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    match opts.workload {
        Workload::HotRr => execute(&Hot::new(opts), opts),
        Workload::ColdLearn => execute(&Cold::new(opts), opts),
        Workload::ReductionCluster => execute(&Reduction::new(opts), opts),
        Workload::DurableMixed => execute(&Durable::new(opts), opts),
    }
}

/// Observations a workload's checks can use.
pub struct PhaseInfo<'a> {
    /// `stats` before and after the timed phase (traced runs).
    pub stats: Option<(&'a StatsView, &'a StatsView)>,
    /// Process-level counters of the timed phase.
    pub process: &'a PhaseStats,
}

/// What the post-run checks found.
#[derive(Default)]
pub struct Verified {
    /// Answers compared and equal.
    pub checked: u64,
    /// Failures (each counts as a failed request).
    pub failures: Vec<String>,
    /// Workload-specific layer metrics.
    pub layers: Vec<(&'static str, f64)>,
}

/// The inputs the layer replays run on.
pub struct Replays {
    /// Requests for the encode replay.
    pub requests: Vec<Request>,
    /// Reply lines for the decode replay; empty means the kept replies
    /// of the traced slices.
    pub replies: Vec<String>,
    /// Structures (owned copies).
    pub graphs: Vec<Graph>,
    /// Rank of the type replay: the largest `q` the workload solves at.
    pub type_rank: usize,
    /// Solves for the learner replay.
    pub solves: Vec<SolveCase>,
    /// Sentences for the logic replay: `(graph index, sentence)`.
    pub sentences: Vec<(usize, Formula)>,
    /// Structure keys for the ring replay.
    pub keys: Vec<u64>,
    /// Durable records for the WAL, snapshot and recovery replays.
    pub mutations: Vec<DurableRecord>,
    /// The router-hop probe: structure text and a cache-hot solve.
    pub probe: (String, Request),
}

/// One workload's moving parts.
trait Bench: Sync {
    /// State set-up leaves for the timed phase.
    type Session: Sync;
    /// Start the daemons and bring them to the timed phase's start
    /// state. `dir` is a fresh directory for this set-up.
    fn setup(&self, dir: &Path) -> Result<(Daemons, Self::Session), String>;
    /// One client's load.
    fn drive(&self, d: &Daemons, s: &Self::Session, c: usize, phase: &Phase, log: &mut ClientLog);
    /// Checks beyond the per-reply ones; may restart the daemons.
    fn verify(
        &self,
        d: &mut Daemons,
        s: &Self::Session,
        info: &PhaseInfo<'_>,
    ) -> Result<Verified, String>;
    /// Inputs for the layer replays.
    fn replays(&self, d: &Daemons, s: &Self::Session) -> Result<Replays, String>;
}

/// Wall-clock guard on the timed phase: three times the nominal length
/// (at least 2 s), at most 150 s, so even a badly regressed commit ends
/// its run within minutes.
fn budget(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * seconds).clamp(2.0, 150.0))
}

fn execute<B: Bench>(bench: &B, opts: &RunOptions) -> Result<Outcome, String> {
    let scratch = opts
        .out_dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(bench, opts, &scratch);
    // Data dirs and replay files are scratch; spans live in `out_dir`.
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure<B: Bench>(bench: &B, opts: &RunOptions, scratch: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let t = Instant::now();
    let (mut daemons, session) = bench.setup(&scratch.join("setup-0"))?;
    setups.push(t.elapsed().as_secs_f64());

    let before = if opts.trace {
        Some(layers::snapshot(&daemons)?)
    } else {
        None
    };
    let (logs, process) = load::run_phase(opts.trace, budget(opts.seconds), |c, phase, log| {
        bench.drive(&daemons, &session, c, phase, log)
    });
    let peak_rss_mb = procfs::peak_rss_mb();

    let samples: Vec<f64> = logs.iter().flat_map(|l| l.lat_us.iter().copied()).collect();
    let attempted = samples.len() as u64;
    let ok: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let client_mean = stats::mean(&ok).unwrap_or(0.0);

    let mut layer_values: Vec<(&'static str, f64)> = Vec::new();
    let mut attribution: Vec<(&'static str, f64)> = Vec::new();
    let after = if let Some(before) = &before {
        let after = layers::snapshot(&daemons)?;
        layer_values.extend(front_door(
            &daemons,
            before,
            &after,
            &process,
            &logs,
            client_mean,
            attempted,
        )?);
        Some(after)
    } else {
        None
    };

    let info = PhaseInfo {
        stats: before.as_ref().zip(after.as_ref()),
        process: &process,
    };
    let checks_from = Instant::now();
    let mut verified = bench.verify(&mut daemons, &session, &info)?;
    layer_values.append(&mut verified.layers);
    let checks_s = checks_from.elapsed().as_secs_f64();

    let layers_from = Instant::now();
    if let (Some(before), Some(after)) = (&before, &after) {
        let replays = bench.replays(&daemons, &session)?;
        layer_values.extend(router_probe(&daemons, &replays.probe)?);
        let replay_values = replay(&replays, &logs, scratch, &layer_values)?;
        attribution = attribution_rows(
            before,
            after,
            attempted,
            &replay_values,
            &layer_values,
            &daemons,
        );
        layer_values.extend(replay_values);
    }
    daemons.shutdown();
    let layers_s = layers_from.elapsed().as_secs_f64();

    let setups_from = Instant::now();
    for i in 1..SETUPS {
        let t = Instant::now();
        let (d, _) = bench.setup(&scratch.join(format!("setup-{i}")))?;
        setups.push(t.elapsed().as_secs_f64());
        d.shutdown();
    }
    let setups_s = setups_from.elapsed().as_secs_f64();

    let failed = logs.iter().map(|l| l.failed).sum::<u64>() + verified.failures.len() as u64;
    let checked = logs.iter().map(|l| l.checked).sum::<u64>() + verified.checked;
    let mut report = format!(
        "{}: {} requests in {:.2} s, {} failed, {} answers checked\n",
        opts.workload.name(),
        attempted,
        process.wall_s,
        failed,
        checked
    );
    report.push_str(&format!(
        "run phases (s): set-up {:.3}, timed {:.2}, checks {:.2}, layers and teardown {:.2}, {} more set-ups with teardown {:.2}\n",
        setups[0],
        process.wall_s,
        checks_s,
        layers_s,
        SETUPS - 1,
        setups_s
    ));
    for e in logs
        .iter()
        .flat_map(|l| l.errors.iter())
        .chain(&verified.failures)
        .take(10)
    {
        report.push_str(&format!("  failure: {e}\n"));
    }

    let metrics = if opts.trace {
        let spans_path = opts
            .out_dir
            .join(format!("{}.spans.jsonl", opts.workload.name()));
        spans::write_jsonl(&spans_path, logs.iter().flat_map(|l| l.spans.spans.iter()))
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        report.push_str(&format!("spans: {}\n", spans_path.display()));
        report.push_str(&client_stages(&logs));
        let traced = logs.iter().map(|l| l.done[1] as usize).sum();
        report.push_str(&spans::attribution_table(
            opts.workload.name(),
            client_mean,
            traced,
            &attribution,
        ));
        layer_values.push((
            "obs.trace_overhead_pct",
            trace_overhead_pct(&logs, process.wall_s),
        ));
        // A layer this workload never reaches reads 0.
        metrics::in_declared_order(&metrics::declared().per_layer, &layer_values, Some(0.0))?
    } else {
        let done: u64 = logs.iter().map(|l| l.done[0]).sum();
        let values = [
            ("throughput_rps", done as f64 / process.wall_s),
            (
                "latency_p50_us",
                stats::nearest_rank(&samples, 50.0).unwrap_or(f64::INFINITY),
            ),
            (
                "latency_p99_us",
                stats::nearest_rank(&samples, 99.0).unwrap_or(f64::INFINITY),
            ),
            ("setup_s", stats::median(&setups).expect("SETUPS > 0")),
            ("peak_rss_mb", peak_rss_mb),
        ];
        metrics::in_declared_order(&metrics::declared().end_to_end, &values, None)?
    };
    Ok(Outcome {
        attempted,
        failed,
        checked,
        metrics,
        report,
    })
}

/// Layer metrics observed at the front door right after the timed phase.
fn front_door(
    d: &Daemons,
    before: &StatsView,
    after: &StatsView,
    process: &PhaseStats,
    logs: &[ClientLog],
    client_mean: f64,
    attempted: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let hits = layers::backend_delta(before, after, &["cache", "hits"]);
    let misses = layers::backend_delta(before, after, &["cache", "misses"]);
    let front = layers::front_mean(before, after);
    let (solve_sum, solves) = logs.iter().fold((0.0, 0u64), |(s, n), l| {
        (s + l.solve_us.0, n + l.solve_us.1)
    });
    let (bytes, replies) = logs.iter().fold((0u64, 0u64), |(b, n), l| {
        (b + l.reply_bytes.0, n + l.reply_bytes.1)
    });
    let local_ns: u64 = logs
        .iter()
        .map(|l| l.wall_ns.saturating_sub(l.busy_ns))
        .sum();
    let per_req = |x: f64| {
        if attempted > 0 {
            x / attempted as f64
        } else {
            0.0
        }
    };
    let idle = layers::idle_cpu_pct(Duration::from_secs(1));
    let (ping_p50, ping_mean) = layers::ping_us(d.front(), 200)?;
    let mut out = vec![
        ("event_loop.wire_wait_mean_us", client_mean - front),
        ("event_loop.idle_cpu_pct", idle),
        ("event_loop.ping_p50_us", ping_p50),
        (ATTR_PING_MEAN, ping_mean),
        (
            "process.cpu_us_per_req",
            per_req(process.cpu_ns as f64 / 1e3),
        ),
        ("process.threads_peak", process.threads_peak as f64),
        (
            "cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "cache.evictions",
            layers::backend_delta(before, after, &["cache", "evictions"]),
        ),
        ("server.request_mean_us", front),
        (
            "server.solve_mean_us",
            layers::backend_solve_mean(before, after),
        ),
        (
            "client.solve_mean_us",
            if solves > 0 {
                solve_sum / solves as f64
            } else {
                0.0
            },
        ),
        ("client.local_us_per_req", per_req(local_ns as f64 / 1e3)),
    ];
    if replies > 0 {
        out.push(("proto.reply_bytes_mean", bytes as f64 / replies as f64));
    }
    if d.router.is_some() {
        out.extend(layers::router_layer(&before.front, &after.front));
    }
    Ok(out)
}

/// Means the attribution table needs where the reported metric is a
/// median: kept among the layer values under names starting with
/// [`metrics::INTERNAL`], never reported.
const ATTR_PING_MEAN: &str = "attribution.ping_mean_us";
const ATTR_WAL_MEAN: &str = "attribution.wal_append_mean_us";

/// The replays of every layer's public function on the workload's
/// inputs.
fn replay(
    r: &Replays,
    logs: &[ClientLog],
    scratch: &Path,
    measured: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64)>, String> {
    let kept: Vec<String> = if r.replies.is_empty() {
        logs.iter()
            .flat_map(|l| l.kept_replies.iter().cloned())
            .collect()
    } else {
        r.replies.clone()
    };
    let outcomes: Vec<SolveOutcome> = kept
        .iter()
        .filter_map(|l| match Response::decode(l) {
            Ok(Response::Solved(o)) => Some(o),
            _ => None,
        })
        .collect();
    let replay_dir = scratch.join("replay");
    std::fs::create_dir_all(&replay_dir).map_err(|e| format!("{}: {e}", replay_dir.display()))?;

    let (wal_p50, wal_mean) = layers::wal_append_us(&replay_dir, &r.mutations)?;
    let mut out = vec![
        ("proto.encode_us", layers::encode_us(&r.requests)),
        ("proto.decode_us", layers::decode_us(&kept)),
        ("cache.get_us", layers::cache_get_us(&outcomes)),
        ("types.tp_mean_us", layers::types_us(&r.graphs, r.type_rank)),
        (
            "logic.modelcheck_mean_us",
            layers::modelcheck_us(&r.graphs, &r.sentences),
        ),
        ("ring.lookup_us", layers::ring_lookup_us(&r.keys)),
        ("wal.append_p50_us", wal_p50),
        (ATTR_WAL_MEAN, wal_mean),
        (
            "snapshot.append_max_us",
            layers::snapshot_append_max_us(&replay_dir.join("data"), &r.mutations)?,
        ),
    ];
    if !measured.iter().any(|(n, _)| *n == "proto.reply_bytes_mean") && !kept.is_empty() {
        let bytes: usize = kept.iter().map(|l| l.len() + 1).sum();
        out.push(("proto.reply_bytes_mean", bytes as f64 / kept.len() as f64));
    }
    if !measured.iter().any(|(n, _)| *n == "recovery.ms") {
        let (ms, replayed, server) = layers::recover(&replay_dir.join("data"))?;
        server.shutdown();
        out.push(("recovery.ms", ms));
        out.push(("recovery.records_replayed", replayed));
    }
    out.extend(layers::learner(&r.graphs, &r.solves));
    Ok(out)
}

/// The router hop: through the workload's own router, or through a
/// default router started over its daemon for the probe alone (whose
/// counters then stand in for the router's).
fn router_probe(
    d: &Daemons,
    probe: &(String, Request),
) -> Result<Vec<(&'static str, f64)>, String> {
    let rounds = 200;
    if let Some(router) = &d.router {
        return Ok(vec![(
            "router.hop_mean_us",
            layers::router_hop_us(router.addr(), &probe.0, &probe.1, rounds)?,
        )]);
    }
    let router = start_router(d.backends())?;
    let stats = |addr| {
        control(addr)?
            .stats()
            .map_err(|e| format!("router stats: {e}"))
    };
    let before = stats(router.addr())?;
    let hop = layers::router_hop_us(router.addr(), &probe.0, &probe.1, rounds);
    let after = stats(router.addr());
    router.shutdown();
    let mut out = vec![("router.hop_mean_us", hop?)];
    out.extend(layers::router_layer(&before, &after?));
    Ok(out)
}

/// The "where the time goes" rows: each replayed layer mean times how
/// often a request of this workload reaches that layer.
fn attribution_rows(
    before: &StatsView,
    after: &StatsView,
    attempted: u64,
    replayed: &[(&'static str, f64)],
    measured: &[(&'static str, f64)],
    d: &Daemons,
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        replayed
            .iter()
            .chain(measured)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let per_req = |x: f64| {
        if attempted > 0 {
            x / attempted as f64
        } else {
            0.0
        }
    };
    let hits = per_req(layers::backend_delta(before, after, &["cache", "hits"]));
    let misses = per_req(layers::backend_delta(before, after, &["cache", "misses"]));
    let checks = per_req(layers::delta(
        &before.front,
        &after.front,
        &["endpoints", "modelcheck", "count"],
    ));
    let writes = per_req(layers::backend_delta(
        before,
        after,
        &["wal_records_written"],
    ));
    let routed = if d.router.is_some() { 1.0 } else { 0.0 };
    vec![
        ("proto.encode (replay)", get("proto.encode_us")),
        ("proto.decode (replay)", get("proto.decode_us")),
        ("event_loop round trip (ping)", get(ATTR_PING_MEAN)),
        (
            "router.hop x routed share",
            routed * get("router.hop_mean_us"),
        ),
        ("cache.get x hits per request", hits * get("cache.get_us")),
        (
            "learner.solve x misses per request",
            misses * get("learner.solve_mean_us"),
        ),
        (
            "logic.modelcheck x checks per request",
            checks * get("logic.modelcheck_mean_us"),
        ),
        (
            "wal.append x WAL records per request",
            writes * get(ATTR_WAL_MEAN),
        ),
    ]
}

/// Mean client-side stage times of the traced requests.
fn client_stages(logs: &[ClientLog]) -> String {
    let spans: Vec<&SpanRec> = logs.iter().flat_map(|l| l.spans.spans.iter()).collect();
    let means = spans::mean_by_name(spans.into_iter());
    let mut names: Vec<&String> = means.keys().filter(|n| !n.starts_with("daemon:")).collect();
    names.sort();
    let mut out = String::from("client spans (mean us, count):");
    for n in names {
        let (mean, count) = means[n];
        out.push_str(&format!(" {n}={mean:.2} ({count})"));
    }
    out.push('\n');
    out
}

/// Throughput lost to tracing: requests completed per second in traced
/// slices against untraced slices of the same run, as a percentage.
fn trace_overhead_pct(logs: &[ClientLog], wall_s: f64) -> f64 {
    let slice = 0.5;
    let full = (wall_s / slice).floor();
    let rest = wall_s - full * slice;
    let untraced_s = slice * (full / 2.0).ceil() + if full as u64 % 2 == 0 { rest } else { 0.0 };
    let traced_s = wall_s - untraced_s;
    let (u, t): (u64, u64) = logs
        .iter()
        .fold((0, 0), |(u, t), l| (u + l.done[0], t + l.done[1]));
    if u == 0 || t == 0 || traced_s <= 0.0 {
        return 0.0;
    }
    100.0 * (1.0 - (t as f64 / traced_s) / (u as f64 / untraced_s))
}

/// The first `n` requests of client 0, for the encode replay.
fn head(schedule: &[Request], n: usize) -> Vec<Request> {
    schedule.iter().take(n).cloned().collect()
}

/// Schedules, one lock per client: set-up binds them in place and each
/// client thread holds its own for the timed phase, so the run keeps
/// one copy of its requests.
fn locked(schedules: Vec<Vec<Request>>) -> Vec<Mutex<Vec<Request>>> {
    schedules.into_iter().map(Mutex::new).collect()
}

/// Solve every warm sample on the daemon, check each answer against the
/// in-process reference, and bind the schedules' evaluate slots to the
/// ids the daemon assigned. Returns the warm answers and any mismatches.
fn warm_up(
    client: &mut folearn_server::Client,
    structure: u64,
    samples: &[Vec<WireExample>],
    refs: &[Reference],
    schedules: &[Mutex<Vec<Request>>],
    plans: &[Vec<Op>],
) -> Result<(Vec<SolveOutcome>, Vec<String>), String> {
    let mut warm = Vec::with_capacity(samples.len());
    let mut mismatches = Vec::new();
    for (slot, sample) in samples.iter().enumerate() {
        let o = client
            .solve(
                structure,
                sample.clone(),
                1,
                1,
                0.0,
                SolverSpec::default_brute(),
            )
            .map_err(|e| format!("warm-up solve: {e}"))?;
        if let Err(why) = refs[slot].matches(&o) {
            mismatches.push(format!("warm-up slot {slot}: {why}"));
        }
        warm.push(o);
    }
    let ids: Vec<u64> = warm.iter().map(|o| o.hypothesis.id).collect();
    for (schedule, plan) in schedules.iter().zip(plans) {
        inputs::bind_hypotheses(&mut schedule.lock(), plan, &ids);
    }
    Ok((warm, mismatches))
}

/// A cache-hot solve must replay the warm-up answer bit for bit.
fn same_as_warm(o: &SolveOutcome, warm: &SolveOutcome) -> Verdict {
    if !o.cached {
        return Verdict::Wrong("warm solve missed the cache".into());
    }
    if o.hypothesis.id != warm.hypothesis.id
        || o.error.to_bits() != warm.error.to_bits()
        || o.hypothesis.type_keys != warm.hypothesis.type_keys
    {
        return Verdict::Wrong("cached answer differs from the warm-up answer".into());
    }
    Verdict::Pass
}

/// Predictions of each warm hypothesis on its client's tuple sets:
/// `[slot][set]` (sets of other clients left empty).
fn expected_predictions(
    g: &Graph,
    refs: &[Reference],
    tuplesets: &[Vec<Vec<u32>>],
) -> Vec<Vec<Vec<bool>>> {
    refs.iter()
        .enumerate()
        .map(|(slot, r)| {
            let c = slot / inputs::WARM_PER_CLIENT;
            (0..tuplesets.len())
                .map(|set| {
                    if set / TUPLESETS_PER_CLIENT == c {
                        r.predict(g, &tuplesets[set])
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect()
}

/// A warm sample as a learner-replay case on structure 0.
fn warm_case(examples: &[WireExample]) -> SolveCase {
    SolveCase {
        graph: 0,
        examples: examples.to_vec(),
        ell: 1,
        q: 1,
        spec: SolverSpec::default_brute(),
    }
}

fn warm_refs(g: &Graph, samples: &[Vec<WireExample>]) -> Vec<Reference> {
    let arena = folearn::shared_arena(g);
    samples
        .iter()
        .map(|s| reference_solve(g, s, 1, 1, &SolverSpec::default_brute(), &arena))
        .collect()
}

fn solve_parts(req: &Request) -> Option<(u64, &[WireExample], usize, usize, &SolverSpec)> {
    match req {
        Request::Solve {
            structure,
            examples,
            ell,
            q,
            solver,
            ..
        } => Some((*structure, examples, *ell, *q, solver)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// hot_rr
// ---------------------------------------------------------------------------

/// `hot_rr`: the front door under cache-hot strict request/reply.
struct Hot {
    inputs: inputs::HotInputs,
    schedules: Vec<Mutex<Vec<Request>>>,
    refs: Vec<Reference>,
    predictions: Vec<Vec<Vec<bool>>>,
    truths: Vec<bool>,
}

struct HotSession {
    warm: Vec<SolveOutcome>,
    mismatches: Vec<String>,
}

impl Hot {
    fn new(opts: &RunOptions) -> Self {
        let mut inputs = inputs::hot_rr(opts.seed, opts.workload.per_client(opts.seconds));
        let schedules = locked(std::mem::take(&mut inputs.schedules));
        let g = &inputs.structure.graph;
        let refs = warm_refs(g, &inputs.samples);
        let predictions = expected_predictions(g, &refs, &inputs.tuplesets);
        let truths = inputs
            .sentences
            .iter()
            .map(|phi| eval::models(g, phi))
            .collect();
        Self {
            inputs,
            schedules,
            refs,
            predictions,
            truths,
        }
    }
}

impl Bench for Hot {
    type Session = HotSession;

    fn setup(&self, _dir: &Path) -> Result<(Daemons, HotSession), String> {
        let d = Daemons::single(None)?;
        let mut client = control(d.front())?;
        let s = &self.inputs.structure;
        register(&mut client, &s.text, s.hash)?;
        let (warm, mismatches) = warm_up(
            &mut client,
            s.hash,
            &self.inputs.samples,
            &self.refs,
            &self.schedules,
            &self.inputs.plans,
        )?;
        Ok((d, HotSession { warm, mismatches }))
    }

    fn drive(&self, d: &Daemons, s: &HotSession, c: usize, phase: &Phase, log: &mut ClientLog) {
        let plan = &self.inputs.plans[c];
        let check = |i: usize, resp: &Response| match (plan[i], resp) {
            (Op::WarmSolve(slot), Response::Solved(o)) => same_as_warm(o, &s.warm[slot]),
            (Op::Evaluate(slot, set), Response::Predictions { labels, .. }) => {
                if *labels == self.predictions[slot][set] {
                    Verdict::Pass
                } else {
                    Verdict::Wrong("predictions differ from the reference".into())
                }
            }
            (Op::ModelCheck(k), Response::Truth { holds, .. }) => {
                if *holds == self.truths[k] {
                    Verdict::Pass
                } else {
                    Verdict::Wrong(format!("model check of sentence {k} says {holds}"))
                }
            }
            (Op::Ping, Response::Pong) => Verdict::Pass,
            (op, other) => Verdict::Wrong(format!("{op:?} answered with {}", other.encode())),
        };
        load::pipelined(d.front(), &self.schedules[c].lock(), 1, &check, phase, log);
    }

    fn verify(
        &self,
        _d: &mut Daemons,
        s: &HotSession,
        _info: &PhaseInfo<'_>,
    ) -> Result<Verified, String> {
        Ok(Verified {
            checked: (s.warm.len() - s.mismatches.len()) as u64,
            failures: s.mismatches.clone(),
            layers: Vec::new(),
        })
    }

    fn replays(&self, _d: &Daemons, s: &HotSession) -> Result<Replays, String> {
        let st = &self.inputs.structure;
        let warm_requests: Vec<Request> = self
            .inputs
            .samples
            .iter()
            .map(|e| inputs::solve(st.hash, e.clone(), 1, 1, SolverSpec::default_brute()))
            .collect();
        let mut mutations = vec![DurableRecord::Register {
            graph_text: st.text.clone(),
        }];
        mutations.extend(
            warm_requests
                .iter()
                .zip(&s.warm)
                .map(|(r, o)| DurableRecord::Solve {
                    id: o.hypothesis.id,
                    request: r.clone(),
                }),
        );
        Ok(Replays {
            requests: head(&self.schedules[0].lock(), 2000),
            replies: Vec::new(),
            graphs: vec![st.graph.clone()],
            type_rank: 1,
            solves: self.inputs.samples.iter().map(|e| warm_case(e)).collect(),
            sentences: self
                .inputs
                .sentences
                .iter()
                .map(|phi| (0, phi.clone()))
                .collect(),
            keys: vec![st.hash],
            mutations,
            probe: (st.text.clone(), warm_requests[0].clone()),
        })
    }
}

// ---------------------------------------------------------------------------
// cold_learn
// ---------------------------------------------------------------------------

/// Solves re-run in process after the run, at most.
const COLD_RECHECKS: usize = 64;
/// Solves of the learner replay, at most.
const LEARNER_REPLAYS: usize = COLD_RECHECKS;

/// `cold_learn`: distinct compute-bound solves; every one misses.
struct Cold {
    inputs: inputs::ColdInputs,
    by_hash: HashMap<u64, usize>,
    /// `(client, index)` of the replies kept for the in-process re-solve.
    recheck: HashSet<(usize, usize)>,
}

struct ColdSession {
    kept: Mutex<Vec<(usize, usize, SolveOutcome)>>,
}

impl Cold {
    fn new(opts: &RunOptions) -> Self {
        let total = opts.workload.per_client(opts.seconds) * CLIENTS;
        let inputs = inputs::cold_learn(opts.seed, total);
        let by_hash = inputs
            .structures
            .iter()
            .enumerate()
            .map(|(i, s)| (s.hash, i))
            .collect();
        // A seeded subset, chosen before the run.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eb5e7);
        let mut recheck = HashSet::new();
        let per_client = inputs.schedules[0].len().min(inputs.schedules[1].len());
        while recheck.len() < COLD_RECHECKS.min(per_client * CLIENTS) {
            recheck.insert((
                rng.random_range(0..CLIENTS),
                rng.random_range(0..per_client),
            ));
        }
        Self {
            inputs,
            by_hash,
            recheck,
        }
    }
}

impl Bench for Cold {
    type Session = ColdSession;

    fn setup(&self, _dir: &Path) -> Result<(Daemons, ColdSession), String> {
        let d = Daemons::single(None)?;
        let mut client = control(d.front())?;
        for s in &self.inputs.structures {
            register(&mut client, &s.text, s.hash)?;
        }
        Ok((
            d,
            ColdSession {
                kept: Mutex::new(Vec::new()),
            },
        ))
    }

    fn drive(&self, d: &Daemons, s: &ColdSession, c: usize, phase: &Phase, log: &mut ClientLog) {
        let check = |i: usize, resp: &Response| match resp {
            Response::Solved(o) if o.cached => {
                Verdict::Wrong("a distinct solve hit the cache".into())
            }
            Response::Solved(o) => {
                if self.recheck.contains(&(c, i)) {
                    s.kept.lock().push((c, i, o.clone()));
                }
                Verdict::Pass
            }
            other => Verdict::Wrong(format!("solve answered with {}", other.encode())),
        };
        load::pipelined(d.front(), &self.inputs.schedules[c], 1, &check, phase, log);
    }

    fn verify(
        &self,
        _d: &mut Daemons,
        s: &ColdSession,
        _info: &PhaseInfo<'_>,
    ) -> Result<Verified, String> {
        let mut v = Verified::default();
        let mut arenas: HashMap<usize, folearn::SharedArena> = HashMap::new();
        let mut kept = s.kept.lock();
        // Replies arrive in completion order; the replays take a prefix.
        kept.sort_by_key(|(c, i, _)| (*c, *i));
        for (c, i, o) in kept.iter() {
            let (structure, examples, ell, q, spec) =
                solve_parts(&self.inputs.schedules[*c][*i]).expect("cold schedules hold solves");
            let g = &self.inputs.structures[self.by_hash[&structure]].graph;
            let arena = arenas
                .entry(g.vocab().num_colors())
                .or_insert_with(|| folearn::shared_arena(g))
                .clone();
            match reference_solve(g, examples, ell, q, spec, &arena).matches(o) {
                Ok(()) => v.checked += 1,
                Err(why) => v.failures.push(format!("client {c} request {i}: {why}")),
            }
        }
        Ok(v)
    }

    fn replays(&self, _d: &Daemons, s: &ColdSession) -> Result<Replays, String> {
        let kept = s.kept.lock();
        let solves: Vec<_> = kept
            .iter()
            .take(LEARNER_REPLAYS)
            .filter_map(|(c, i, _)| {
                let (h, e, ell, q, spec) = solve_parts(&self.inputs.schedules[*c][*i])?;
                Some(SolveCase {
                    graph: self.by_hash[&h],
                    examples: e.to_vec(),
                    ell,
                    q,
                    spec: spec.clone(),
                })
            })
            .collect();
        let mut mutations: Vec<DurableRecord> = self
            .inputs
            .structures
            .iter()
            .map(|s| DurableRecord::Register {
                graph_text: s.text.clone(),
            })
            .collect();
        mutations.extend(kept.iter().take(8).map(|(c, i, o)| DurableRecord::Solve {
            id: o.hypothesis.id,
            request: self.inputs.schedules[*c][*i].clone(),
        }));
        let first = &self.inputs.schedules[0][0];
        let probe_structure = solve_parts(first).map_or(0, |p| self.by_hash[&p.0]);
        Ok(Replays {
            requests: head(&self.inputs.schedules[0], 2000),
            replies: Vec::new(),
            graphs: self
                .inputs
                .structures
                .iter()
                .map(|s| s.graph.clone())
                .collect(),
            type_rank: 2,
            solves,
            sentences: self
                .inputs
                .targets
                .iter()
                .enumerate()
                .map(|(i, t)| (i, layers::closure(t)))
                .collect(),
            keys: self.inputs.structures.iter().map(|s| s.hash).collect(),
            mutations,
            probe: (
                self.inputs.structures[probe_structure].text.clone(),
                first.clone(),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// reduction_cluster
// ---------------------------------------------------------------------------

/// `reduction_cluster`: model checking through the ERM oracle of a
/// three-backend cluster (Lemma 7), one `RemoteOracle` per client.
struct Reduction {
    questions: Vec<Vec<Question>>,
    truths: Vec<Vec<bool>>,
    /// Oracle calls per client: each client starts questions in order
    /// until it has made this many calls (a failed question counts as
    /// one). Calls per question are deterministic, so the questions
    /// answered are too.
    calls: usize,
}

/// Oracle calls each client keeps for the replays.
const CALLS_RECORDED: usize = 32;

/// One oracle call the reduction made, kept for the replays.
struct Call {
    text: String,
    request: Request,
}

#[derive(Default)]
struct ReductionRecord {
    /// `(client, question, report)` of the first questions per client.
    reports: Vec<(usize, usize, ReductionReport)>,
    calls: u64,
    realizable: u64,
    answered: u64,
    /// The first oracle calls of each client, for the replays.
    recorded: Vec<(usize, Call)>,
}

struct ReductionSession {
    front: SocketAddr,
    oracles: Vec<Mutex<Option<RemoteOracle>>>,
    record: Mutex<ReductionRecord>,
}

impl Reduction {
    fn new(opts: &RunOptions) -> Self {
        let calls = opts.workload.per_client(opts.seconds);
        // A question averages over a hundred calls (at least
        // n(n−1)/2 ≥ 28 per ∃-level), so this many outlast the budget.
        let questions = inputs::reduction(opts.seed, calls / 28 + 64);
        let truths = questions
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|q| eval::models(&q.graph, &q.sentence))
                    .collect()
            })
            .collect();
        Self {
            questions,
            truths,
            calls,
        }
    }
}

/// The client's oracle with every call timed into the client log.
struct TimedOracle<'a> {
    inner: &'a mut RemoteOracle,
    log: &'a mut ClientLog,
    phase: &'a Phase,
    /// `(trace id, parent span)` while the current question is traced.
    traced: Option<u64>,
    recorded: Vec<Call>,
}

impl ErmOracle for TimedOracle<'_> {
    fn solve(&mut self, inst: &folearn::ErmInstance<'_>) -> OracleAnswer {
        let t0 = Instant::now();
        let answer = self.inner.solve(inst);
        let t1 = Instant::now();
        let us = t1.duration_since(t0).as_nanos() as f64 / 1e3;
        self.log.busy_ns += t1.duration_since(t0).as_nanos() as u64;
        // Each call counts toward the slice it started in, like a
        // request would; spans follow the question's slice.
        self.log.ok(us, true, self.phase.traced(t0));
        if let Some(root) = self.traced {
            let id = self.log.spans.id();
            let (a, b) = (self.phase.ns(t0), self.phase.ns(t1));
            self.log.spans.push(root, id, root, "oracle.call", a, b);
        }
        if self.recorded.len() < CALLS_RECORDED {
            let text = io::to_text(inst.graph);
            let examples = inst
                .examples
                .iter()
                .map(|e| WireExample {
                    tuple: e.tuple.iter().map(|v| v.0).collect(),
                    label: e.label,
                })
                .collect();
            let structure = inputs::Structure::new(inst.graph.clone()).hash;
            let request = inputs::solve(
                structure,
                examples,
                inst.ell,
                inst.q,
                SolverSpec::default_brute(),
            );
            self.recorded.push(Call { text, request });
        }
        answer
    }

    fn calls(&self) -> usize {
        self.inner.calls()
    }

    fn realizable_calls(&self) -> usize {
        self.inner.realizable_calls()
    }
}

impl Bench for Reduction {
    type Session = ReductionSession;

    fn setup(&self, _dir: &Path) -> Result<(Daemons, ReductionSession), String> {
        let d = Daemons::cluster(3)?;
        control(d.front())?
            .ping()
            .map_err(|e| format!("router ping: {e}"))?;
        let oracles = (0..CLIENTS)
            .map(|_| {
                RemoteOracle::connect(d.front())
                    .map(|o| Mutex::new(Some(o)))
                    .map_err(|e| format!("oracle connect: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let front = d.front();
        Ok((
            d,
            ReductionSession {
                front,
                oracles,
                record: Mutex::new(ReductionRecord::default()),
            },
        ))
    }

    fn drive(
        &self,
        _d: &Daemons,
        s: &ReductionSession,
        c: usize,
        phase: &Phase,
        log: &mut ClientLog,
    ) {
        let Some(mut oracle) = s.oracles[c].lock().take() else {
            log.fail("no oracle connection".into());
            return;
        };
        let mut recorded = Vec::new();
        let mut reports = Vec::new();
        let (mut calls, mut realizable, mut answered) = (0u64, 0u64, 0u64);
        // Every oracle call and every failed question adds one sample.
        let spent = |log: &ClientLog| log.lat_us.len();
        for (i, q) in self.questions[c].iter().enumerate() {
            let t0 = Instant::now();
            if t0 >= phase.deadline || spent(log) >= self.calls {
                break;
            }
            let root = phase.traced(t0).then(|| log.spans.id());
            let outcome = {
                let mut timed = TimedOracle {
                    inner: &mut oracle,
                    log,
                    phase,
                    traced: root,
                    recorded: std::mem::take(&mut recorded),
                };
                let r = catch_unwind(AssertUnwindSafe(|| {
                    model_check_via_erm(&q.graph, &q.sentence, &mut timed)
                }));
                recorded = std::mem::take(&mut timed.recorded);
                r
            };
            // The reduction's own spans pile up on this thread while
            // capture is on; this benchmark keeps its spans elsewhere.
            drop(folearn_obs::take_thread_roots());
            if let Some(root) = root {
                log.spans.push(
                    root,
                    root,
                    0,
                    "question",
                    phase.ns(t0),
                    phase.ns(Instant::now()),
                );
            }
            match outcome {
                Ok(report) if report.result == self.truths[c][i] => {
                    log.checked += 1;
                    answered += 1;
                    calls += report.oracle_calls as u64;
                    realizable += report.realizable_calls as u64;
                    if i < REPORTS_CHECKED {
                        reports.push((c, i, report));
                    }
                }
                Ok(report) => log.fail(format!("question {i}: reduction says {}", report.result)),
                Err(_) => {
                    log.fail(format!("question {i}: oracle call failed"));
                    match RemoteOracle::connect(s.front) {
                        Ok(fresh) => oracle = fresh,
                        Err(e) => {
                            log.fail(format!("oracle reconnect: {e}"));
                            break;
                        }
                    }
                }
            }
        }
        for _ in spent(log)..self.calls {
            log.fail(load::NOT_STARTED.into());
        }
        let mut rec = s.record.lock();
        rec.reports.extend(reports);
        rec.calls += calls;
        rec.realizable += realizable;
        rec.answered += answered;
        rec.recorded
            .extend(recorded.into_iter().map(|call| (c, call)));
    }

    fn verify(
        &self,
        _d: &mut Daemons,
        s: &ReductionSession,
        _info: &PhaseInfo<'_>,
    ) -> Result<Verified, String> {
        let mut v = Verified::default();
        let rec = s.record.lock();
        for (c, i, remote) in &rec.reports {
            let q = &self.questions[*c][*i];
            let mut oracle = BruteForceOracle::new();
            let local = model_check_via_erm(&q.graph, &q.sentence, &mut oracle);
            drop(folearn_obs::take_thread_roots());
            let same = local.result == remote.result
                && local.oracle_calls == remote.oracle_calls
                && local.realizable_calls == remote.realizable_calls
                && local.representative_set_sizes == remote.representative_set_sizes
                && local.max_depth == remote.max_depth;
            if same {
                v.checked += 1;
            } else {
                v.failures.push(format!(
                    "client {c} question {i}: remote report {} differs from in-process {}",
                    remote.to_json().render(),
                    local.to_json().render()
                ));
            }
        }
        let per = |x: u64, n: u64| if n > 0 { x as f64 / n as f64 } else { 0.0 };
        v.layers = vec![
            ("oracle.calls_per_sentence", per(rec.calls, rec.answered)),
            ("oracle.realizable_ratio", per(rec.realizable, rec.calls)),
        ];
        Ok(v)
    }

    fn replays(&self, d: &Daemons, s: &ReductionSession) -> Result<Replays, String> {
        let mut rec = s.record.lock();
        // Clients finish in either order; replay client 0's calls first.
        rec.recorded.sort_by_key(|(c, _)| *c);
        let calls: Vec<&Call> = rec.recorded.iter().map(|(_, call)| call).collect();
        if calls.is_empty() {
            return Err("the reduction made no oracle call to replay".into());
        }
        // The oracle's replies never surface; re-send its requests for
        // the reply lines the decode replay needs.
        let requests: Vec<Request> = calls.iter().map(|c| c.request.clone()).collect();
        let replies = resend(d.front(), &requests)?;
        let mut graphs: Vec<Graph> = Vec::new();
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut mutations = Vec::new();
        let mut solves = Vec::new();
        for (k, call) in calls.iter().enumerate() {
            let (h, e, ell, q, spec) =
                solve_parts(&call.request).expect("recorded calls are solves");
            let gi = *index.entry(h).or_insert_with(|| {
                graphs.push(io::parse_graph(&call.text).expect("recorded graph text parses"));
                mutations.push(DurableRecord::Register {
                    graph_text: call.text.clone(),
                });
                graphs.len() - 1
            });
            if solves.len() < LEARNER_REPLAYS {
                solves.push(SolveCase {
                    graph: gi,
                    examples: e.to_vec(),
                    ell,
                    q,
                    spec: spec.clone(),
                });
            }
            if k < 8 {
                mutations.push(DurableRecord::Solve {
                    id: k as u64 + 1,
                    request: call.request.clone(),
                });
            }
        }
        // Registers first, so every replayed solve finds its structure.
        mutations.sort_by_key(|m| matches!(m, DurableRecord::Solve { .. }));
        let sentences = self.questions[0]
            .iter()
            .take(32)
            .map(|q| {
                graphs.push(q.graph.clone());
                (graphs.len() - 1, q.sentence.clone())
            })
            .collect();
        Ok(Replays {
            requests,
            replies,
            type_rank: 2,
            solves,
            sentences,
            keys: index.keys().copied().collect(),
            mutations,
            probe: (calls[0].text.clone(), calls[0].request.clone()),
            graphs,
        })
    }
}

/// Send `requests` one at a time over a fresh connection and keep the
/// raw reply lines.
fn resend(addr: SocketAddr, requests: &[Request]) -> Result<Vec<String>, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("resend: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("resend: {e}"))?);
    let mut writer = stream;
    let mut lines = Vec::with_capacity(requests.len());
    for r in requests {
        writeln!(writer, "{}", r.encode()).map_err(|e| format!("resend: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("resend: {e}"))?;
        lines.push(line.trim_end().to_string());
    }
    Ok(lines)
}

// ---------------------------------------------------------------------------
// durable_mixed
// ---------------------------------------------------------------------------

/// Fresh hypotheses evaluated again after the restart, at most.
const DURABLE_RECHECKS: usize = 32;

/// `durable_mixed`: pipelined writes and reads on a durable daemon,
/// then a restart on the same data dir.
struct Durable {
    inputs: inputs::DurableInputs,
    schedules: Vec<Mutex<Vec<Request>>>,
    refs: Vec<Reference>,
    predictions: Vec<Vec<Vec<bool>>>,
}

#[derive(Default)]
struct Acked {
    structures: Vec<u64>,
    /// `(hypothesis id, client, request index)` of acknowledged solves.
    solves: Vec<(u64, usize, usize)>,
}

struct DurableSession {
    data_dir: PathBuf,
    warm: Vec<SolveOutcome>,
    mismatches: Vec<String>,
    acked: Mutex<Acked>,
}

impl Durable {
    fn new(opts: &RunOptions) -> Self {
        let mut inputs = inputs::durable_mixed(opts.seed, opts.workload.per_client(opts.seconds));
        let schedules = locked(std::mem::take(&mut inputs.schedules));
        let g = &inputs.base.graph;
        let refs = warm_refs(g, &inputs.samples);
        let predictions = expected_predictions(g, &refs, &inputs.tuplesets);
        Self {
            inputs,
            schedules,
            refs,
            predictions,
        }
    }
}

impl Bench for Durable {
    type Session = DurableSession;

    fn setup(&self, dir: &Path) -> Result<(Daemons, DurableSession), String> {
        let data_dir = dir.join("data");
        let d = Daemons::single(Some(data_dir.clone()))?;
        let mut client = control(d.front())?;
        let base = &self.inputs.base;
        register(&mut client, &base.text, base.hash)?;
        let (warm, mismatches) = warm_up(
            &mut client,
            base.hash,
            &self.inputs.samples,
            &self.refs,
            &self.schedules,
            &self.inputs.plans,
        )?;
        Ok((
            d,
            DurableSession {
                data_dir,
                warm,
                mismatches,
                acked: Mutex::new(Acked::default()),
            },
        ))
    }

    fn drive(&self, d: &Daemons, s: &DurableSession, c: usize, phase: &Phase, log: &mut ClientLog) {
        let plan = &self.inputs.plans[c];
        let check = |i: usize, resp: &Response| match (plan[i], resp) {
            (
                Op::Register(hash),
                Response::Registered {
                    structure, fresh, ..
                },
            ) => {
                if *structure != hash || !*fresh {
                    return Verdict::Wrong(format!(
                        "register acked {structure:016x} fresh={fresh}"
                    ));
                }
                s.acked.lock().structures.push(hash);
                Verdict::Pass
            }
            (Op::FreshSolve, Response::Solved(o)) => {
                if o.cached {
                    return Verdict::Wrong("a fresh solve hit the cache".into());
                }
                s.acked.lock().solves.push((o.hypothesis.id, c, i));
                Verdict::Pass
            }
            (Op::WarmSolve(slot), Response::Solved(o)) => same_as_warm(o, &s.warm[slot]),
            (Op::Evaluate(slot, set), Response::Predictions { labels, .. }) => {
                if *labels == self.predictions[slot][set] {
                    Verdict::Pass
                } else {
                    Verdict::Wrong("predictions differ from the reference".into())
                }
            }
            (op, other) => Verdict::Wrong(format!("{op:?} answered with {}", other.encode())),
        };
        load::pipelined(
            d.front(),
            &self.schedules[c].lock(),
            WINDOW,
            &check,
            phase,
            log,
        );
    }

    fn verify(
        &self,
        d: &mut Daemons,
        s: &DurableSession,
        info: &PhaseInfo<'_>,
    ) -> Result<Verified, String> {
        let mut v = Verified {
            checked: (s.warm.len() - s.mismatches.len()) as u64,
            failures: s.mismatches.clone(),
            layers: Vec::new(),
        };
        let mut acked = s.acked.lock();
        // Acks arrive in completion order; the checks and replays take
        // seeded subsets and prefixes.
        acked.structures.sort_unstable();
        acked.solves.sort_by_key(|&(_, c, i)| (c, i));
        let writes = (acked.structures.len() + acked.solves.len()) as f64;
        let dir_bytes = procfs::dir_bytes(&s.data_dir) as f64;

        // Restart on the same data dir: every acknowledged write must
        // have survived.
        let old = d.servers.pop().expect("one daemon");
        old.shutdown();
        let (ms, replayed, server) = layers::recover(&s.data_dir)?;
        d.servers.push(server);
        let mut client = control(d.front())?;
        let (structures, bindings) = client.inventory().map_err(|e| format!("inventory: {e}"))?;
        let structures: HashSet<u64> = structures.into_iter().collect();
        let ids: HashSet<u64> = bindings.iter().map(|b| b.id).collect();
        for h in acked.structures.iter().chain([&self.inputs.base.hash]) {
            if structures.contains(h) {
                v.checked += 1;
            } else {
                v.failures
                    .push(format!("acked structure {h:016x} lost across the restart"));
            }
        }
        let warm_ids = s.warm.iter().map(|o| o.hypothesis.id);
        for id in acked.solves.iter().map(|a| a.0).chain(warm_ids) {
            if ids.contains(&id) {
                v.checked += 1;
            } else {
                v.failures.push(format!(
                    "acked hypothesis {id:016x} lost across the restart"
                ));
            }
        }

        // A seeded subset of the recovered hypotheses must classify
        // exactly as the in-process reference does.
        let g = &self.inputs.base.graph;
        let tuples: Vec<Vec<u32>> = (0..g.num_vertices() as u32).map(|v| vec![v]).collect();
        let arena = folearn::shared_arena(g);
        let mut rng = StdRng::seed_from_u64(acked.solves.len() as u64);
        let mut subset: Vec<&(u64, usize, usize)> = acked.solves.iter().collect();
        for i in (1..subset.len()).rev() {
            subset.swap(i, rng.random_range(0..=i));
        }
        for &&(id, c, i) in subset.iter().take(DURABLE_RECHECKS) {
            let schedule = self.schedules[c].lock();
            let (_, examples, ell, q, spec) = solve_parts(&schedule[i]).expect("fresh solves");
            let expected = reference_solve(g, examples, ell, q, spec, &arena).predict(g, &tuples);
            let base = self.inputs.base.hash;
            match client.evaluate(base, id, tuples.clone(), None) {
                Ok((labels, _)) if labels == expected => v.checked += 1,
                Ok(_) => v.failures.push(format!(
                    "recovered hypothesis {id:016x} classifies differently"
                )),
                Err(e) => v
                    .failures
                    .push(format!("evaluate {id:016x} after the restart: {e}")),
            }
        }
        for (slot, o) in s.warm.iter().enumerate() {
            let expected = self.refs[slot].predict(g, &tuples);
            match client.evaluate(self.inputs.base.hash, o.hypothesis.id, tuples.clone(), None) {
                Ok((labels, _)) if labels == expected => v.checked += 1,
                Ok(_) => v.failures.push(format!(
                    "recovered warm hypothesis {slot} classifies differently"
                )),
                Err(e) => v
                    .failures
                    .push(format!("evaluate warm {slot} after the restart: {e}")),
            }
        }

        let per_write = |x: f64| if writes > 0.0 { x / writes } else { 0.0 };
        let wal = info.stats.map_or(0.0, |(b, a)| {
            layers::backend_delta(b, a, &["wal_records_written"])
        });
        v.layers = vec![
            ("wal.appends_per_write", per_write(wal)),
            (
                "wal.storage_bytes_per_write",
                per_write(info.process.write_bytes as f64),
            ),
            ("snapshot.dir_bytes_per_write", per_write(dir_bytes)),
            ("recovery.ms", ms),
            ("recovery.records_replayed", replayed),
        ];
        Ok(v)
    }

    fn replays(&self, _d: &Daemons, s: &DurableSession) -> Result<Replays, String> {
        let acked = s.acked.lock();
        let base = &self.inputs.base;
        let mut graphs = vec![base.graph.clone()];
        let mut mutations = vec![DurableRecord::Register {
            graph_text: base.text.clone(),
        }];
        let schedules: Vec<_> = self.schedules.iter().map(|s| s.lock()).collect();
        let registered = schedules
            .iter()
            .flat_map(|s| s.iter())
            .filter_map(|r| match r {
                Request::Register { graph_text } => Some(graph_text),
                _ => None,
            });
        for text in registered.take(63) {
            graphs.push(io::parse_graph(text).map_err(|e| format!("registered text: {e}"))?);
            mutations.push(DurableRecord::Register {
                graph_text: text.clone(),
            });
        }
        let mut solves: Vec<_> = self.inputs.samples.iter().map(|e| warm_case(e)).collect();
        for &(id, c, i) in acked.solves.iter().take(16) {
            let (_, e, ell, q, spec) = solve_parts(&schedules[c][i]).expect("fresh solves");
            solves.push(SolveCase {
                graph: 0,
                examples: e.to_vec(),
                ell,
                q,
                spec: spec.clone(),
            });
            if mutations.len() < 72 {
                mutations.push(DurableRecord::Solve {
                    id,
                    request: schedules[c][i].clone(),
                });
            }
        }
        let mut keys = vec![base.hash];
        keys.extend(acked.structures.iter().take(63));
        Ok(Replays {
            requests: head(&schedules[0], 2000),
            replies: Vec::new(),
            graphs,
            type_rank: 1,
            solves,
            sentences: vec![(0, layers::closure(&self.inputs.target))],
            keys,
            mutations,
            probe: (
                base.text.clone(),
                inputs::solve(
                    base.hash,
                    self.inputs.samples[0].clone(),
                    1,
                    1,
                    SolverSpec::default_brute(),
                ),
            ),
        })
    }
}
