//! Per-layer measurements for traced runs: `stats` deltas around the
//! timed phase, probes at the front door, and in-process replays that
//! time one layer's public function on the inputs the workload sent.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use folearn_cluster::ring::DEFAULT_VNODES;
use folearn_cluster::HashRing;
use folearn_graph::Graph;
use folearn_logic::{eval, Formula};
use folearn_obs::{Counter, Json};
use folearn_server::cache::ShardedCache;
use folearn_server::snapshot::{Durability, DurableRecord, DEFAULT_SNAPSHOT_EVERY};
use folearn_server::wal::Wal;
use folearn_server::{
    fnv1a64, ClientApi, Request, Response, ServerConfig, SolveOutcome, SolverSpec, WireExample,
};

use crate::daemons::{control, reference_solve, start_server, Daemons};
use crate::procfs;
use crate::stats;

/// `stats` of every daemon of a workload at one instant.
pub struct StatsView {
    /// The daemon clients talk to (the router on a cluster).
    pub front: Json,
    /// Each backend daemon.
    pub backends: Vec<Json>,
}

/// Fetch `stats` from the front door and every backend.
pub fn snapshot(d: &Daemons) -> Result<StatsView, String> {
    let fetch = |addr: SocketAddr| {
        control(addr)?
            .stats()
            .map_err(|e| format!("stats {addr}: {e}"))
    };
    Ok(StatsView {
        front: fetch(d.front())?,
        backends: d
            .backends()
            .into_iter()
            .map(fetch)
            .collect::<Result<_, _>>()?,
    })
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// `after − before` of one numeric field.
pub fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// Summed over backends.
pub fn backend_delta(before: &StatsView, after: &StatsView, path: &[&str]) -> f64 {
    before
        .backends
        .iter()
        .zip(&after.backends)
        .map(|(b, a)| delta(b, a, path))
        .sum()
}

/// Requests and total microseconds recorded by endpoint `op` (exact:
/// the histogram keeps its sum, so `mean · count` is the total).
fn endpoint(stats: &Json, op: &str) -> (f64, f64) {
    let count = num(stats, &["endpoints", op, "count"]);
    (count, count * num(stats, &["endpoints", op, "mean_us"]))
}

/// Traffic ops: everything but the control requests.
const TRAFFIC_OPS: [&str; 6] = [
    "ping",
    "register",
    "solve",
    "evaluate",
    "modelcheck",
    "shutdown",
];

/// Exact mean daemon-side latency of `ops` between two snapshots.
pub fn endpoint_mean(before: &[&Json], after: &[&Json], ops: &[&str]) -> f64 {
    let (mut n, mut total) = (0.0, 0.0);
    for (b, a) in before.iter().zip(after) {
        for op in ops {
            let (nb, tb) = endpoint(b, op);
            let (na, ta) = endpoint(a, op);
            n += na - nb;
            total += ta - tb;
        }
    }
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// Mean daemon-side latency of every traffic request at the front door.
pub fn front_mean(before: &StatsView, after: &StatsView) -> f64 {
    endpoint_mean(&[&before.front], &[&after.front], &TRAFFIC_OPS)
}

/// Mean daemon-side latency of `solve` across the backends.
pub fn backend_solve_mean(before: &StatsView, after: &StatsView) -> f64 {
    let b: Vec<&Json> = before.backends.iter().collect();
    let a: Vec<&Json> = after.backends.iter().collect();
    endpoint_mean(&b, &a, &["solve"])
}

/// The router's own counters between two of its snapshots.
pub fn router_layer(before: &Json, after: &Json) -> Vec<(&'static str, f64)> {
    let requests: f64 = TRAFFIC_OPS
        .iter()
        .map(|op| endpoint(after, op).0 - endpoint(before, op).0)
        .sum();
    let fired = delta(before, after, &["hedges_fired"]);
    let won = delta(before, after, &["hedges_won"]);
    let rows = |v: &Json| -> Vec<f64> {
        v.get("backends")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(|r| num(r, &["requests"])).collect())
            .unwrap_or_default()
    };
    let per_backend: Vec<f64> = rows(after)
        .iter()
        .zip(rows(before))
        .map(|(a, b)| a - b)
        .collect();
    let mean = stats::mean(&per_backend).unwrap_or(0.0);
    let max = per_backend.iter().copied().fold(0.0, f64::max);
    vec![
        (
            "router.hedges_per_kreq",
            if requests > 0.0 {
                1000.0 * fired / requests
            } else {
                0.0
            },
        ),
        (
            "router.hedge_win_ratio",
            if fired > 0.0 { won / fired } else { 0.0 },
        ),
        ("router.failovers", delta(before, after, &["failovers"])),
        (
            "router.replica_retries",
            delta(before, after, &["replica_retries"]),
        ),
        (
            "router.backend_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        ),
        (
            "router.repairs_performed",
            delta(before, after, &["repairs_performed"]),
        ),
    ]
}

/// Process CPU over `window` with no traffic, as a percentage of one
/// core.
pub fn idle_cpu_pct(window: Duration) -> f64 {
    let cpu0 = procfs::process_cpu_ns();
    let t = Instant::now();
    std::thread::sleep(window);
    let wall = t.elapsed().as_nanos() as f64;
    100.0 * (procfs::process_cpu_ns() - cpu0) as f64 / wall
}

/// Client p50 and mean of `n` strict request/reply pings, µs.
pub fn ping_us(addr: SocketAddr, n: usize) -> Result<(f64, f64), String> {
    let mut client = control(addr)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((
        stats::nearest_rank(&samples, 50.0).unwrap_or(0.0),
        stats::mean(&samples).unwrap_or(0.0),
    ))
}

/// Time one solve call, µs.
fn timed_solve(
    client: &mut folearn_server::Client,
    solve: &Request,
) -> Result<(f64, Response), String> {
    let t = Instant::now();
    let resp = client
        .call(solve)
        .map_err(|e| format!("probe solve: {e}"))?;
    Ok((t.elapsed().as_nanos() as f64 / 1e3, resp))
}

/// The router hop on a cache-hot solve: mean latency through the router
/// at `router` minus mean latency sent straight to the backend that
/// answers it, over `rounds` alternating pairs.
pub fn router_hop_us(
    router: SocketAddr,
    text: &str,
    solve: &Request,
    rounds: usize,
) -> Result<f64, String> {
    let mut via = control(router)?;
    via.register(text)
        .map_err(|e| format!("probe register: {e}"))?;
    let (_, first) = timed_solve(&mut via, solve)?;
    let Response::Solved(SolveOutcome {
        provenance: Some(p),
        ..
    }) = first
    else {
        return Err("probe solve through the router carried no provenance".to_string());
    };
    let primary: SocketAddr = p
        .backend
        .parse()
        .map_err(|e| format!("provenance {}: {e}", p.backend))?;
    let mut direct = control(primary)?;
    timed_solve(&mut direct, solve)?;
    let (mut through, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        through.push(timed_solve(&mut via, solve)?.0);
        straight.push(timed_solve(&mut direct, solve)?.0);
    }
    Ok(stats::mean(&through).unwrap_or(0.0) - stats::mean(&straight).unwrap_or(0.0))
}

/// Repeat `f` over `items` until at least ~20 ms have been timed; mean
/// µs per item.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let (mut n, t) = (0usize, Instant::now());
    while n == 0 || t.elapsed() < Duration::from_millis(20) {
        for it in items {
            f(it);
        }
        n += items.len();
    }
    t.elapsed().as_nanos() as f64 / 1e3 / n as f64
}

/// Replay of `Request::encode`.
pub fn encode_us(requests: &[Request]) -> f64 {
    per_item_us(requests, |r| {
        black_box(black_box(r).encode());
    })
}

/// Replay of `Response::decode`.
pub fn decode_us(lines: &[String]) -> f64 {
    per_item_us(lines, |l| {
        black_box(Response::decode(black_box(l)).ok());
    })
}

/// Replay of `ShardedCache::get` (hits) with the daemon's default
/// capacity and shard count, holding the workload's own solve outcomes:
/// a hit clones the stored outcome, so its size is what matters. Keys
/// are distinct stand-ins; lookup cost does not depend on their value.
pub fn cache_get_us(outcomes: &[SolveOutcome]) -> f64 {
    let defaults = ServerConfig::default();
    let cache = ShardedCache::new(defaults.cache_capacity, defaults.cache_shards);
    let keys: Vec<(u64, u64, u64)> = outcomes
        .iter()
        .take(defaults.cache_capacity / 2)
        .enumerate()
        .map(|(i, o)| {
            let key = (fnv1a64(&i.to_le_bytes()), i as u64, 0);
            cache.insert(key, (o.clone(), Instant::now()));
            key
        })
        .collect();
    per_item_us(&keys, |k| {
        black_box(cache.get(black_box(k)));
    })
}

/// One solve the workload sent, for the learner replay.
pub struct SolveCase {
    /// Index of the structure solved on.
    pub graph: usize,
    /// The sample.
    pub examples: Vec<WireExample>,
    /// Parameters ℓ.
    pub ell: usize,
    /// Quantifier rank q.
    pub q: usize,
    /// The solver.
    pub spec: SolverSpec,
}

/// The learner replay: time each solve in process (arenas shared per
/// vocabulary, inside a thread pool the size of one daemon worker's
/// share of the cores, as the daemon runs it) and read the work
/// counters off the learner's own spans.
pub fn learner(graphs: &[Graph], cases: &[SolveCase]) -> Vec<(&'static str, f64)> {
    folearn_obs::set_enabled(true);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = match ServerConfig::default().workers {
        0 => cores,
        w => w,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads((cores / workers).max(1))
        .build()
        .expect("the rayon shim never fails to build");
    let mut arenas: HashMap<usize, folearn::SharedArena> = HashMap::new();
    let (mut times, mut brute, mut nd) = (Vec::new(), 0.0, 0.0);
    let (mut evaluated, mut pruned, mut short) = (0.0, 0.0, 0.0);
    let mut counters = folearn_obs::CounterSet::new();
    for c in cases {
        let g = &graphs[c.graph];
        let arena = arenas
            .entry(g.vocab().num_colors())
            .or_insert_with(|| folearn::shared_arena(g))
            .clone();
        let t = Instant::now();
        let r = pool.install(|| reference_solve(g, &c.examples, c.ell, c.q, &c.spec, &arena));
        times.push(t.elapsed().as_nanos() as f64 / 1e3);
        for s in &r.spans {
            counters.merge(&s.counters_total());
        }
        match c.spec {
            SolverSpec::Nd => nd += 1.0,
            SolverSpec::Brute { .. } => {
                brute += 1.0;
                let touched = r.report.evaluated_params + r.report.pruned_params;
                evaluated += r.report.evaluated_params as f64;
                pruned += r.report.pruned_params as f64;
                // A perfect fit before the last tuple ends the sweep.
                let tuples = g.num_vertices().pow(c.ell as u32);
                short += f64::from(u8::from(touched < tuples));
            }
        }
    }
    let solves = times.len().max(1) as f64;
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let count = |c: Counter| counters.get(c) as f64;
    vec![
        ("learner.solve_mean_us", stats::mean(&times).unwrap_or(0.0)),
        (
            "learner.solve_p99_us",
            stats::nearest_rank(&times, 99.0).unwrap_or(0.0),
        ),
        (
            "bruteforce.evaluated_params_per_solve",
            per(evaluated, brute),
        ),
        ("bruteforce.pruned_ratio", per(pruned, evaluated + pruned)),
        ("bruteforce.short_circuit_ratio", per(short, brute)),
        (
            "ndlearner.centers_per_solve",
            per(count(Counter::Centers), nd),
        ),
        (
            "ndlearner.critical_tuples_per_solve",
            per(count(Counter::CriticalTuples), nd),
        ),
        (
            "bfs.vertices_per_solve",
            count(Counter::BfsVertices) / solves,
        ),
        (
            "splitter.rounds_per_solve",
            count(Counter::GameRounds) / solves,
        ),
        (
            "vm.words_scanned_per_solve",
            count(Counter::VmWordsScanned) / solves,
        ),
    ]
}

/// Replay of the rank-`q` type of every vertex of each structure, each
/// structure in a fresh arena; mean µs per type.
pub fn types_us(graphs: &[Graph], q: usize) -> f64 {
    let (mut n, t) = (0usize, Instant::now());
    for g in graphs {
        let mut arena = folearn_types::TypeArena::new(std::sync::Arc::clone(g.vocab()));
        for v in g.vertices() {
            black_box(folearn_types::compute::type_of(g, &mut arena, &[v], q));
            n += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / 1e3 / n.max(1) as f64
}

/// Replay of `eval::models` on `(structure index, sentence)` pairs.
pub fn modelcheck_us(graphs: &[Graph], checks: &[(usize, Formula)]) -> f64 {
    per_item_us(checks, |(g, phi)| {
        black_box(eval::models(&graphs[*g], phi));
    })
}

/// Replay of `HashRing::replicas_for` (three backends, two replicas,
/// default virtual nodes) on the workload's structure keys.
pub fn ring_lookup_us(keys: &[u64]) -> f64 {
    let ring = HashRing::new(["backend-0", "backend-1", "backend-2"], DEFAULT_VNODES);
    per_item_us(keys, |&k| {
        black_box(ring.replicas_for(black_box(k), 2));
    })
}

/// Replay of `Wal::append` (frame plus fsync) of the workload's
/// mutations, 128 appends into a fresh log in `dir`; p50 and mean µs.
pub fn wal_append_us(dir: &Path, records: &[DurableRecord]) -> Result<(f64, f64), String> {
    let mut wal =
        Wal::open(&dir.join("wal-replay.log"), 0).map_err(|e| format!("wal replay: {e}"))?;
    let payloads: Vec<Vec<u8>> = records.iter().map(DurableRecord::to_bytes).collect();
    let mut times = Vec::with_capacity(128);
    for p in payloads.iter().cycle().take(128) {
        let t = Instant::now();
        wal.append(p).map_err(|e| format!("wal replay: {e}"))?;
        times.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((
        stats::nearest_rank(&times, 50.0).unwrap_or(0.0),
        stats::mean(&times).unwrap_or(0.0),
    ))
}

/// Replay of `Durability::append` with the default compaction period:
/// 300 appends into a fresh data dir, so one compaction lands inside.
/// Returns the slowest append, µs. The dir is left populated for the
/// recovery replay.
pub fn snapshot_append_max_us(dir: &Path, records: &[DurableRecord]) -> Result<f64, String> {
    let (mut durable, _, _) = Durability::open(dir, DEFAULT_SNAPSHOT_EVERY)
        .map_err(|e| format!("snapshot replay: {e}"))?;
    let mut worst: f64 = 0.0;
    for r in records.iter().cycle().take(300) {
        let t = Instant::now();
        durable
            .append(r)
            .map_err(|e| format!("snapshot replay: {e}"))?;
        worst = worst.max(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(worst)
}

/// Restart a durable daemon on `dir`: milliseconds from `start` to the
/// first reply, and the records it replayed. The daemon is stopped
/// again; `Ok` carries it when the caller wants to keep it running.
pub fn recover(dir: &Path) -> Result<(f64, f64, folearn_server::ServerHandle), String> {
    let t = Instant::now();
    let server = start_server(Some(dir.to_path_buf()))?;
    let mut client = control(server.addr())?;
    client
        .ping()
        .map_err(|e| format!("ping after restart: {e}"))?;
    let ms = t.elapsed().as_nanos() as f64 / 1e6;
    let replayed = num(
        &client
            .stats()
            .map_err(|e| format!("stats after restart: {e}"))?,
        &["wal_records_replayed"],
    );
    Ok((ms, replayed, server))
}

/// The existential closure `∃x0 φ(x0)` of a unary target: the sentence
/// the logic replay checks on structures that were only learned on.
pub fn closure(target: &Formula) -> Formula {
    Formula::exists(0, target.clone())
}
