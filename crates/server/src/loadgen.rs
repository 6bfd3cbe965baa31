//! The load generator: drives a daemon with a deterministic mix of
//! requests from several concurrent client connections and reports
//! per-operation latency statistics.
//!
//! Workloads are seeded, so two runs against equivalent servers issue
//! the same request streams (per worker) — that is what makes cold
//! versus cache-warm service times comparable across runs. Each
//! worker owns one connection and loops a weighted mix of `solve`
//! (drawn from a small pool of distinct samples, so repeats hit the
//! result cache), `evaluate` on the hypotheses those solves return,
//! `modelcheck`, and `stats`.
//!
//! With [`LoadgenConfig::pipeline`] ≥ 2 each worker switches to the
//! pipelined wire protocol the event core is built for: the whole
//! request schedule is encoded up front (the structure hash is computed
//! client-side from the canonical graph text, so nothing depends on a
//! reply), up to `pipeline` requests ride in flight per connection, and
//! the worker's *schedule position survives reconnects* — a `bye`
//! (request budget, shutdown) or transport failure re-sends only the
//! unanswered window on a fresh connection, so every run completes
//! exactly `requests_per_conn` requests per worker and the per-target
//! rows of the report stay exact.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ClientApi, ClientConfig, ClientError, RetryPolicy, RetryingClient};
use crate::proto::{fnv1a64, Json, Request, Response, SolverSpec, WireExample};

/// Shape of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_conn: usize,
    /// Base RNG seed; worker `i` uses `seed + i`.
    pub seed: u64,
    /// Number of distinct solve samples per worker; smaller pools mean
    /// more cache hits.
    pub sample_pool: usize,
    /// Parameters per hypothesis (`ell`) for generated solves.
    pub ell: usize,
    /// Quantifier rank for generated solves.
    pub q: usize,
    /// Socket deadlines for each worker's connection (default: none).
    pub client: ClientConfig,
    /// Retry policy for each worker; worker `i` jitters from
    /// `retry.seed + i` so concurrent workers don't sleep in lockstep.
    pub retry: RetryPolicy,
    /// Pipelined requests in flight per connection. `0` or `1` keeps
    /// the strict request/reply loop; ≥ 2 switches to the pipelined
    /// driver (no `evaluate` calls — those need a reply before the next
    /// request, which is exactly what pipelining avoids).
    pub pipeline: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 2,
            requests_per_conn: 40,
            seed: 17,
            sample_pool: 4,
            ell: 1,
            q: 1,
            client: ClientConfig::default(),
            retry: RetryPolicy::none(),
            pipeline: 0,
        }
    }
}

/// Latency tally for one operation kind.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Completed calls.
    pub count: usize,
    /// All observed latencies, microseconds (sorted by [`run_load`]).
    pub latencies_us: Vec<u64>,
}

impl OpStats {
    fn record(&mut self, us: u64) {
        self.count += 1;
        self.latencies_us.push(us);
    }

    /// Latency at quantile `q` (0 ≤ q ≤ 1); 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((q * (self.latencies_us.len() - 1) as f64).round() as usize)
            .min(self.latencies_us.len() - 1);
        self.latencies_us[idx]
    }

    /// Mean latency in microseconds; 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::int(self.count)),
            ("mean_us", Json::Num(self.mean_us())),
            ("p50_us", Json::int(self.quantile_us(0.50) as usize)),
            ("p95_us", Json::int(self.quantile_us(0.95) as usize)),
            ("max_us", Json::int(self.quantile_us(1.0) as usize)),
        ])
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Total requests completed across all connections.
    pub requests: usize,
    /// Requests that returned an error (still counted in `requests`).
    pub errors: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_s: f64,
    /// Solve calls answered from the server's result cache.
    pub cached_solves: usize,
    /// Solve calls computed fresh.
    pub fresh_solves: usize,
    /// Calls re-sent after transport failures (all workers).
    pub retries: u64,
    /// Connections re-established after a failure (all workers).
    pub reconnects: u64,
    /// `retry_histogram[n]` = successful calls that needed `n` retries.
    pub retry_histogram: Vec<u64>,
    /// Workers that died early: `(worker index, what happened)`. A
    /// panicked or erroring worker lands here instead of voiding the
    /// whole run; its completed requests still count above.
    pub worker_errors: Vec<(usize, String)>,
    /// Per-operation latency tallies: `(op, stats)`.
    pub ops: Vec<(String, OpStats)>,
    /// Per-target tallies: `(address, requests, server errors)` — one
    /// row per distinct `--addr`, so a mixed router/backend run shows
    /// which target produced the failures.
    pub targets: Vec<(String, usize, usize)>,
}

impl LoadReport {
    fn op_mut(&mut self, op: &str) -> &mut OpStats {
        if let Some(i) = self.ops.iter().position(|(o, _)| o == op) {
            return &mut self.ops[i].1;
        }
        self.ops.push((op.to_string(), OpStats::default()));
        &mut self.ops.last_mut().unwrap().1
    }

    fn merge(&mut self, other: LoadReport) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.cached_solves += other.cached_solves;
        self.fresh_solves += other.fresh_solves;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        if self.retry_histogram.len() < other.retry_histogram.len() {
            self.retry_histogram.resize(other.retry_histogram.len(), 0);
        }
        for (i, n) in other.retry_histogram.into_iter().enumerate() {
            self.retry_histogram[i] += n;
        }
        self.worker_errors.extend(other.worker_errors);
        for (op, stats) in other.ops {
            let mine = self.op_mut(&op);
            mine.count += stats.count;
            mine.latencies_us.extend(stats.latencies_us);
        }
        for (addr, requests, errors) in other.targets {
            if let Some(row) = self.targets.iter_mut().find(|(a, _, _)| *a == addr) {
                row.1 += requests;
                row.2 += errors;
            } else {
                self.targets.push((addr, requests, errors));
            }
        }
    }

    /// Requests per second over the run.
    pub fn throughput(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / self.wall_s
    }

    /// Render the report as a JSON object (for bench output files).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::int(self.requests)),
            ("errors", Json::int(self.errors)),
            ("wall_s", Json::Num(self.wall_s)),
            ("throughput_rps", Json::Num(self.throughput())),
            ("cached_solves", Json::int(self.cached_solves)),
            ("fresh_solves", Json::int(self.fresh_solves)),
            ("retries", Json::int(self.retries as usize)),
            ("reconnects", Json::int(self.reconnects as usize)),
            (
                "retry_histogram",
                Json::Arr(
                    self.retry_histogram
                        .iter()
                        .map(|&n| Json::int(n as usize))
                        .collect(),
                ),
            ),
            (
                "worker_errors",
                Json::Arr(
                    self.worker_errors
                        .iter()
                        .map(|(w, e)| {
                            Json::obj([
                                ("worker", Json::int(*w)),
                                ("error", Json::Str(e.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::Obj(
                    self.ops
                        .iter()
                        .map(|(op, s)| (op.clone(), s.to_json()))
                        .collect(),
                ),
            ),
            (
                "targets",
                Json::Arr(
                    self.targets
                        .iter()
                        .map(|(addr, requests, errors)| {
                            Json::obj([
                                ("addr", Json::str(addr.clone())),
                                ("requests", Json::int(*requests)),
                                ("errors", Json::int(*errors)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One worker: connect (under the retry policy), drive the request
/// stream, and fold the client's transport counters into the report.
/// Failures come back as the `Option<String>` — the partial report is
/// kept either way.
fn worker_run(
    addr: SocketAddr,
    graph_text: &str,
    config: &LoadgenConfig,
    worker: usize,
) -> (LoadReport, Option<String>) {
    if config.pipeline >= 2 {
        return worker_run_pipelined(addr, graph_text, config, worker);
    }
    let mut report = LoadReport::default();
    let mut policy = config.retry.clone();
    policy.seed = policy.seed.wrapping_add(worker as u64);
    let mut client = match RetryingClient::connect(addr, config.client, policy) {
        Ok(c) => c,
        Err(e) => return (report, Some(format!("connect: {e}"))),
    };
    let outcome = worker_drive(&mut client, graph_text, config, worker, &mut report);
    let ts = client.transport_stats();
    report.retries += ts.retries;
    report.reconnects += ts.reconnects;
    if report.retry_histogram.len() < ts.retry_histogram.len() {
        report.retry_histogram.resize(ts.retry_histogram.len(), 0);
    }
    for (i, &n) in ts.retry_histogram.iter().enumerate() {
        report.retry_histogram[i] += n;
    }
    report.targets = vec![(addr.to_string(), report.requests, report.errors)];
    (report, outcome.err().map(|e| e.to_string()))
}

/// The worker's deterministic request stream.
fn worker_drive(
    client: &mut RetryingClient,
    graph_text: &str,
    config: &LoadgenConfig,
    worker: usize,
    report: &mut LoadReport,
) -> Result<(), ClientError> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(worker as u64));
    let started = Instant::now();
    let structure = client.register(graph_text)?;
    report.requests += 1;
    report
        .op_mut("register")
        .record(us_since(started));

    // Query the registered structure's size through a cheap evaluate-free
    // path: re-register returns vertices. Simpler: parse locally.
    let n = folearn_graph::io::parse_graph(graph_text)
        .map(|g| g.num_vertices())
        .unwrap_or(1)
        .max(1) as u32;

    // Pre-draw the sample pool: distinct labelled samples over the
    // structure; repeats within the run exercise the result cache.
    let pool: Vec<Vec<WireExample>> = (0..config.sample_pool.max(1))
        .map(|_| {
            let m = rng.random_range(4..=8usize);
            (0..m)
                .map(|_| WireExample {
                    tuple: vec![rng.random_range(0..n)],
                    label: rng.random_bool(0.5),
                })
                .collect()
        })
        .collect();
    let mut hypotheses: Vec<(u64, u64)> = Vec::new(); // (structure, id)

    for _ in 0..config.requests_per_conn {
        let roll = rng.random_range(0..100u32);
        let t0 = Instant::now();
        if roll < 55 {
            // Weighted toward solve: the cache is the thing under test.
            let sample = pool[rng.random_range(0..pool.len())].clone();
            match client.solve(
                structure,
                sample,
                config.ell,
                config.q,
                0.0,
                SolverSpec::default_brute(),
            ) {
                Ok(outcome) => {
                    if outcome.cached {
                        report.cached_solves += 1;
                    } else {
                        report.fresh_solves += 1;
                    }
                    hypotheses.push((structure, outcome.hypothesis.id));
                    report.op_mut("solve").record(us_since(t0));
                }
                Err(ClientError::Server { .. }) => report.errors += 1,
                Err(e) => return Err(e),
            }
        } else if roll < 75 && !hypotheses.is_empty() {
            let (s, h) = hypotheses[rng.random_range(0..hypotheses.len())];
            let tuples: Vec<Vec<u32>> = (0..4)
                .map(|_| vec![rng.random_range(0..n)])
                .collect();
            match client.evaluate(s, h, tuples, None) {
                Ok(_) => report.op_mut("evaluate").record(us_since(t0)),
                Err(ClientError::Server { .. }) => report.errors += 1,
                Err(e) => return Err(e),
            }
        } else if roll < 90 {
            match client.modelcheck(structure, "exists x0. exists x1. E(x0, x1)") {
                Ok(_) => report.op_mut("modelcheck").record(us_since(t0)),
                Err(ClientError::Server { .. }) => report.errors += 1,
                Err(e) => return Err(e),
            }
        } else {
            match client.stats() {
                Ok(_) => report.op_mut("stats").record(us_since(t0)),
                Err(ClientError::Server { .. }) => report.errors += 1,
                Err(e) => return Err(e),
            }
        }
        report.requests += 1;
    }
    Ok(())
}

fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Consecutive transport failures a pipelined worker tolerates before
/// giving up (any successful reply resets the count).
const PIPELINE_MAX_FAILURES: u32 = 8;

/// Connect one pipelined socket with the configured deadlines.
fn pipe_connect(
    addr: SocketAddr,
    config: &ClientConfig,
) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = match config.connect_timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// The pipelined worker: encode the full schedule up front, keep up to
/// `pipeline` requests in flight, and resume the schedule — never reset
/// it — across reconnects. Every request is answered exactly once in
/// the report, however many `bye`s or transport failures interrupt the
/// run, so per-target totals are exact.
fn worker_run_pipelined(
    addr: SocketAddr,
    graph_text: &str,
    config: &LoadgenConfig,
    worker: usize,
) -> (LoadReport, Option<String>) {
    let mut report = LoadReport::default();
    let window = config.pipeline.max(2);
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(worker as u64));

    // The structure hash is the FNV-1a of the *canonical* text (what
    // `register` returns), computable client-side — so solve frames can
    // be encoded before any reply has arrived.
    let g = match folearn_graph::io::parse_graph(graph_text) {
        Ok(g) => g,
        Err(e) => return (report, Some(format!("parse graph: {e}"))),
    };
    let n = (g.num_vertices().max(1)) as u32;
    let structure = fnv1a64(folearn_graph::io::to_text(&g).as_bytes());

    let sample_pool: Vec<Vec<WireExample>> = (0..config.sample_pool.max(1))
        .map(|_| {
            let m = rng.random_range(4..=8usize);
            (0..m)
                .map(|_| WireExample {
                    tuple: vec![rng.random_range(0..n)],
                    label: rng.random_bool(0.5),
                })
                .collect()
        })
        .collect();

    // The deterministic schedule: register first (idempotent — it must
    // land before any solve, and the strict ordering of pipelined
    // replies guarantees that), then the weighted mix. `evaluate` is
    // omitted: it needs a hypothesis id from an earlier reply, which is
    // exactly the dependency pipelining removes.
    let mut schedule: Vec<(&'static str, String)> = Vec::with_capacity(config.requests_per_conn + 1);
    schedule.push((
        "register",
        Request::Register {
            graph_text: graph_text.to_string(),
        }
        .encode(),
    ));
    for _ in 0..config.requests_per_conn {
        let roll = rng.random_range(0..100u32);
        let planned = if roll < 25 {
            ("ping", Request::Ping.encode())
        } else if roll < 80 {
            (
                "solve",
                Request::Solve {
                    structure,
                    examples: sample_pool[rng.random_range(0..sample_pool.len())].clone(),
                    ell: config.ell,
                    q: config.q,
                    epsilon: 0.0,
                    solver: SolverSpec::default_brute(),
                    trace: None,
                }
                .encode(),
            )
        } else if roll < 90 {
            (
                "modelcheck",
                Request::ModelCheck {
                    structure,
                    formula: "exists x0. exists x1. E(x0, x1)".to_string(),
                    engine: Default::default(),
                    trace: None,
                }
                .encode(),
            )
        } else {
            ("stats", Request::Stats.encode())
        };
        schedule.push(planned);
    }

    // `queue` holds schedule indices not yet sent (or needing re-send);
    // `pending` holds sent-but-unanswered ones, in wire order.
    let mut queue: VecDeque<usize> = (0..schedule.len()).collect();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut failures = 0u32;
    let mut first_conn = true;
    let mut line = String::new();

    'reconnect: while !queue.is_empty() || !pending.is_empty() {
        if failures >= PIPELINE_MAX_FAILURES {
            return (
                report,
                Some(format!("{failures} consecutive transport failures")),
            );
        }
        if !first_conn {
            report.reconnects += 1;
            // Brief deterministic backoff so a restarting daemon isn't
            // hammered in a tight loop.
            std::thread::sleep(Duration::from_millis(u64::from(failures.min(5)) * 5));
        }
        let (mut stream, mut reader) = match pipe_connect(addr, &config.client) {
            Ok(pair) => pair,
            Err(_) => {
                failures += 1;
                first_conn = false;
                continue 'reconnect;
            }
        };
        first_conn = false;

        loop {
            // Top up the in-flight window from the schedule.
            let mut batch = String::new();
            while pending.len() < window {
                let Some(idx) = queue.pop_front() else { break };
                batch.push_str(&schedule[idx].1);
                batch.push('\n');
                pending.push_back((idx, Instant::now()));
            }
            if !batch.is_empty() && stream.write_all(batch.as_bytes()).is_err() {
                failures += 1;
                requeue(&mut queue, &mut pending);
                continue 'reconnect;
            }
            if pending.is_empty() {
                break 'reconnect; // schedule complete
            }

            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    // Server closed (its request budget, most likely):
                    // everything unanswered moves to a fresh connection.
                    failures += 1;
                    requeue(&mut queue, &mut pending);
                    continue 'reconnect;
                }
                Ok(_) => match Response::decode(line.trim_end()) {
                    Ok(Response::Bye { .. }) => {
                        // Request budget / idle / shutdown: the front
                        // request was *not* served. Re-send the whole
                        // window; the schedule position is untouched.
                        requeue(&mut queue, &mut pending);
                        continue 'reconnect;
                    }
                    Ok(response) => {
                        let (idx, sent) = pending.pop_front().expect("reply implies pending");
                        failures = 0;
                        let op = schedule[idx].0;
                        match response {
                            Response::Error { message, .. }
                                if message.starts_with("malformed request") =>
                            {
                                // The frame was well-formed when sent, so
                                // this proves in-flight corruption: safe
                                // to re-send (same contract as
                                // `RetryPolicy::is_retryable`).
                                report.retries += 1;
                                queue.push_front(idx);
                            }
                            Response::Error { .. } => {
                                report.requests += 1;
                                report.errors += 1;
                            }
                            Response::Solved(outcome) => {
                                report.requests += 1;
                                if outcome.cached {
                                    report.cached_solves += 1;
                                } else {
                                    report.fresh_solves += 1;
                                }
                                report.op_mut(op).record(us_since(sent));
                            }
                            _ => {
                                report.requests += 1;
                                report.op_mut(op).record(us_since(sent));
                            }
                        }
                    }
                    Err(_) => {
                        // Garbage on the wire: abandon the connection,
                        // nothing was answered.
                        failures += 1;
                        requeue(&mut queue, &mut pending);
                        continue 'reconnect;
                    }
                },
                Err(_) => {
                    failures += 1;
                    requeue(&mut queue, &mut pending);
                    continue 'reconnect;
                }
            }
        }
    }
    report.targets = vec![(addr.to_string(), report.requests, report.errors)];
    (report, None)
}

/// Move every sent-but-unanswered request back to the front of the
/// send queue, preserving schedule order.
fn requeue(queue: &mut VecDeque<usize>, pending: &mut VecDeque<(usize, Instant)>) {
    while let Some((idx, _)) = pending.pop_back() {
        queue.push_front(idx);
    }
}

/// Drive `config.connections` concurrent workers against the daemon at
/// `addr`, all over the same structure. Returns the merged report with
/// sorted latency vectors. A worker that errors or panics becomes a
/// [`LoadReport::worker_errors`] row (its completed requests still
/// count) rather than voiding the run.
pub fn run_load(addr: SocketAddr, graph_text: &str, config: &LoadgenConfig) -> LoadReport {
    run_load_multi(&[addr], graph_text, config)
}

/// Like [`run_load`], but spread workers round-robin over several
/// targets (worker `w` drives `addrs[w % addrs.len()]`) — so one run can
/// mix a cluster router and raw backends and compare them via the
/// per-target rows of the report.
///
/// # Panics
/// Panics if `addrs` is empty.
pub fn run_load_multi(
    addrs: &[SocketAddr],
    graph_text: &str,
    config: &LoadgenConfig,
) -> LoadReport {
    assert!(!addrs.is_empty(), "run_load_multi needs at least one addr");
    let started = Instant::now();
    let mut merged = LoadReport::default();
    let results: Vec<std::thread::Result<(LoadReport, Option<String>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.connections.max(1))
                .map(|w| {
                    let addr = addrs[w % addrs.len()];
                    scope.spawn(move || worker_run(addr, graph_text, config, w))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
    for (worker, joined) in results.into_iter().enumerate() {
        match joined {
            Ok((report, error)) => {
                merged.merge(report);
                if let Some(e) = error {
                    merged.worker_errors.push((worker, e));
                }
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                merged
                    .worker_errors
                    .push((worker, format!("worker panicked: {message}")));
            }
        }
    }
    merged.wall_s = started.elapsed().as_secs_f64();
    for (_, stats) in &mut merged.ops {
        stats.latencies_us.sort_unstable();
    }
    merged
}
