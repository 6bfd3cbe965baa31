//! The daemon: TCP listener, structure registry, solve dispatch, and
//! graceful shutdown.
//!
//! Connections are served by the event core ([`crate::event_loop`],
//! Linux-only; elsewhere [`start`] fails with `Unsupported`): a fixed
//! set of loop threads, each blocked in `epoll_wait` until a socket, a
//! completed job or a deadline needs it, drives every connection with
//! per-connection read/write buffers and decodes many pipelined frames
//! per wakeup. This module is its [`EventHandler`]: cheap requests
//! (ping, stats, register, cache hits, validation errors) are answered
//! inline on the loop thread, and compute-shaped work (`solve`,
//! `evaluate`, `modelcheck`) is offloaded to the bounded
//! [`WorkerPool`], whose callbacks complete the connection's ordered
//! response slots. Duplicate solves planned before their twin's result
//! reaches the cache — routine inside a pipelined window — coalesce
//! onto the one in-flight computation ([`State::inflight`]) and are
//! replayed to every waiter as cache hits when it lands.
//!
//! Backpressure is structural: the pool queue is bounded (a full queue
//! parks the job on its connection), a connection may have at most
//! `max_inflight_per_conn` requests in flight, and each connection is
//! closed after [`ServerConfig::max_requests_per_conn`] requests.
//! Resource exhaustion degrades instead of panicking: past the
//! connection cap a fresh connection gets one reply and a close,
//! counted as `rejected_connections`.
//!
//! # Registry and arenas
//!
//! Structures are parsed once at `register` and addressed by the FNV-1a
//! hash of their *canonical* serialisation (`io::to_text` of the parsed
//! graph), so textual variants of the same structure dedupe. The
//! registry, the hypothesis store, and the LRU result cache are
//! sharded by a splitmix64 finalizer over those content hashes
//! ([`crate::cache::ShardedMap`] / [`crate::cache::ShardedCache`]), so
//! concurrent requests stop serializing on one lock. Hypotheses are
//! content-addressed too: a solve's id is [`hypothesis_id`] of its
//! request — the digest of the [`solve_key`] that keys the result cache
//! and the in-flight table — and keys the store, so a repeat solve
//! (here, on a replica, or after a restart) names the same hypothesis
//! by the same id. Type arenas are
//! shared per vocabulary colour count — the same discipline as
//! `folearn_hardness::oracle::BruteForceOracle` — which makes type ids
//! (and hence the `types` lists in `solved` responses) comparable
//! across calls for the lifetime of the daemon. That is what lets a
//! remote client group equal oracle answers exactly like the
//! in-process oracle does.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use folearn::bruteforce::BruteForceOpts;
use folearn::ndlearner::NdConfig;
use folearn::problem::{ErmInstance, TrainingSequence};
use folearn::{solve_fo_erm_with_engine, Hypothesis, SharedArena, Solver};
use folearn_graph::{io, Graph, V};
use folearn_logic::parser;
use folearn_logic::vm::EvalEngine;
use folearn_obs::Registry;
use folearn_types::TypeArena;
use parking_lot::Mutex;

use crate::cache::{ShardedCache, ShardedMap};
use crate::event_loop::{
    auto_loops, Dispatch, EventCore, EventHandler, EventLoopOptions, Responder, Shutdown,
};
use crate::framing::{ConnEvent, ConnLimits};
use crate::pool::{reply_or_panic, Job, TrySubmit, WorkerPool};
use crate::proto::{
    fnv1a64, hex64, hypothesis_id, key_id, solve_key, Json, Request, Response, SolveOutcome,
    SolverSpec, TraceContext, WireBinding, WireExample, WireHypothesis,
};
use crate::snapshot::{Durability, DurableRecord, DEFAULT_SNAPSHOT_EVERY};

/// Hard ceiling on per-request solver threads: a typo like
/// `--threads 999999` must fail with a protocol error, not abort the
/// daemon trying to spawn a million OS threads.
pub const MAX_SOLVER_THREADS: usize = 256;

/// The `stats` layout: every slot in render order (see
/// [`Registry::new`]). `core` (always `"event"`, kept for wire
/// compatibility), `durable` and `cache.hit_rate` are rendered by
/// [`handle_stats`]; the rest are counters and gauges.
const STATS_LAYOUT: &[&str] = &[
    "connections",
    "over_limit_closes",
    "idle_closes",
    "oversize_closes",
    "truncated_frames",
    "rejected_connections",
    "worker_panics",
    "core",
    "event_loops",
    "structures",
    "hypotheses",
    "durable",
    "wal_records_written",
    "wal_records_replayed",
    "snapshot_loads",
    "torn_tail_truncations",
    "recovery_ms",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.entries",
    "cache.shards",
    "cache.hit_rate",
    "solver.evaluated_params",
    "solver.pruned_params",
    "endpoints",
    "spans",
    "series",
];

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads for compute requests (`0` = one per core).
    pub workers: usize,
    /// Pending compute jobs before the event core parks further ones
    /// on their connections.
    pub queue_depth: usize,
    /// Result-cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Requests served per connection before the daemon closes it.
    pub max_requests_per_conn: usize,
    /// Capture a learner-level span tree per solve (surfaced as the
    /// `trace` field of `solved` responses and aggregated under `spans`
    /// in the `stats` payload). Enabling turns on `folearn_obs` capture
    /// process-wide; disabling leaves the global flag untouched.
    pub trace: bool,
    /// Longest request line the daemon will buffer. A peer that exceeds
    /// it (oversized frame, or a byte stream with no newline at all)
    /// gets one `error` response and the connection is closed — buffer
    /// growth is bounded no matter what arrives.
    pub max_line_bytes: usize,
    /// Close a connection after this long without activity (a completed
    /// request or partial bytes of an in-progress frame). Bounds
    /// abandoned sockets; the oversize cap bounds slow-loris peers.
    /// The event core wakes at the deadline.
    pub idle_timeout: Duration,
    /// Concurrent connections the daemon accepts; above the cap a fresh
    /// connection is greeted with `bye` and closed (counted under
    /// `rejected_connections`).
    pub max_connections: usize,
    /// Readiness-loop shard threads (`0` = one per host core, capped at
    /// 4 — the loops are I/O-bound).
    pub event_loops: usize,
    /// Pipelined requests one connection may have in flight before the
    /// event core stops reading from it.
    pub max_inflight_per_conn: usize,
    /// Lock shards for the result cache, the structure registry, and
    /// the hypothesis store.
    pub cache_shards: usize,
    /// Durable-state directory. When set, every new structure and
    /// hypothesis is fsync'd into a write-ahead log there, once, before
    /// the response is sent, and startup replays the log into
    /// bit-identical pre-crash state. `None` (the default) keeps
    /// today's in-memory behaviour, byte-for-byte.
    pub data_dir: Option<std::path::PathBuf>,
    /// The fewest WAL appends between compaction checks (`0` = the
    /// default, [`crate::snapshot::DEFAULT_SNAPSHOT_EVERY`]). A check
    /// compacts only when dead frames outnumber live ones, which a log
    /// this build wrote never has.
    pub snapshot_every: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
            max_requests_per_conn: 100_000,
            trace: true,
            max_line_bytes: 4 << 20,
            idle_timeout: Duration::from_secs(300),
            max_connections: 256,
            event_loops: 0,
            max_inflight_per_conn: 32,
            cache_shards: 8,
            data_dir: None,
            snapshot_every: 0,
        }
    }
}

struct StoredHypothesis {
    hypothesis: Hypothesis,
    /// The structure the hypothesis was learned on (evaluate requests
    /// must target the same one).
    structure: u64,
}

struct State {
    graphs: ShardedMap<Arc<Graph>>,
    arenas: Mutex<HashMap<usize, SharedArena>>,
    hypotheses: ShardedMap<Arc<StoredHypothesis>>,
    /// Solve results plus the instant each entry was captured, so a
    /// replayed trace can be stamped with its age.
    cache: ShardedCache<(SolveOutcome, Instant)>,
    /// Solve computations currently running on the pool, keyed like the
    /// result cache. A pipelined duplicate of a solve
    /// whose twin has been planned but not yet cached attaches its
    /// responder here instead of recomputing; the running job fans its
    /// outcome out to every waiter when it completes.
    inflight: Mutex<HashMap<(u64, u64, u64), Vec<Responder>>>,
    metrics: Registry,
    shutdown: Arc<Shutdown>,
    max_requests_per_conn: usize,
    max_line_bytes: usize,
    idle_timeout: Duration,
    /// The open durability layer, present only under `--data-dir`.
    /// `None` throughout startup replay, so replayed mutations are
    /// never re-appended to the log they came from.
    durable: Mutex<Option<Durability>>,
    /// Whether the daemon runs with a data dir (`stats`' `durable`
    /// flag; read without waiting on a WAL append's lock).
    is_durable: bool,
}

impl State {
    fn new(config: &ServerConfig) -> Self {
        let shards = config.cache_shards.max(1);
        State {
            graphs: ShardedMap::new(shards),
            arenas: Mutex::new(HashMap::new()),
            hypotheses: ShardedMap::new(shards),
            cache: ShardedCache::new(config.cache_capacity, shards),
            inflight: Mutex::new(HashMap::new()),
            metrics: Registry::new("server", STATS_LAYOUT),
            shutdown: Arc::default(),
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            max_line_bytes: config.max_line_bytes.max(1),
            idle_timeout: config.idle_timeout,
            durable: Mutex::new(None),
            is_durable: config.data_dir.is_some(),
        }
    }

    fn graph(&self, hash: u64) -> Result<Arc<Graph>, String> {
        self.graphs
            .get(hash)
            .ok_or_else(|| format!("unknown structure {}", crate::proto::hex64(hash)))
    }

    /// The shared arena for this graph's vocabulary (keyed by colour
    /// count, as in the in-process oracle).
    fn arena_for(&self, g: &Graph) -> SharedArena {
        let mut arenas = self.arenas.lock();
        Arc::clone(
            arenas
                .entry(g.vocab().num_colors())
                .or_insert_with(|| {
                    Arc::new(Mutex::new(TypeArena::new(Arc::clone(g.vocab()))))
                }),
        )
    }

    fn limits(&self) -> ConnLimits {
        ConnLimits {
            max_requests_per_conn: self.max_requests_per_conn,
            max_line_bytes: self.max_line_bytes,
            idle_timeout: self.idle_timeout,
        }
    }

    /// Make one mutation durable, if durability is active: the
    /// append fsyncs before returning (or finds the key already
    /// logged), so once this is `Ok` the mutation survives `kill -9`.
    /// On `Err` the caller must not ack the mutation.
    fn persist(&self, record: &DurableRecord) -> std::io::Result<()> {
        let mut durable = self.durable.lock();
        if let Some(d) = durable.as_mut() {
            if d.append(record)? {
                self.metrics.add("wal_records_written", 1);
            }
        }
        Ok(())
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::wait`] aborts less
/// gracefully (threads are detached), so call one of them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    core: EventCore,
    pool: Arc<WorkerPool>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections currently owned by the event loops.
    pub fn tracked_connections(&self) -> usize {
        self.core.live()
    }

    /// Ask the daemon to stop, then wait for all threads.
    pub fn shutdown(mut self) {
        self.state.shutdown.request();
        self.join_all();
    }

    /// Block until a client issues a `shutdown` request, then clean up.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        // Shards flush in-flight responses (bounded by the shutdown
        // grace) and exit; their handler clones — the only other pool
        // references — drop with them. Jobs never capture the pool (see
        // `WorkerPool::panic_cell`).
        self.core.join();
        if let Some(pool) = Arc::get_mut(&mut self.pool) {
            pool.shutdown();
        }
    }
}

/// Bind and start serving. Returns once the listener is live.
pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    if config.trace {
        folearn_obs::set_enabled(true);
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let loops = auto_loops(config.event_loops);
    let state = Arc::new(State::new(config));
    state
        .metrics
        .set("cache.shards", state.cache.num_shards() as u64);
    if let Some(dir) = &config.data_dir {
        let every = if config.snapshot_every == 0 {
            DEFAULT_SNAPSHOT_EVERY
        } else {
            config.snapshot_every
        };
        recover(&state, dir, every)?;
    }
    state.metrics.set("event_loops", loops as u64);
    let pool = Arc::new(WorkerPool::new(config.workers, config.queue_depth));
    let opts = EventLoopOptions {
        limits: state.limits(),
        max_inflight_per_conn: config.max_inflight_per_conn.max(1),
    };
    let handler = Arc::new(ServerDispatch {
        state: Arc::clone(&state),
        pool: Arc::clone(&pool),
    });
    let core = EventCore::start(
        "folearn",
        listener,
        handler,
        opts,
        loops,
        config.max_connections.max(1),
        &state.shutdown,
    )?;
    Ok(ServerHandle {
        addr,
        state,
        core,
        pool,
    })
}

/// Replay the durable history of `dir` into a freshly built state,
/// then activate the WAL for new mutations.
///
/// Replayed solves run through the same [`plan_solve`]/[`run_solve`]
/// path as live traffic, so arenas, type keys, the store and the result
/// cache warm exactly as they stood: recovered state is bit-identical,
/// not merely equivalent. Each solve's id is re-derived from its
/// request, so a key logged twice names one hypothesis. A record whose
/// `id` differs from that re-derivation — written by a build that
/// numbered hypotheses with a counter — keeps its logged id answering
/// as an alias of the derived one (and says so on stderr, naming both),
/// so a client holding the old name is not cut off by an upgrade.
fn recover(state: &Arc<State>, dir: &std::path::Path, snapshot_every: usize) -> std::io::Result<()> {
    let started = Instant::now();
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let (durability, records, stats) = Durability::open(dir, snapshot_every)?;
    for record in &records {
        match record {
            DurableRecord::Register { graph_text } => {
                if let Response::Error { message, .. } = handle_register(state, graph_text) {
                    return Err(bad(format!("replay: register failed: {message}")));
                }
            }
            DurableRecord::Solve { id, request } => {
                let Request::Solve {
                    structure,
                    examples,
                    ell,
                    q,
                    epsilon,
                    solver,
                    ..
                } = request
                else {
                    return Err(bad("replay: solve record without solve request".into()));
                };
                let response = match plan_solve(
                    state, *structure, examples, *ell, *q, *epsilon, solver, None,
                ) {
                    Ok(job) => run_solve(state, job),
                    Err(response) => response,
                };
                if let Response::Error { message, .. } = response {
                    return Err(bad(format!("replay: solve failed: {message}")));
                }
                let derived = hypothesis_id(*structure, examples, *ell, *q, *epsilon, solver);
                if derived != *id {
                    eprintln!(
                        "folearn-server: replay: logged hypothesis {} is {} by content; \
                         both ids answer",
                        hex64(*id),
                        hex64(derived)
                    );
                    if let Some(stored) = state.hypotheses.get(derived) {
                        state.hypotheses.insert(*id, stored);
                    }
                }
            }
        }
    }
    state
        .metrics
        .set("wal_records_replayed", stats.records_replayed());
    state.metrics.set("snapshot_loads", stats.snapshot_loads);
    state
        .metrics
        .set("torn_tail_truncations", stats.torn_tail_truncations);
    state
        .metrics
        .set("recovery_ms", started.elapsed().as_millis() as u64);
    *state.durable.lock() = Some(durability);
    Ok(())
}

/// The daemon's event handler: cheap requests answered inline on the
/// loop thread, compute-shaped ones packaged into pool jobs that
/// complete the ordered response slot when they run.
struct ServerDispatch {
    state: Arc<State>,
    pool: Arc<WorkerPool>,
}

/// Owns an entry in [`State::inflight`] for the lifetime of one solve
/// job. Dropping it removes the entry and with it any still-attached
/// waiter responders — so even if the job panics on a worker, or is
/// dropped unrun (pool closed, owning connection gone while the job was
/// parked), every coalesced duplicate gets its slot answered (by the
/// responder's own drop reply) instead of hanging on a dead entry.
struct InflightGuard {
    state: Arc<State>,
    key: (u64, u64, u64),
}

impl InflightGuard {
    /// Detach and return the waiters accumulated so far.
    fn take_waiters(&self) -> Vec<Responder> {
        self.state
            .inflight
            .lock()
            .remove(&self.key)
            .unwrap_or_default()
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        drop(self.take_waiters());
    }
}

impl ServerDispatch {
    /// Package `run` into a pool job that completes `responder`,
    /// catching panics into an error reply (the worker thread survives
    /// either way; see the pool's own `catch_unwind` backstop).
    fn offload(
        &self,
        prefix: &'static str,
        responder: Responder,
        run: impl FnOnce(&Arc<State>) -> Response + Send + 'static,
    ) -> Dispatch {
        let state = Arc::clone(&self.state);
        let panics = self.pool.panic_cell();
        let job: Job = Box::new(move || {
            responder.complete(reply_or_panic(prefix, &panics, || run(&state)));
        });
        match self.pool.try_submit(job) {
            Ok(()) => Dispatch::Accepted,
            Err(TrySubmit::Full(job)) => Dispatch::Busy(job),
            // Pool is shutting down: the dropped job's responder has
            // already answered the slot with an error.
            Err(TrySubmit::Closed) => Dispatch::Accepted,
        }
    }
}

impl EventHandler for ServerDispatch {
    fn dispatch(&self, req: Request, responder: Responder) -> Dispatch {
        match req {
            Request::Ping => {
                responder.complete(Response::Pong);
                Dispatch::Accepted
            }
            Request::Shutdown => {
                responder.complete(Response::Bye {
                    reason: "shutdown".to_string(),
                });
                Dispatch::Accepted
            }
            Request::Stats => {
                responder.complete(handle_stats(&self.state, &self.pool));
                Dispatch::Accepted
            }
            Request::Inventory { hypotheses } => {
                responder.complete(handle_inventory(&self.state, hypotheses));
                Dispatch::Accepted
            }
            Request::Register { graph_text } => {
                responder.complete(handle_register(&self.state, &graph_text));
                Dispatch::Accepted
            }
            Request::Solve {
                structure,
                examples,
                ell,
                q,
                epsilon,
                solver,
                trace,
            } => match plan_solve(
                &self.state, structure, &examples, ell, q, epsilon, &solver, trace,
            ) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => {
                    // Coalesce a duplicate of an in-flight solve: the
                    // pipelined window lets identical solves be planned
                    // before the first result reaches the cache, and
                    // recomputing each would collapse exactly the way
                    // this core exists to fix. Attach the responder to
                    // the running job; it replays the outcome to every
                    // waiter on completion.
                    let key = job.cache_key;
                    {
                        let mut inflight = self.state.inflight.lock();
                        if let Some(waiters) = inflight.get_mut(&key) {
                            waiters.push(responder);
                            self.state.metrics.series(|s| s.record_cache(true));
                            return Dispatch::Accepted;
                        }
                        inflight.insert(key, Vec::new());
                    }
                    self.state.metrics.series(|s| s.record_cache(false));
                    let guard = InflightGuard {
                        state: Arc::clone(&self.state),
                        key,
                    };
                    self.offload("solve", responder, move |state| {
                        let response = run_solve(state, job);
                        let waiters = guard.take_waiters();
                        if let Response::Solved(outcome) = &response {
                            for waiter in waiters {
                                let mut replay = outcome.clone();
                                replay.cached = true;
                                replay.trace =
                                    replay.trace.map(|t| stamp_replay(t, Duration::ZERO));
                                state.metrics.series(|s| s.record_cache(true));
                                waiter.complete(Response::Solved(replay));
                            }
                        } else {
                            for waiter in waiters {
                                waiter.complete(response.clone());
                            }
                        }
                        response
                    })
                }
            },
            Request::Evaluate {
                structure,
                hypothesis,
                tuples,
                labels,
            } => match plan_evaluate(&self.state, structure, hypothesis, tuples, labels) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => {
                    self.offload("evaluate", responder, move |_| run_evaluate(job))
                }
            },
            Request::ModelCheck {
                structure,
                formula,
                engine,
                trace,
            } => match plan_modelcheck(&self.state, structure, &formula, engine, trace) {
                Err(response) => {
                    responder.complete(response);
                    Dispatch::Accepted
                }
                Ok(job) => self.offload("modelcheck", responder, move |state| {
                    run_modelcheck(state, job)
                }),
            },
        }
    }

    fn retry(&self, job: Job) -> Result<(), Job> {
        match self.pool.try_submit(job) {
            Ok(()) => Ok(()),
            Err(TrySubmit::Full(job)) => Err(job),
            // Dropped job: its responder answered the slot already.
            Err(TrySubmit::Closed) => Ok(()),
        }
    }

    fn observe(&self, op: &'static str, us: u64, ok: bool) {
        self.state.metrics.record_request(op, us, ok);
    }

    fn conn_event(&self, ev: ConnEvent) {
        self.state.metrics.add(ev.name(), 1);
    }

    fn wants_shutdown(&self) {
        self.state.shutdown.request();
    }
}

fn handle_stats(state: &Arc<State>, pool: &Arc<WorkerPool>) -> Response {
    let metrics = &state.metrics;
    let (hits, misses, evictions) = state.cache.counters();
    metrics.set("cache.hits", hits);
    metrics.set("cache.misses", misses);
    metrics.set("cache.evictions", evictions);
    metrics.set("cache.entries", state.cache.len() as u64);
    metrics.set("structures", state.graphs.len() as u64);
    metrics.set("hypotheses", state.hypotheses.len() as u64);
    metrics.set("worker_panics", pool.panic_count());
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    Response::Stats {
        data: metrics.snapshot(vec![
            ("core", Json::str("event")),
            ("durable", Json::Bool(state.is_durable)),
            ("cache.hit_rate", Json::Num(hit_rate)),
        ]),
    }
}

/// The reply to a mutation whose WAL append failed: nothing was acked,
/// so the client may retry.
fn not_durable(op: &str, e: &std::io::Error) -> Response {
    Response::error_coded("not_durable", format!("{op}: WAL append failed: {e}"))
}

fn handle_register(state: &Arc<State>, graph_text: &str) -> Response {
    match io::parse_graph(graph_text) {
        Ok(g) => {
            let canonical = io::to_text(&g);
            let hash = fnv1a64(canonical.as_bytes());
            let (vertices, edges) = (g.num_vertices(), g.num_edges());
            // Log before the structure becomes visible, so no solve can
            // log a record naming a structure the log lacks. Every
            // register is logged (the log skips a known one), so a retry
            // of one whose append failed logs it. The canonical text is
            // logged, not the client's spelling: replay re-derives the
            // identical content hash.
            if let Err(e) = state.persist(&DurableRecord::Register {
                graph_text: canonical,
            }) {
                return not_durable("register", &e);
            }
            let fresh = state.graphs.insert(hash, Arc::new(g));
            Response::Registered {
                structure: hash,
                vertices,
                edges,
                fresh,
                replicas: None,
            }
        }
        Err(e) => Response::error(format!("register: {e}")),
    }
}

/// Answer `inventory` inline on a loop thread: sorted structure hashes,
/// plus (when `hypotheses` is set) the sorted `(id, structure)` pairs
/// of the store. Without them the store is never touched, so the
/// repair sweep's cost tracks the structures, not every solve ever
/// answered. Sorting makes two inventories comparable byte-for-byte.
fn handle_inventory(state: &Arc<State>, hypotheses: bool) -> Response {
    let mut structures: Vec<u64> = state.graphs.entries().into_iter().map(|(k, _)| k).collect();
    structures.sort_unstable();
    let mut hypotheses: Vec<WireBinding> = if hypotheses {
        state
            .hypotheses
            .entries()
            .into_iter()
            .map(|(id, h)| WireBinding {
                id,
                structure: h.structure,
            })
            .collect()
    } else {
        Vec::new()
    };
    hypotheses.sort_unstable_by_key(|b| b.id);
    Response::Inventory {
        structures,
        hypotheses,
    }
}

/// Stamp a cache-replayed trace with `replayed: true` and the age of
/// the original capture, so a rendered trace makes replays
/// unmistakable. A trace that fails to parse rides through untouched.
fn stamp_replay(trace: Json, age: Duration) -> Json {
    match folearn_obs::export::span_from_json(&trace) {
        Ok(mut rec) => {
            rec.meta.push(("replayed".to_string(), Json::Bool(true)));
            rec.meta.push((
                "replay_age_ms".to_string(),
                Json::int(age.as_millis() as usize),
            ));
            folearn_obs::export::span_to_json(&rec)
        }
        Err(_) => trace,
    }
}

/// A validated solve, ready to run on a worker thread.
struct SolveJob {
    g: Arc<Graph>,
    seq: TrainingSequence,
    arena: SharedArena,
    k: usize,
    ell: usize,
    q: usize,
    epsilon: f64,
    rust_solver: Solver,
    engine: EvalEngine,
    structure: u64,
    /// [`solve_key`] of the request; its digest is the hypothesis id.
    cache_key: (u64, u64, u64),
    trace_ctx: Option<TraceContext>,
    /// The wire-form `(sample, config)` pair, carried so the completed
    /// solve can be WAL-logged as a replayable request. The hypothesis
    /// itself is never persisted — it is derivable from this triple.
    wire_examples: Vec<WireExample>,
    solver_spec: SolverSpec,
}

/// Validate a solve request and check the result cache. `Err` is the
/// immediate response (validation error or cache replay), answered
/// inline; `Ok` is the prepared compute job.
// A large Err is fine here: Err *is* the wire reply (cache replay or
// validation error), built once and moved straight to the responder.
#[allow(clippy::too_many_arguments, clippy::result_large_err)]
fn plan_solve(
    state: &Arc<State>,
    structure: u64,
    examples: &[WireExample],
    ell: usize,
    q: usize,
    epsilon: f64,
    solver: &SolverSpec,
    trace_ctx: Option<TraceContext>,
) -> Result<SolveJob, Response> {
    let fail = |m: String| Err(Response::error(m));
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("solve: {e}"),
            ))
        }
    };
    if examples.is_empty() {
        return fail("solve: examples must be non-empty".to_string());
    }
    let k = examples[0].tuple.len();
    if k == 0 {
        return fail("solve: example tuples must be non-empty".to_string());
    }
    for e in examples {
        if e.tuple.len() != k {
            return fail("solve: examples must all have the same arity".to_string());
        }
        if let Some(&v) = e.tuple.iter().find(|&&v| v as usize >= g.num_vertices()) {
            return fail(format!("solve: vertex {v} out of range"));
        }
    }
    if !epsilon.is_finite() || epsilon < 0.0 {
        return fail("solve: epsilon must be a non-negative finite number".to_string());
    }
    if let SolverSpec::Brute {
        threads: Some(t), ..
    } = solver
    {
        if *t > MAX_SOLVER_THREADS {
            return fail(format!(
                "solve: threads must be at most {MAX_SOLVER_THREADS} (got {t})"
            ));
        }
    }

    let cache_key = solve_key(structure, examples, ell, q, epsilon, solver);
    if let Some((mut outcome, captured_at)) = state.cache.get(&cache_key) {
        outcome.cached = true;
        outcome.trace = outcome
            .trace
            .map(|t| stamp_replay(t, captured_at.elapsed()));
        state.metrics.series(|s| s.record_cache(true));
        return Err(Response::Solved(outcome));
    }
    // The miss is recorded by the caller: the event core first checks
    // the in-flight table, where a coalesced duplicate still counts as
    // a hit.

    let (rust_solver, engine) = match solver {
        SolverSpec::Brute {
            mode,
            threads,
            prune,
            engine,
        } => (
            Solver::BruteForce {
                mode: *mode,
                opts: BruteForceOpts {
                    threads: *threads,
                    prune: *prune,
                    block_size: None,
                },
            },
            *engine,
        ),
        SolverSpec::Nd => (
            Solver::NowhereDense(NdConfig::default()),
            EvalEngine::TreeWalk,
        ),
    };
    let seq = TrainingSequence::from_pairs(
        examples
            .iter()
            .map(|e| (e.tuple.iter().map(|&v| V(v)).collect::<Vec<_>>(), e.label)),
    );
    let arena = state.arena_for(&g);
    Ok(SolveJob {
        g,
        seq,
        arena,
        k,
        ell,
        q,
        epsilon,
        rust_solver,
        engine,
        structure,
        cache_key,
        trace_ctx,
        wire_examples: examples.to_vec(),
        solver_spec: solver.clone(),
    })
}

/// Run a prepared solve on a worker thread: learn, store the
/// hypothesis, cache the outcome.
fn run_solve(state: &Arc<State>, job: SolveJob) -> Response {
    // The span closes on this pool worker thread; its record rides
    // back in the outcome (and into the metrics rollup) rather than
    // through the thread-local root buffer.
    let sp = folearn_obs::span("server.solve");
    if let Some(ctx) = job.trace_ctx {
        // Bind this span under the propagated parent so a router (or
        // any other caller) can stitch it into its own span tree.
        folearn_obs::meta("trace_id", Json::str(hex64(ctx.trace_id)));
        folearn_obs::meta("parent", Json::str(hex64(ctx.parent)));
    }
    let inst = ErmInstance::new(&job.g, job.seq, job.k, job.ell, job.q, job.epsilon);
    let report = solve_fo_erm_with_engine(&inst, &job.rust_solver, &job.arena, job.engine);
    let id = key_id(job.cache_key);
    let h = &report.hypothesis;
    // Canonical keys make the hypothesis recognisable across
    // backends: arena-relative `types` differ between servers, the
    // content hashes do not.
    let type_keys = {
        let arena = h.arena().lock();
        let mut ck = folearn_types::canon::CanonKeys::new();
        ck.key_set(&arena, h.positive_types().iter().copied())
    };
    let wire = WireHypothesis {
        id,
        params: h.params().iter().map(|v| v.0).collect(),
        q: h.q,
        mode: h.mode.to_string(),
        types: h.positive_types().iter().map(|t| t.0).collect(),
        type_keys,
        describe: h.describe(),
    };
    // WAL the derivation triple before the id is stored, cached or
    // sent: once a client sees this id, the id survives `kill -9`. A
    // failed append stores nothing, so a retry re-solves and logs.
    if let Err(e) = state.persist(&DurableRecord::Solve {
        id,
        request: Request::Solve {
            structure: job.structure,
            examples: job.wire_examples,
            ell: job.ell,
            q: job.q,
            epsilon: job.epsilon,
            solver: job.solver_spec,
            trace: None,
        },
    }) {
        // Close the span here: dropped open, it would park in this
        // worker's root buffer, which nothing drains.
        drop(sp.finish());
        return not_durable("solve", &e);
    }
    state.hypotheses.insert(
        id,
        Arc::new(StoredHypothesis {
            hypothesis: report.hypothesis.clone(),
            structure: job.structure,
        }),
    );
    state
        .metrics
        .add("solver.evaluated_params", report.evaluated_params as u64);
    state
        .metrics
        .add("solver.pruned_params", report.pruned_params as u64);
    let trace = sp.finish().map(|rec| {
        state.metrics.absorb_span(&rec);
        folearn_obs::export::span_to_json(&rec)
    });
    let outcome = SolveOutcome {
        cached: false,
        error: report.error,
        work: report.work,
        solver: report.solver_name.to_string(),
        hypothesis: wire,
        trace,
        provenance: None,
    };
    state
        .cache
        .insert(job.cache_key, (outcome.clone(), Instant::now()));
    Response::Solved(outcome)
}

/// A validated evaluate, ready to run on a worker thread.
struct EvalJob {
    g: Arc<Graph>,
    hypothesis: Hypothesis,
    tuples: Vec<Vec<u32>>,
    labels: Option<Vec<bool>>,
}

#[allow(clippy::result_large_err)] // Err is the wire reply, moved once.
fn plan_evaluate(
    state: &Arc<State>,
    structure: u64,
    hypothesis: u64,
    tuples: Vec<Vec<u32>>,
    labels: Option<Vec<bool>>,
) -> Result<EvalJob, Response> {
    let fail = |m: String| Err(Response::error(m));
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("evaluate: {e}"),
            ))
        }
    };
    let h = match state.hypotheses.get(hypothesis) {
        Some(s) if s.structure == structure => s.hypothesis.clone(),
        Some(_) => {
            return fail("evaluate: hypothesis was learned on a different structure".to_string())
        }
        None => {
            return Err(Response::error_coded(
                "unknown_hypothesis",
                format!(
                    "evaluate: unknown hypothesis {}",
                    crate::proto::hex64(hypothesis)
                ),
            ))
        }
    };
    for t in &tuples {
        if let Some(&v) = t.iter().find(|&&v| v as usize >= g.num_vertices()) {
            return fail(format!("evaluate: vertex {v} out of range"));
        }
    }
    if let Some(ls) = &labels {
        if ls.len() != tuples.len() {
            return fail("evaluate: labels must be parallel to tuples".to_string());
        }
    }
    Ok(EvalJob {
        g,
        hypothesis: h,
        tuples,
        labels,
    })
}

fn run_evaluate(job: EvalJob) -> Response {
    let predictions: Vec<bool> = job
        .tuples
        .iter()
        .map(|t| {
            let tuple: Vec<V> = t.iter().map(|&v| V(v)).collect();
            job.hypothesis.predict(&job.g, &tuple)
        })
        .collect();
    let error = job.labels.map(|ls| {
        if predictions.is_empty() {
            0.0
        } else {
            let wrong = predictions.iter().zip(&ls).filter(|(p, l)| p != l).count();
            wrong as f64 / predictions.len() as f64
        }
    });
    Response::Predictions {
        labels: predictions,
        error,
        provenance: None,
    }
}

/// A validated model check, ready to run on a worker thread.
struct McJob {
    g: Arc<Graph>,
    phi: folearn_logic::Formula,
    engine: EvalEngine,
    trace_ctx: Option<TraceContext>,
}

#[allow(clippy::result_large_err)] // Err is the wire reply, moved once.
fn plan_modelcheck(
    state: &Arc<State>,
    structure: u64,
    formula: &str,
    engine: EvalEngine,
    trace_ctx: Option<TraceContext>,
) -> Result<McJob, Response> {
    let g = match state.graph(structure) {
        Ok(g) => g,
        Err(e) => {
            return Err(Response::error_coded(
                "unknown_structure",
                format!("modelcheck: {e}"),
            ))
        }
    };
    let phi = match parser::parse(formula, g.vocab()) {
        Ok(phi) => phi,
        Err(e) => return Err(Response::error(format!("modelcheck: {e}"))),
    };
    if !phi.is_sentence() {
        return Err(Response::error(
            "modelcheck: formula must be a sentence (no free variables)",
        ));
    }
    Ok(McJob {
        g,
        phi,
        engine,
        trace_ctx,
    })
}

fn run_modelcheck(state: &Arc<State>, job: McJob) -> Response {
    // The span ensures the VM's vm_* counters land in the metrics
    // rollup even for standalone model checks.
    let sp = folearn_obs::span("server.modelcheck");
    if let Some(ctx) = job.trace_ctx {
        folearn_obs::meta("trace_id", Json::str(hex64(ctx.trace_id)));
        folearn_obs::meta("parent", Json::str(hex64(ctx.parent)));
    }
    let holds = job.engine.models(&job.g, &job.phi);
    if let Some(rec) = sp.finish() {
        state.metrics.absorb_span(&rec);
    }
    Response::Truth {
        holds,
        provenance: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wait (bounded) for the reply `take` yields once a job completed it.
    fn reply(take: impl Fn() -> Option<Response>) -> Response {
        let until = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(response) = take() {
                return response;
            }
            assert!(Instant::now() < until, "the offloaded job never replied");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn offload_surfaces_panics_as_errors_and_the_worker_survives() {
        let dispatch = ServerDispatch {
            state: Arc::new(State::new(&ServerConfig::default())),
            pool: Arc::new(WorkerPool::new(1, 4)),
        };
        let (responder, take) = Responder::detached();
        let accepted = dispatch.offload("solve", responder, |_| panic!("boom at level {}", 3));
        assert!(matches!(accepted, Dispatch::Accepted));
        match reply(take) {
            Response::Error { message, .. } => {
                assert!(
                    message.starts_with("solve: worker panicked: "),
                    "{message:?}"
                );
                assert!(message.contains("boom at level 3"), "{message:?}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        let Response::Stats { data } = handle_stats(&dispatch.state, &dispatch.pool) else {
            panic!("stats replies with stats")
        };
        assert_eq!(data.get("worker_panics").and_then(Json::as_usize), Some(1));
        // The single worker survived and still serves.
        let (responder, take) = Responder::detached();
        let accepted = dispatch.offload("evaluate", responder, |_| Response::Pong);
        assert!(matches!(accepted, Dispatch::Accepted));
        assert!(matches!(reply(take), Response::Pong));
        assert_eq!(dispatch.pool.num_workers(), 1);
    }

    #[test]
    fn a_failed_wal_append_fails_the_mutation_and_the_retry_logs_it() {
        let dir = std::env::temp_dir().join(format!(
            "folearn-server-not-durable-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let state = Arc::new(State::new(&ServerConfig::default()));
        recover(&state, &dir, DEFAULT_SNAPSHOT_EVERY).unwrap();
        let fail_next_append = || {
            state
                .durable
                .lock()
                .as_mut()
                .expect("durable")
                .fail_next_append();
        };
        let written = || {
            state
                .metrics
                .snapshot(Vec::new())
                .get("wal_records_written")
                .and_then(Json::as_usize)
        };
        let code = |r: &Response| match r {
            Response::Error { code, .. } => code.clone(),
            _ => None,
        };

        let graph = "colors Red\nvertices 3\nedge 0 1\nedge 1 2\ncolor 0 Red\n";
        fail_next_append();
        let failed = handle_register(&state, graph);
        assert_eq!(code(&failed).as_deref(), Some("not_durable"), "{failed:?}");
        assert_eq!(state.graphs.len(), 0, "an unlogged structure is not served");
        let Response::Registered { structure, fresh, .. } = handle_register(&state, graph) else {
            panic!("the retried register succeeds")
        };
        assert!(fresh);
        assert_eq!(written(), Some(1));

        let examples: Vec<WireExample> = (0..3u32)
            .map(|v| WireExample {
                tuple: vec![v],
                label: v == 0,
            })
            .collect();
        let solve = || {
            let spec = SolverSpec::default_brute();
            match plan_solve(&state, structure, &examples, 1, 1, 0.0, &spec, None) {
                Ok(job) => run_solve(&state, job),
                Err(replay) => replay,
            }
        };
        fail_next_append();
        let failed = solve();
        assert_eq!(code(&failed).as_deref(), Some("not_durable"), "{failed:?}");
        assert_eq!(state.hypotheses.len(), 0, "an unlogged id is not stored");
        assert_eq!(state.cache.len(), 0, "an unlogged outcome is not cached");
        let Response::Solved(outcome) = solve() else {
            panic!("the retried solve succeeds")
        };
        assert!(!outcome.cached, "the retry re-ran the solve");
        assert_eq!(written(), Some(2));
        let Response::Solved(again) = solve() else {
            panic!("the repeat is answered")
        };
        assert!(again.cached);
        assert_eq!(written(), Some(2));

        drop(state);
        let (_, records, stats) = Durability::open(&dir, DEFAULT_SNAPSHOT_EVERY).unwrap();
        assert_eq!(records.len(), 2, "the register and the solve, once each");
        assert_eq!(stats.torn_tail_truncations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
