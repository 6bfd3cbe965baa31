//! The router daemon: front-door listener, placement, hedged fan-out,
//! and failover.
//!
//! The front door runs the backend daemon's connection core
//! ([`folearn_server::event_loop`]) with the same limits and lifecycle
//! replies, so to any client the router *is* a `folearn serve`. The
//! loop answers `ping`, `shutdown` and `inventory` itself; every other
//! request blocks on backends, so it runs as a job on an
//! [`ElasticPool`], as does each backend attempt of a hedged call — no
//! OS thread is spawned per connection or per backend call. Router
//! connections are request/reply (one request in flight each), so a
//! pipelined `register` → `solve` window takes effect in order. Behind
//! the front door:
//!
//! * `register` is parsed locally, content-hashed, placed on the ring,
//!   and forwarded to each of its `R` replicas; the ack lists the
//!   backends that accepted a copy.
//! * `solve` / `evaluate` / `modelcheck` are hedged reads over the
//!   structure's live replicas: the primary fires immediately, a hedge
//!   fires at the next replica after [`RouterConfig::hedge_delay`], and
//!   the first valid reply wins (the laggard's reply is discarded when
//!   its channel receiver is gone). Transport failures walk further
//!   down the replica ladder; deterministic server-side rejections pass
//!   straight through, since every replica would reject identically.
//! * Hypothesis ids pass through unchanged: a backend names a
//!   hypothesis by [`folearn_server::proto::hypothesis_id`] of its
//!   solve, so every replica names it by the same id. The router keeps
//!   one table, id → solve request. An `evaluate` landing on a replica
//!   that does not hold the hypothesis re-solves there and retries once
//!   — the solver is deterministic and the structure text canonical, so
//!   the re-solve reproduces the same hypothesis under the same id —
//!   which is what lets an evaluate survive the death of the backend
//!   that originally learned it.
//! * A backend that reports `unknown_structure` for a structure the
//!   router placed (i.e. it restarted and lost its registry) is
//!   re-seeded from the router's stored canonical text and the call is
//!   retried on the spot.
//! * A background anti-entropy pass (every
//!   [`RouterConfig::repair_interval`]) fetches each backend's
//!   structure hashes and re-seeds structures a replica has lost, so a
//!   restarted backend holds its structures before traffic finds the
//!   hole. Hypotheses are not replicated ahead of need: `evaluate`,
//!   their one reader, re-derives a missing one on the spot.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use folearn_graph::io;
use folearn_obs::{latency_json, Counter, PowHistogram, Registry};
use folearn_server::client::{ClientApi, ClientConfig, ClientError, RetryPolicy, RetryingClient};
use folearn_server::event_loop::{
    auto_loops, Dispatch, EventCore, EventHandler, EventLoopOptions, Responder, Shutdown,
};
use folearn_server::framing::{ConnEvent, ConnLimits};
use folearn_server::pool::{reply_or_panic, ElasticPool, Job};
use folearn_server::proto::{
    fnv1a64, hex64, hypothesis_id, Json, Request, Response, TraceContext, WireBinding,
    WireProvenance,
};
use parking_lot::Mutex;

use crate::health::{run_probe_loop, Health, PROBE_PERIOD};
use crate::metrics::{aggregate_cluster, NodeStats};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Idle pooled connections kept per backend; excess checkins are
/// dropped (closing the socket).
const POOL_KEEP: usize = 8;

/// Requests one front-door connection may have in flight: router
/// connections are request/reply, so a pipelined window keeps its
/// per-connection order of effects (a `solve` never overtakes the
/// `register` before it).
const MAX_INFLIGHT_PER_CONN: usize = 1;

/// The `stats` layout: every slot in render order (see
/// [`Registry::new`]). `backends` is rendered by [`backend_rows`]; the
/// rest are counters and gauges. The connection-lifecycle names are the
/// backend daemon's, incremented through `ConnEvent::name`.
const STATS_LAYOUT: &[&str] = &[
    "hedges_fired",
    "hedges_won",
    "replica_retries",
    "failovers",
    "repairs_performed",
    "rejected_connections",
    "structures",
    "hypotheses",
    "connections",
    "over_limit_closes",
    "idle_closes",
    "oversize_closes",
    "truncated_frames",
    "endpoints",
    "backends",
    "series",
];

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Front-door listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `folearn serve` addresses (at least one).
    pub backends: Vec<String>,
    /// Replicas per structure (clamped to the backend count).
    pub replicas: usize,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Fire a hedge at the next replica after this long without a
    /// reply; `None` disables hedging (reads still fail over on error).
    pub hedge_delay: Option<Duration>,
    /// Socket deadlines for backend calls. Hedging and failover only
    /// help against a *hung* backend if reads can time out, so the
    /// default sets one.
    pub client: ClientConfig,
    /// Per-backend-call retry policy (transport-level; replica failover
    /// sits above it).
    pub retry: RetryPolicy,
    /// Consecutive failures before a backend is ejected from rotation.
    pub eject_after: u32,
    /// Front-door per-connection limits (same semantics as the backend
    /// daemon's).
    pub max_requests_per_conn: usize,
    /// Longest front-door request line buffered.
    pub max_line_bytes: usize,
    /// Front-door idle timeout.
    pub idle_timeout: Duration,
    /// Concurrent front-door connections accepted.
    pub max_connections: usize,
    /// Period of the background anti-entropy pass: the router fetches
    /// every backend's structure hashes and re-seeds structures a
    /// replica has lost. `None` disables the pass (structures are then re-seeded
    /// only lazily, on the request path, as hypotheses always are).
    pub repair_interval: Option<Duration>,
    /// Allow per-solve trace stitching (router spans wrapping each
    /// backend's span subtree). Stitching is on demand: it runs only
    /// for solves whose request carries a trace context, so untraced
    /// traffic never pays for it. `false` is the kill switch — trace
    /// contexts are then neither propagated nor answered.
    pub trace: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            replicas: 2,
            vnodes: DEFAULT_VNODES,
            hedge_delay: Some(Duration::from_millis(50)),
            client: ClientConfig::with_deadline(Duration::from_secs(30)),
            retry: RetryPolicy::backoff(2, 0x524f_5554),
            eject_after: 3,
            max_requests_per_conn: 100_000,
            max_line_bytes: 4 << 20,
            idle_timeout: Duration::from_secs(300),
            max_connections: 256,
            repair_interval: Some(Duration::from_secs(1)),
            trace: true,
        }
    }
}

struct Backend {
    addr: String,
    pool: Mutex<Vec<RetryingClient>>,
    health: Health,
    /// Every call's latency (µs) and how many failed: the backend's
    /// `stats` row.
    calls: Mutex<BackendCalls>,
}

#[derive(Default)]
struct BackendCalls {
    errors: u64,
    latency: PowHistogram,
}

impl Backend {
    fn new(addr: &str, eject_after: u32) -> Self {
        Self {
            addr: addr.to_string(),
            pool: Mutex::new(Vec::new()),
            health: Health::new(eject_after),
            calls: Mutex::new(BackendCalls::default()),
        }
    }

    /// Account one call that took `elapsed` and update health; `true`
    /// iff this failure ejected the backend.
    fn note(&self, ok: bool, elapsed: Duration) -> bool {
        {
            let mut calls = self.calls.lock();
            calls.errors += u64::from(!ok);
            calls.latency.record(elapsed.as_micros() as u64);
        }
        if ok {
            self.health.record_ok();
            false
        } else {
            self.health.record_failure()
        }
    }
}

/// Placement record for one registered structure.
#[derive(Clone)]
struct StructureEntry {
    /// Canonical graph text (`io::to_text` of the parsed graph) — kept
    /// so the router can re-seed a backend that lost its registry.
    graph_text: String,
    /// Backend indices holding a replica, primary first.
    replicas: Vec<usize>,
}

struct RouterState {
    backends: Vec<Backend>,
    ring: HashRing,
    replicas: usize,
    hedge_delay: Option<Duration>,
    client_config: ClientConfig,
    retry: RetryPolicy,
    structures: Mutex<HashMap<u64, StructureEntry>>,
    /// Hypothesis id → the solve request that produced it (trace
    /// context stripped), replayed verbatim to re-derive the hypothesis
    /// on a replica that lacks it.
    hyps: Mutex<HashMap<u64, Request>>,
    /// Monotone selection counter driving the ejected-backend probe.
    selection_tick: AtomicU64,
    /// Span/trace id allocator for stitched traces.
    next_trace: AtomicU64,
    trace_enabled: bool,
    metrics: Registry,
    shutdown: Arc<Shutdown>,
    /// Runs front-door jobs and every backend attempt.
    pool: ElasticPool,
}

impl RouterState {
    /// Check a pooled connection out (or dial a fresh one).
    fn checkout(&self, bi: usize) -> Result<RetryingClient, ClientError> {
        if let Some(c) = self.backends[bi].pool.lock().pop() {
            return Ok(c);
        }
        RetryingClient::connect(
            self.backends[bi].addr.as_str(),
            self.client_config,
            self.retry.clone(),
        )
    }

    /// Return a healthy connection to the pool. Connections are only
    /// checked in after a clean exchange, so pooled ones have no stale
    /// response in flight.
    fn checkin(&self, bi: usize, client: RetryingClient) {
        let mut pool = self.backends[bi].pool.lock();
        if pool.len() < POOL_KEEP {
            pool.push(client);
        }
    }

    /// Run `exchange` over a pooled connection to backend `bi`; the
    /// connection goes back to the pool only if the exchange succeeded.
    fn with_backend<T>(
        &self,
        bi: usize,
        exchange: impl FnOnce(&mut RetryingClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut client = self.checkout(bi)?;
        let out = exchange(&mut client)?;
        self.checkin(bi, client);
        Ok(out)
    }

    /// Account one backend call that took `elapsed` and update the
    /// backend's health.
    fn note_result(&self, bi: usize, ok: bool, elapsed: Duration) {
        if self.backends[bi].note(ok, elapsed) {
            self.metrics.add("failovers", 1);
            folearn_obs::count(Counter::Failovers, 1);
        }
    }

    /// The failover ladder for a read: the structure's live replicas in
    /// placement order. Every [`PROBE_PERIOD`]th selection appends one
    /// ejected replica at the tail (the probe); if *no* replica is
    /// live, all of them are candidates — guessing beats refusing.
    fn candidates(&self, replicas: &[usize]) -> Vec<usize> {
        let tick = self.selection_tick.fetch_add(1, Ordering::SeqCst);
        let (live, ejected): (Vec<usize>, Vec<usize>) = replicas
            .iter()
            .copied()
            .partition(|&i| self.backends[i].health.is_live());
        if live.is_empty() {
            return replicas.to_vec();
        }
        let mut out = live;
        if let Some(&probe) = ejected.first() {
            if tick % PROBE_PERIOD == 0 {
                out.push(probe);
            }
        }
        out
    }

    /// A fresh span/trace id for stitched traces.
    fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::SeqCst)
    }
}

/// A running router. Call [`RouterHandle::shutdown`] or
/// [`RouterHandle::wait`]; dropping the handle detaches its threads.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    core: EventCore,
    repair: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front-door address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the router to stop, then wait for all threads. Backends are
    /// *not* shut down — they are independent daemons.
    pub fn shutdown(mut self) {
        self.state.shutdown.request();
        self.join_all();
    }

    /// Block until a client issues a `shutdown` request, then clean up.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        self.core.join();
        // The core only exits once shutdown is flagged, so the repair
        // loop is already on its way out (≤50ms poll).
        if let Some(repair) = self.repair.take() {
            let _ = repair.join();
        }
    }
}

/// Bind the front door and start routing. Returns once the listener is
/// live; backends are dialled lazily, per call.
pub fn start(config: &RouterConfig) -> std::io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one backend",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(RouterState {
        backends: config
            .backends
            .iter()
            .map(|a| Backend::new(a, config.eject_after))
            .collect(),
        ring: HashRing::new(config.backends.clone(), config.vnodes.max(1)),
        replicas: config.replicas.max(1),
        hedge_delay: config.hedge_delay,
        client_config: config.client,
        retry: config.retry.clone(),
        structures: Mutex::new(HashMap::new()),
        hyps: Mutex::new(HashMap::new()),
        selection_tick: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        trace_enabled: config.trace,
        metrics: Registry::new("router", STATS_LAYOUT),
        shutdown: Arc::default(),
        pool: ElasticPool::new("folearn-router-call"),
    });
    let opts = EventLoopOptions {
        limits: ConnLimits {
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            max_line_bytes: config.max_line_bytes.max(1),
            idle_timeout: config.idle_timeout,
        },
        max_inflight_per_conn: MAX_INFLIGHT_PER_CONN,
    };
    let core = EventCore::start(
        "folearn-router",
        listener,
        Arc::new(RouterDispatch {
            state: Arc::clone(&state),
        }),
        opts,
        auto_loops(0),
        config.max_connections.max(1),
        &state.shutdown,
    )?;

    let repair = match config.repair_interval {
        Some(interval) => {
            let state = Arc::clone(&state);
            Some(
                std::thread::Builder::new()
                    .name("folearn-router-repair".to_string())
                    .spawn(move || {
                        run_probe_loop(state.shutdown.flag(), interval, || repair_pass(&state));
                    })?,
            )
        }
        None => None,
    };

    Ok(RouterHandle {
        addr,
        state,
        core,
        repair,
    })
}

/// The router's event handler: `ping`, `shutdown` and `inventory` are
/// answered on the loop thread; everything else waits on backends, so
/// it runs as an [`ElasticPool`] job that completes the responder.
struct RouterDispatch {
    state: Arc<RouterState>,
}

impl EventHandler for RouterDispatch {
    fn dispatch(&self, req: Request, responder: Responder) -> Dispatch {
        if matches!(
            req,
            Request::Ping | Request::Shutdown | Request::Inventory { .. }
        ) {
            responder.complete(handle_request(&self.state, req));
            return Dispatch::Accepted;
        }
        let state = Arc::clone(&self.state);
        let panics = state.pool.panic_cell();
        let job: Job = Box::new(move || {
            let op = req.op();
            responder.complete(reply_or_panic(op, &panics, || handle_request(&state, req)));
        });
        match self.state.pool.execute(job) {
            Ok(()) => Dispatch::Accepted,
            Err(job) => Dispatch::Busy(job),
        }
    }

    /// A job whose thread could not be spawned is parked by the loop
    /// and re-offered here.
    fn retry(&self, job: Job) -> Result<(), Job> {
        self.state.pool.execute(job)
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

fn handle_request(state: &Arc<RouterState>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Bye {
            reason: "shutdown".to_string(),
        },
        Request::Stats => {
            let metrics = &state.metrics;
            metrics.set("structures", state.structures.lock().len() as u64);
            metrics.set("hypotheses", state.hyps.lock().len() as u64);
            let mut data = metrics.snapshot(vec![("backends", backend_rows(&state.backends))]);
            // Fan the stats request out to every backend and attach the
            // merged cluster view to the router's own snapshot.
            let cluster = cluster_stats(state);
            if let Json::Obj(pairs) = &mut data {
                pairs.push(("cluster".to_string(), cluster));
            }
            Response::Stats { data }
        }
        // The router's own inventory: its placement table and (unless
        // the caller asked for structures only) the hypothesis ids it
        // has routed. Lets an operator (or an outer router tier) diff
        // the front door the same way the front door diffs its backends.
        Request::Inventory { hypotheses } => {
            let mut structures: Vec<u64> = state.structures.lock().keys().copied().collect();
            structures.sort_unstable();
            let mut hypotheses: Vec<WireBinding> = if hypotheses {
                state
                    .hyps
                    .lock()
                    .iter()
                    .map(|(&id, solve)| WireBinding {
                        id,
                        structure: structure_of(solve),
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
        Request::Register { graph_text } => handle_register(state, &graph_text),
        req @ Request::Solve { .. } => handle_solve(state, req),
        Request::Evaluate {
            structure,
            hypothesis,
            tuples,
            labels,
        } => handle_evaluate(state, structure, hypothesis, tuples, labels),
        req @ Request::ModelCheck { .. } => handle_modelcheck(state, req),
    }
}

// ---------------------------------------------------------------------
// register: place on the ring, seed every replica
// ---------------------------------------------------------------------

fn handle_register(state: &Arc<RouterState>, graph_text: &str) -> Response {
    let g = match io::parse_graph(graph_text) {
        Ok(g) => g,
        Err(e) => return Response::error(format!("register: {e}")),
    };
    let canonical = io::to_text(&g);
    let hash = fnv1a64(canonical.as_bytes());
    let (vertices, edges) = (g.num_vertices(), g.num_edges());
    let replicas = state.ring.replicas_for(hash, state.replicas);

    let mut placed = Vec::new();
    let mut last_error = String::new();
    for &bi in &replicas {
        let started = Instant::now();
        match register_on(state, bi, &canonical) {
            Ok(()) => {
                state.note_result(bi, true, started.elapsed());
                placed.push(state.backends[bi].addr.clone());
            }
            Err(e) => {
                state.note_result(bi, false, started.elapsed());
                last_error = e.to_string();
            }
        }
    }
    if placed.is_empty() {
        return Response::error_coded(
            "no_replicas",
            format!(
                "register: no replica accepted structure {}: {last_error}",
                hex64(hash)
            ),
        );
    }
    let fresh = state
        .structures
        .lock()
        .insert(
            hash,
            StructureEntry {
                graph_text: canonical,
                replicas,
            },
        )
        .is_none();
    Response::Registered {
        structure: hash,
        vertices,
        edges,
        fresh,
        replicas: Some(placed),
    }
}

fn register_on(state: &Arc<RouterState>, bi: usize, canonical: &str) -> Result<(), ClientError> {
    let mut client = state.checkout(bi)?;
    let hash = client.register(canonical)?;
    debug_assert_eq!(hash, fnv1a64(canonical.as_bytes()));
    state.checkin(bi, client);
    Ok(())
}

// ---------------------------------------------------------------------
// hedged fan-out
// ---------------------------------------------------------------------

/// The reply that won a hedged call, with enough context for
/// provenance.
struct Winner {
    response: Response,
    /// Backend index that answered.
    backend: usize,
    /// Rank in the candidate ladder (0 = primary).
    rank: usize,
    /// Whether the winning launch was a hedge.
    hedged: bool,
    /// Every launch made for this call, in launch order, for trace
    /// stitching.
    attempts: Vec<Attempt>,
}

/// One launched backend call in a hedged fan-out.
struct Attempt {
    /// Backend index the launch targeted.
    backend: usize,
    /// Rank in the candidate ladder.
    rank: usize,
    /// Why it launched: "primary", "hedge", or "failover".
    kind: &'static str,
    outcome: AttemptOutcome,
    /// Call duration, 0 while the reply is still outstanding.
    elapsed_ns: u64,
}

enum AttemptOutcome {
    Won,
    Failed(String),
    /// Launched but the call returned before its reply landed (the
    /// laggard of a hedge, or an in-flight failover).
    Discarded,
}

/// Was this failure caused by the *path* (worth trying another replica)
/// rather than by the request itself? Same classification as the
/// client's retry policy: transport errors and in-flight corruption
/// fail over; a deterministic server-side rejection would repeat
/// identically on every replica, so it passes through.
fn is_transport(e: &ClientError) -> bool {
    RetryPolicy::is_retryable(e)
}

/// Run `op` against the candidate ladder with hedging and failover.
///
/// Rank 0 launches immediately. If no reply lands within the hedge
/// delay, rank 1 launches as a *hedge*. Any transport failure launches
/// the next unlaunched rank as a *failover*. Every launch runs on the
/// router's [`ElasticPool`]. First `Ok` wins; its laggards' sends fail
/// silently once the receiver is dropped. Returns
/// the pass-through error response if a replica rejected the request
/// deterministically, or an `all replicas failed` error if the ladder
/// is exhausted.
// `Err` is the ready-to-send protocol reply; `Response` travels by value
// through every handler, and the error arm is the cold path.
#[allow(clippy::result_large_err)]
fn hedged_call<F>(state: &Arc<RouterState>, candidates: &[usize], op: F) -> Result<Winner, Response>
where
    F: Fn(&Arc<RouterState>, usize) -> Result<Response, ClientError> + Send + Sync + 'static,
{
    assert!(!candidates.is_empty(), "candidates must be non-empty");
    let op = Arc::new(op);
    let (tx, rx) = mpsc::channel::<(usize, u64, Result<Response, ClientError>)>();
    let launch = |attempts: &mut Vec<Attempt>, rank: usize, kind: &'static str| {
        let bi = candidates[rank];
        let job: Job = {
            let (state, op, tx) = (Arc::clone(state), Arc::clone(&op), tx.clone());
            Box::new(move || {
                let started = Instant::now();
                let result = op(&state, bi);
                // The receiver is gone once another replica won: the
                // laggard's answer is discarded right here.
                let _ = tx.send((rank, started.elapsed().as_nanos() as u64, result));
            })
        };
        if state.pool.execute(job).is_err() {
            // No thread for this attempt: it fails like a dead link, so
            // the ladder moves on to the next replica.
            let spawn = std::io::Error::other("cannot spawn a backend call thread");
            let _ = tx.send((rank, 0, Err(ClientError::Io(spawn))));
        }
        attempts.push(Attempt {
            backend: bi,
            rank,
            kind,
            outcome: AttemptOutcome::Discarded,
            elapsed_ns: 0,
        });
    };

    let mut attempts: Vec<Attempt> = Vec::new();
    launch(&mut attempts, 0, "primary");
    let mut outstanding = 1usize;
    let mut next = 1usize;
    // Hedging applies only while the primary is silent; after the first
    // message (success or failure) further launches are failovers.
    let mut may_hedge = state.hedge_delay.is_some();
    loop {
        let msg = if may_hedge && next < candidates.len() {
            match rx.recv_timeout(state.hedge_delay.expect("checked by may_hedge")) {
                Ok(m) => m,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    state.metrics.add("hedges_fired", 1);
                    state.metrics.series(|s| s.record_hedge(false));
                    folearn_obs::count(Counter::HedgesFired, 1);
                    launch(&mut attempts, next, "hedge");
                    next += 1;
                    outstanding += 1;
                    may_hedge = false;
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("a sender is held by this scope")
                }
            }
        } else {
            rx.recv().expect("a sender is held by this scope")
        };
        may_hedge = false;
        let (rank, elapsed_ns, result) = msg;
        let is_hedge = {
            let slot = attempts
                .iter_mut()
                .find(|a| a.rank == rank)
                .expect("reply from a launched rank");
            slot.elapsed_ns = elapsed_ns;
            slot.kind == "hedge"
        };
        match result {
            Ok(response) => {
                if let Some(slot) = attempts.iter_mut().find(|a| a.rank == rank) {
                    slot.outcome = AttemptOutcome::Won;
                }
                state.note_result(candidates[rank], true, Duration::from_nanos(elapsed_ns));
                if is_hedge {
                    state.metrics.add("hedges_won", 1);
                    state.metrics.series(|s| s.record_hedge_won());
                    folearn_obs::count(Counter::HedgesWon, 1);
                }
                return Ok(Winner {
                    response,
                    backend: candidates[rank],
                    rank,
                    hedged: is_hedge,
                    attempts,
                });
            }
            Err(e) => {
                if let Some(slot) = attempts.iter_mut().find(|a| a.rank == rank) {
                    slot.outcome = AttemptOutcome::Failed(e.to_string());
                }
                state.note_result(candidates[rank], false, Duration::from_nanos(elapsed_ns));
                outstanding -= 1;
                if !is_transport(&e) {
                    // Deterministic rejection: every replica would say
                    // the same, so say it now.
                    return Err(match e {
                        ClientError::Server { message, code } => Response::Error { message, code },
                        other => Response::error(other.to_string()),
                    });
                }
                if next < candidates.len() {
                    state.metrics.add("replica_retries", 1);
                    folearn_obs::count(Counter::ReplicaRetries, 1);
                    launch(&mut attempts, next, "failover");
                    next += 1;
                    outstanding += 1;
                } else if outstanding == 0 {
                    return Err(Response::error(format!("all replicas failed: {e}")));
                }
            }
        }
    }
}

fn provenance(state: &Arc<RouterState>, w: &Winner) -> WireProvenance {
    WireProvenance {
        backend: state.backends[w.backend].addr.clone(),
        replica: w.rank,
        hedged: w.hedged,
    }
}

// ---------------------------------------------------------------------
// reads: solve / evaluate / modelcheck
// ---------------------------------------------------------------------

/// Look up a structure's placement, or the coded error a client can
/// react to.
#[allow(clippy::result_large_err)]
fn placement(state: &Arc<RouterState>, structure: u64, op: &str) -> Result<StructureEntry, Response> {
    state.structures.lock().get(&structure).cloned().ok_or_else(|| {
        Response::error_coded(
            "unknown_structure",
            format!("{op}: unknown structure {}", hex64(structure)),
        )
    })
}

/// Retry provenance gathered during a routed call — (backend index,
/// span name) per re-seed — shared with the per-attempt call threads
/// so trace stitching can show the recovery work.
type EventLog = Arc<Mutex<Vec<(usize, &'static str)>>>;

/// One backend exchange, re-seeding the backend's registry if it
/// restarted and forgot a structure the router placed on it.
fn call_with_reseed(
    client: &mut RetryingClient,
    bi: usize,
    req: &Request,
    graph_text: &str,
    events: &EventLog,
) -> Result<Response, ClientError> {
    let resp = client.call(req);
    if error_code(&resp) != Some("unknown_structure") {
        return resp;
    }
    events.lock().push((bi, "router.reseed"));
    client.register(graph_text)?;
    client.call(req)
}

/// Solve on backend `bi`, which must name the answer by its content
/// address `id`. A backend that names it otherwise (a build that
/// numbers hypotheses with a counter) fails the attempt, so the ladder
/// moves on instead of the router filing the answer under a foreign id.
fn solve_on(
    client: &mut RetryingClient,
    bi: usize,
    solve: &Request,
    id: u64,
    graph_text: &str,
    events: &EventLog,
) -> Result<Response, ClientError> {
    match call_with_reseed(client, bi, solve, graph_text, events)? {
        Response::Solved(outcome) if outcome.hypothesis.id == id => Ok(Response::Solved(outcome)),
        other => Err(ClientError::Unexpected(format!(
            "wanted hypothesis {}, got `{}`",
            hex64(id),
            other.encode()
        ))),
    }
}

/// The machine-readable class of a server-side rejection, if any.
fn error_code(r: &Result<Response, ClientError>) -> Option<&str> {
    match r {
        Err(ClientError::Server { code: Some(c), .. }) => Some(c),
        _ => None,
    }
}

/// The structure a stored solve request was made on.
fn structure_of(solve: &Request) -> u64 {
    match solve {
        Request::Solve { structure, .. } => *structure,
        _ => unreachable!("the hypothesis table holds solve requests only"),
    }
}

fn handle_solve(state: &Arc<RouterState>, req: Request) -> Response {
    let Request::Solve {
        structure,
        examples,
        ell,
        q,
        epsilon,
        solver,
        trace: client_trace,
    } = &req
    else {
        unreachable!("handle_solve is dispatched on Request::Solve")
    };
    let (structure, client_trace) = (*structure, *client_trace);
    let id = hypothesis_id(structure, examples, *ell, *q, *epsilon, solver);
    let entry = match placement(state, structure, "solve") {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let candidates = state.candidates(&entry.replicas);
    // Trace on demand: the caller opts in per solve by sending a trace
    // context (the sampling decision belongs to the edge); the config
    // flag is a kill switch. Only opted-in solves propagate the
    // identity downstream and pay for stitching — untraced traffic
    // through a trace-enabled router behaves exactly like `trace off`.
    let want_trace = state.trace_enabled && client_trace.is_some();
    let trace_id = client_trace.map_or_else(|| state.next_trace_id(), |c| c.trace_id);
    let span_id = state.next_trace_id();
    let mut fwd = req.clone();
    if let Request::Solve { trace, .. } = &mut fwd {
        *trace = want_trace.then_some(TraceContext {
            trace_id,
            parent: span_id,
        });
    }
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let events_for_op = Arc::clone(&events);
    let graph_text = entry.graph_text.clone();
    let started = Instant::now();
    let winner = hedged_call(state, &candidates, move |state, bi| {
        state.with_backend(bi, |c| solve_on(c, bi, &fwd, id, &graph_text, &events_for_op))
    });
    match winner {
        Ok(w) => {
            let prov = provenance(state, &w);
            let Winner {
                response, attempts, ..
            } = w;
            match response {
                Response::Solved(mut outcome) => {
                    state.metrics.series(|s| s.record_cache(outcome.cached));
                    // The stored replay request carries no trace context:
                    // a later re-solve is its own story, not this solve's.
                    let mut solve = req;
                    if let Request::Solve { trace, .. } = &mut solve {
                        *trace = None;
                    }
                    state.hyps.lock().insert(id, solve);
                    if want_trace {
                        let backend_trace = outcome.trace.take();
                        outcome.trace = Some(stitch_trace(
                            state,
                            trace_id,
                            span_id,
                            client_trace,
                            structure,
                            &attempts,
                            backend_trace,
                            &events.lock(),
                            started.elapsed(),
                        ));
                    }
                    outcome.provenance = Some(prov);
                    Response::Solved(outcome)
                }
                other => other,
            }
        }
        Err(resp) => resp,
    }
}

/// Build the router's stitched span tree for one solve: a
/// `router.solve` root whose children are every launched attempt (the
/// winner carrying the backend's own span subtree) plus any re-seed
/// retries, each tagged with provenance meta. Provenance rides
/// in `meta` only — `span_from_json` rejects unknown counter names, so
/// the stitched tree must stay parseable by the standard importer.
///
/// The tree is assembled directly in the `span_to_json` wire shape: the
/// backend's subtree (already in that shape, the daemon exported it) is
/// spliced in verbatim, so stitching costs O(router spans) instead of
/// parsing and re-rendering the whole backend trace on every solve.
#[allow(clippy::too_many_arguments)]
fn stitch_trace(
    state: &Arc<RouterState>,
    trace_id: u64,
    span_id: u64,
    client_trace: Option<TraceContext>,
    structure: u64,
    attempts: &[Attempt],
    backend_trace: Option<Json>,
    events: &[(usize, &'static str)],
    elapsed: Duration,
) -> Json {
    let mut root_meta = vec![
        ("trace_id".to_string(), Json::str(hex64(trace_id))),
        ("span_id".to_string(), Json::str(hex64(span_id))),
    ];
    if let Some(c) = client_trace {
        root_meta.push(("parent".to_string(), Json::str(hex64(c.parent))));
    }
    root_meta.push(("structure".to_string(), Json::str(hex64(structure))));
    let mut backend_trace = backend_trace;
    let mut children = Vec::with_capacity(attempts.len() + events.len());
    for a in attempts {
        let mut meta = vec![
            (
                "backend".to_string(),
                Json::str(state.backends[a.backend].addr.clone()),
            ),
            ("rank".to_string(), Json::int(a.rank)),
            ("kind".to_string(), Json::str(a.kind)),
        ];
        let outcome = match &a.outcome {
            AttemptOutcome::Won => "won".to_string(),
            AttemptOutcome::Failed(e) => format!("failed: {e}"),
            AttemptOutcome::Discarded => "discarded".to_string(),
        };
        meta.push(("outcome".to_string(), Json::str(outcome)));
        let mut sub = Vec::new();
        if matches!(a.outcome, AttemptOutcome::Won) {
            if let Some(t) = backend_trace.take() {
                // Splice a span-shaped subtree verbatim; anything else
                // still rides along as meta.
                if t.get("span").and_then(Json::as_str).is_some()
                    && t.get("ns").and_then(Json::as_num).is_some()
                {
                    sub.push(t);
                } else {
                    meta.push(("backend_trace".to_string(), t));
                }
            }
        }
        let mut pairs = vec![
            ("span".to_string(), Json::str("router.attempt")),
            ("ns".to_string(), Json::Num(a.elapsed_ns as f64)),
            ("meta".to_string(), Json::Obj(meta)),
        ];
        if !sub.is_empty() {
            pairs.push(("children".to_string(), Json::Arr(sub)));
        }
        children.push(Json::Obj(pairs));
    }
    for &(bi, name) in events {
        children.push(Json::Obj(vec![
            ("span".to_string(), Json::str(name)),
            ("ns".to_string(), Json::Num(0.0)),
            (
                "meta".to_string(),
                Json::Obj(vec![(
                    "backend".to_string(),
                    Json::str(state.backends[bi].addr.clone()),
                )]),
            ),
        ]));
    }
    let mut pairs = vec![
        ("span".to_string(), Json::str("router.solve")),
        ("ns".to_string(), Json::Num(elapsed.as_nanos() as f64)),
        ("meta".to_string(), Json::Obj(root_meta)),
    ];
    if !children.is_empty() {
        pairs.push(("children".to_string(), Json::Arr(children)));
    }
    Json::Obj(pairs)
}

/// The router's per-backend `stats` rows: call counts, errors and
/// latency from [`Backend::calls`], ejection state from its health.
fn backend_rows(backends: &[Backend]) -> Json {
    Json::Arr(
        backends
            .iter()
            .map(|b| {
                let calls = b.calls.lock();
                Json::obj([
                    ("addr", Json::str(b.addr.clone())),
                    ("requests", Json::Num(calls.latency.count() as f64)),
                    ("errors", Json::Num(calls.errors as f64)),
                    ("ejections", Json::Num(b.health.ejections() as f64)),
                    ("live", Json::Bool(b.health.is_live())),
                    ("latency", latency_json(&calls.latency)),
                ])
            })
            .collect(),
    )
}

/// Fan `stats` out to every backend and merge the snapshots into the
/// cluster view ([`aggregate_cluster`]). An unreachable backend
/// contributes an error row (and a health strike) instead of numbers.
fn cluster_stats(state: &Arc<RouterState>) -> Json {
    let nodes: Vec<NodeStats> = state
        .backends
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let started = Instant::now();
            let stats = state.checkout(bi).and_then(|mut client| {
                let snap = client.stats()?;
                state.checkin(bi, client);
                Ok(snap)
            });
            state.note_result(bi, stats.is_ok(), started.elapsed());
            NodeStats {
                addr: b.addr.clone(),
                live: b.health.is_live(),
                ejections: b.health.ejections(),
                consecutive_failures: b.health.consecutive_failures(),
                stats: stats.map_err(|e| e.to_string()),
            }
        })
        .collect();
    aggregate_cluster(&nodes)
}

fn handle_modelcheck(state: &Arc<RouterState>, req: Request) -> Response {
    let Request::ModelCheck { structure, .. } = &req else {
        unreachable!("handle_modelcheck is dispatched on Request::ModelCheck")
    };
    let entry = match placement(state, *structure, "modelcheck") {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let candidates = state.candidates(&entry.replicas);
    let graph_text = entry.graph_text.clone();
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let winner = hedged_call(state, &candidates, move |state, bi| {
        state.with_backend(bi, |c| call_with_reseed(c, bi, &req, &graph_text, &events))
    });
    match winner {
        Ok(w) => {
            let prov = provenance(state, &w);
            match w.response {
                Response::Truth { holds, .. } => Response::Truth {
                    holds,
                    provenance: Some(prov),
                },
                other => other,
            }
        }
        Err(resp) => resp,
    }
}

fn handle_evaluate(
    state: &Arc<RouterState>,
    structure: u64,
    hypothesis: u64,
    tuples: Vec<Vec<u32>>,
    labels: Option<Vec<bool>>,
) -> Response {
    let Some(solve) = state.hyps.lock().get(&hypothesis).cloned() else {
        return Response::error_coded(
            "unknown_hypothesis",
            format!("evaluate: unknown hypothesis {}", hex64(hypothesis)),
        );
    };
    if structure_of(&solve) != structure {
        return Response::error("evaluate: hypothesis was learned on a different structure");
    }
    let entry = match placement(state, structure, "evaluate") {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let candidates = state.candidates(&entry.replicas);
    let graph_text = entry.graph_text.clone();
    let eval = Request::Evaluate {
        structure,
        hypothesis,
        tuples,
        labels,
    };
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let winner = hedged_call(state, &candidates, move |state, bi| {
        evaluate_on(state, bi, hypothesis, &eval, &solve, &graph_text, &events)
    });
    match winner {
        Ok(w) => {
            let prov = provenance(state, &w);
            match w.response {
                Response::Predictions { labels, error, .. } => Response::Predictions {
                    labels,
                    error,
                    provenance: Some(prov),
                },
                other => other,
            }
        }
        Err(resp) => resp,
    }
}

/// Evaluate hypothesis `id` on backend `bi`. A backend that does not
/// hold it (it never learned it, or restarted without durable state) is
/// sent the original solve first — which must reproduce `id`, the
/// solver being deterministic — and the evaluate is retried once.
fn evaluate_on(
    state: &Arc<RouterState>,
    bi: usize,
    id: u64,
    eval: &Request,
    solve: &Request,
    graph_text: &str,
    events: &EventLog,
) -> Result<Response, ClientError> {
    state.with_backend(bi, |client| {
        let resp = client.call(eval);
        if !matches!(
            error_code(&resp),
            Some("unknown_hypothesis" | "unknown_structure")
        ) {
            return resp;
        }
        solve_on(client, bi, solve, id, graph_text, events)?;
        client.call(eval)
    })
}

// ---------------------------------------------------------------------
// anti-entropy: inventory diff and repair
// ---------------------------------------------------------------------

/// One anti-entropy sweep over every backend: fetch its structure
/// hashes (`inventory` with `hypotheses: false`, so no backend walks its
/// hypothesis store), diff them against the router's placement table,
/// and re-seed any structure placed on the backend but missing from it
/// (it restarted without durable state) from the stored canonical text
/// — counted as `repairs_performed`. Hypotheses are left to `evaluate`,
/// which re-derives a missing one on demand.
///
/// The sweep doubles as an active health probe: transport failures
/// strike the backend's health, and a successful exchange restores an
/// ejected backend without waiting for client traffic. A backend too
/// old to speak `inventory` answers with a server-side error; it is
/// skipped without a strike — alive, just not repairable.
fn repair_pass(state: &Arc<RouterState>) {
    // Snapshot the placement outside any backend I/O so a slow backend
    // never holds the request path's locks. Graph texts are looked up
    // only for a structure that must be re-registered.
    let placed: Vec<(u64, Vec<usize>)> = state
        .structures
        .lock()
        .iter()
        .map(|(&hash, entry)| (hash, entry.replicas.clone()))
        .collect();
    for bi in 0..state.backends.len() {
        repair_backend(state, bi, &placed);
    }
}

/// Diff-and-repair one backend; see [`repair_pass`]. Stops at the first
/// transport failure — the connection's state is unknown past it, and
/// the next sweep picks up where this one left off.
fn repair_backend(state: &Arc<RouterState>, bi: usize, placed: &[(u64, Vec<usize>)]) {
    let started = Instant::now();
    let mut client = match state.checkout(bi) {
        Ok(c) => c,
        Err(_) => {
            state.note_result(bi, false, started.elapsed());
            return;
        }
    };
    let have: HashSet<u64> = match client.structures() {
        Ok(structures) => structures.into_iter().collect(),
        Err(ClientError::Server { .. }) => {
            // Pre-inventory backend: a clean protocol exchange, so it
            // is alive — no strike, nothing to diff.
            state.note_result(bi, true, started.elapsed());
            state.checkin(bi, client);
            return;
        }
        Err(_) => {
            state.note_result(bi, false, started.elapsed());
            return;
        }
    };
    state.note_result(bi, true, started.elapsed());

    for (hash, replicas) in placed {
        if !replicas.contains(&bi) || have.contains(hash) {
            continue;
        }
        let Some(graph_text) = state
            .structures
            .lock()
            .get(hash)
            .map(|entry| entry.graph_text.clone())
        else {
            continue;
        };
        let started = Instant::now();
        match client.register(&graph_text) {
            Ok(_) => {
                state.metrics.add("repairs_performed", 1);
                state.note_result(bi, true, started.elapsed());
            }
            Err(e) => {
                state.note_result(bi, !is_transport(&e), started.elapsed());
                return;
            }
        }
    }
    state.checkin(bi, client);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_rows_track_calls_latency_and_ejection() {
        let backends = [Backend::new("127.0.0.1:1", 1), Backend::new("127.0.0.1:2", 1)];
        assert!(!backends[0].note(true, Duration::from_micros(100)));
        // One failure ejects (eject_after = 1); the next success restores.
        assert!(backends[1].note(false, Duration::from_micros(5000)));
        let rows = backend_rows(&backends);
        let rows = rows.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("addr").and_then(Json::as_str), Some("127.0.0.1:1"));
        assert_eq!(rows[1].get("requests").and_then(Json::as_usize), Some(1));
        assert_eq!(rows[1].get("errors").and_then(Json::as_usize), Some(1));
        assert_eq!(rows[1].get("ejections").and_then(Json::as_usize), Some(1));
        assert_eq!(rows[1].get("live").and_then(Json::as_bool), Some(false));
        let latency = rows[1].get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_usize), Some(1));
        assert_eq!(latency.get("max_us").and_then(Json::as_usize), Some(5000));
        assert!(!backends[1].note(true, Duration::from_micros(10)));
        let rows = backend_rows(&backends);
        let row = &rows.as_arr().unwrap()[1];
        assert_eq!(row.get("live").and_then(Json::as_bool), Some(true));
        assert_eq!(row.get("requests").and_then(Json::as_usize), Some(2));
        assert_eq!(row.get("ejections").and_then(Json::as_usize), Some(1));
        let hist = PowHistogram::from_wire_json(row.get("latency").unwrap().get("hist").unwrap());
        assert_eq!(hist.unwrap().count(), 2);
    }
}
