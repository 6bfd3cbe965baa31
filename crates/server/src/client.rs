//! Blocking clients for the folearn daemon.
//!
//! Two client flavours speak the newline-delimited JSON protocol of
//! [`crate::proto`] synchronously:
//!
//! * [`Client`] — one TCP connection, one request in flight. A failed
//!   or timed-out exchange is surfaced as a [`ClientError`] and the
//!   connection is left in an unknown state (a response may still be in
//!   flight), so callers must reconnect after any error.
//! * [`RetryingClient`] — wraps the connect parameters plus a
//!   [`RetryPolicy`]: on a retryable failure it drops the connection,
//!   sleeps a capped exponential backoff with deterministic seeded
//!   jitter, reconnects, and re-sends. Safe because every request the
//!   protocol offers is idempotent (`register` is content-addressed,
//!   `solve` is deterministic and cached, `evaluate`/`modelcheck` are
//!   pure) — a request that executed server-side but whose response was
//!   lost re-executes to the *same* answer.
//!
//! Both implement [`ClientApi`], which carries the typed helpers
//! (`register`, `solve`, `evaluate`, …) as default methods over the one
//! required `call`, so code that drives a daemon — the load generator,
//! the hardness reduction's `RemoteOracle`, the CLI — is generic over
//! whether it wants deadlines and retries.
//!
//! Deadlines are configured with [`ClientConfig`]: connect, read, and
//! write timeouts. The default config has *no* deadlines (a call can
//! block as long as the server computes); anything that talks through
//! an unreliable path should set them and pair them with a retry
//! policy.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::{ProtoError, Request, Response, SolveOutcome, SolverSpec, WireExample};

/// Everything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-exchange,
    /// or an expired read/write deadline).
    Io(std::io::Error),
    /// The response line was not valid protocol JSON.
    Proto(ProtoError),
    /// The daemon replied with an `error` response.
    Server {
        /// The human-readable message.
        message: String,
        /// The machine-readable class, when the daemon sent one (e.g.
        /// `"unknown_structure"` from the cluster router).
        code: Option<String>,
    },
    /// The daemon replied with a well-formed but unexpected variant.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server {
                message,
                code: Some(code),
            } => write!(f, "server error [{code}]: {message}"),
            ClientError::Server {
                message,
                code: None,
            } => write!(f, "server error: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Socket deadlines for a [`Client`]. `None` means "block forever" —
/// the default, correct for trusted loopback use; set all three when
/// the path to the daemon can stall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each blocking read (a response that takes longer —
    /// slow solve or dropped frame — surfaces as `ClientError::Io`).
    pub read_timeout: Option<Duration>,
    /// Deadline for each blocking write.
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// All three deadlines set to `timeout`.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// A blocking connection to a folearn daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `"127.0.0.1:7071"`) with no
    /// deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connect with explicit socket deadlines.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let sock = resolve(addr)?;
        let stream = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&sock, t)?,
            None => TcpStream::connect(sock)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// Resolve `addr` to its first socket address.
fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr, ClientError> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ))
    })
}

/// The request/response surface of a daemon connection: one required
/// `call`, typed helpers on top. Implemented by [`Client`] (one shot,
/// fail fast) and [`RetryingClient`] (deadlines + backoff + reconnect).
pub trait ClientApi {
    /// Send one request and block for its response. An `error` response
    /// is surfaced as [`ClientError::Server`].
    fn call(&mut self, request: &Request) -> Result<Response, ClientError>;

    /// Liveness check.
    fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Upload a structure; returns its content hash.
    fn register(&mut self, graph_text: &str) -> Result<u64, ClientError> {
        let req = Request::Register {
            graph_text: graph_text.to_string(),
        };
        match self.call(&req)? {
            Response::Registered { structure, .. } => Ok(structure),
            other => Err(unexpected("registered", &other)),
        }
    }

    /// Solve an ERM instance on a registered structure.
    fn solve(
        &mut self,
        structure: u64,
        examples: Vec<WireExample>,
        ell: usize,
        q: usize,
        epsilon: f64,
        solver: SolverSpec,
    ) -> Result<SolveOutcome, ClientError> {
        let req = Request::Solve {
            structure,
            examples,
            ell,
            q,
            epsilon,
            solver,
            trace: None,
        };
        match self.call(&req)? {
            Response::Solved(outcome) => Ok(outcome),
            other => Err(unexpected("solved", &other)),
        }
    }

    /// Solve with an explicit trace context: the sampling decision is
    /// the caller's. A router only stitches (and asks its backend for
    /// the span subtree) for solves that carry a context, so untraced
    /// traffic pays nothing for the tracing subsystem.
    #[allow(clippy::too_many_arguments)]
    fn solve_traced(
        &mut self,
        structure: u64,
        examples: Vec<WireExample>,
        ell: usize,
        q: usize,
        epsilon: f64,
        solver: SolverSpec,
        trace: crate::proto::TraceContext,
    ) -> Result<SolveOutcome, ClientError> {
        let req = Request::Solve {
            structure,
            examples,
            ell,
            q,
            epsilon,
            solver,
            trace: Some(trace),
        };
        match self.call(&req)? {
            Response::Solved(outcome) => Ok(outcome),
            other => Err(unexpected("solved", &other)),
        }
    }

    /// Ask a stored hypothesis to classify tuples; with `labels`, the
    /// server also reports the misclassification rate.
    fn evaluate(
        &mut self,
        structure: u64,
        hypothesis: u64,
        tuples: Vec<Vec<u32>>,
        labels: Option<Vec<bool>>,
    ) -> Result<(Vec<bool>, Option<f64>), ClientError> {
        let req = Request::Evaluate {
            structure,
            hypothesis,
            tuples,
            labels,
        };
        match self.call(&req)? {
            Response::Predictions { labels, error, .. } => Ok((labels, error)),
            other => Err(unexpected("predictions", &other)),
        }
    }

    /// Model-check an FO sentence on a registered structure with the
    /// tree-walking evaluator.
    fn modelcheck(&mut self, structure: u64, formula: &str) -> Result<bool, ClientError> {
        self.modelcheck_with_engine(structure, formula, folearn_logic::vm::EvalEngine::TreeWalk)
    }

    /// Model-check with an explicit formula-evaluation engine.
    fn modelcheck_with_engine(
        &mut self,
        structure: u64,
        formula: &str,
        engine: folearn_logic::vm::EvalEngine,
    ) -> Result<bool, ClientError> {
        let req = Request::ModelCheck {
            structure,
            formula: formula.to_string(),
            engine,
            trace: None,
        };
        match self.call(&req)? {
            Response::Truth { holds, .. } => Ok(holds),
            other => Err(unexpected("truth", &other)),
        }
    }

    /// Fetch the daemon's full content inventory: sorted structure
    /// hashes plus sorted `(hypothesis id, structure)` pairs, one per
    /// hypothesis the daemon holds.
    fn inventory(
        &mut self,
    ) -> Result<(Vec<u64>, Vec<crate::proto::WireBinding>), ClientError> {
        match self.call(&Request::Inventory { hypotheses: true })? {
            Response::Inventory {
                structures,
                hypotheses,
            } => Ok((structures, hypotheses)),
            other => Err(unexpected("inventory", &other)),
        }
    }

    /// Fetch only the sorted structure hashes of the daemon's inventory
    /// (`inventory` with `hypotheses: false`): the daemon never walks
    /// its hypothesis store. The router's anti-entropy pass diffs these
    /// against expected placement.
    fn structures(&mut self) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Inventory { hypotheses: false })? {
            Response::Inventory { structures, .. } => Ok(structures),
            other => Err(unexpected("inventory", &other)),
        }
    }

    /// Fetch the server's metrics snapshot as JSON.
    fn stats(&mut self) -> Result<crate::proto::Json, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { data } => Ok(data),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Ask the daemon to shut down.
    fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye { .. } => Ok(()),
            other => Err(unexpected("bye", &other)),
        }
    }
}

impl ClientApi for Client {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response = Response::decode(reply.trim_end())?;
        if let Response::Error { message, code } = response {
            return Err(ClientError::Server { message, code });
        }
        Ok(response)
    }
}

/// When (and how often, and how fast) a [`RetryingClient`] re-sends.
///
/// Backoff for retry `n` (1-based) is `base_delay · 2^{n-1}` capped at
/// `max_delay`, half fixed and half drawn uniformly by a [`StdRng`]
/// seeded from `seed` — so two clients with the same seed issue the
/// same delays ("equal jitter", deterministic for the experiments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per call on top of the initial attempt (`0` = fail fast).
    pub max_retries: u32,
    /// First backoff delay.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// No retries: behave exactly like a plain [`Client`].
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// Never retry.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// A sensible default for unreliable paths: up to `max_retries`
    /// re-sends, 10 ms base delay, 500 ms cap.
    pub fn backoff(max_retries: u32, seed: u64) -> Self {
        Self {
            max_retries,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed,
        }
    }

    /// Is this failure worth a retry?
    ///
    /// Transport-level failures (`Io`, `Proto`, `Unexpected`) always
    /// are: a timeout, a dead socket, or an undecodable/mismatched
    /// frame all mean the *path* failed, not the request. A `Server`
    /// error is the daemon deterministically rejecting the request —
    /// not retryable — with one exception: a `malformed request` reply
    /// to a client that knows it sent a well-formed frame proves the
    /// frame was corrupted in flight, so it is transport after all.
    pub fn is_retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) | ClientError::Proto(_) | ClientError::Unexpected(_) => true,
            ClientError::Server { message, .. } => message.starts_with("malformed request"),
        }
    }

    /// The delay before retry `attempt` (1-based).
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let exp = base
            .saturating_mul(1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX))
            .min(cap);
        if exp == 0 {
            return Duration::ZERO;
        }
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            rng.random_range(0..=half)
        };
        Duration::from_nanos(half + jitter)
    }
}

/// Counters a [`RetryingClient`] keeps about its own behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Calls re-sent after a retryable failure.
    pub retries: u64,
    /// Connections (re-)established after the initial one.
    pub reconnects: u64,
    /// `retry_histogram[n]` = successful calls that needed `n` retries.
    pub retry_histogram: Vec<u64>,
}

impl TransportStats {
    fn record_success(&mut self, retries_used: u32) {
        let idx = retries_used as usize;
        if self.retry_histogram.len() <= idx {
            self.retry_histogram.resize(idx + 1, 0);
        }
        self.retry_histogram[idx] += 1;
    }
}

/// A self-healing daemon connection: deadlines, capped exponential
/// backoff with deterministic jitter, and automatic reconnect.
///
/// An unsolicited `bye` (idle timeout, request limit, connection cap)
/// observed mid-call is treated as a retryable failure too: the server
/// closed this connection, so the client re-establishes and re-sends.
pub struct RetryingClient {
    addr: SocketAddr,
    config: ClientConfig,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Client>,
    ever_connected: bool,
    stats: TransportStats,
}

impl RetryingClient {
    /// Connect to `addr` with deadlines and a retry policy. The initial
    /// connection is itself established under the policy.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let addr = resolve(addr)?;
        let mut this = Self {
            addr,
            config,
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            conn: None,
            ever_connected: false,
            stats: TransportStats::default(),
        };
        let mut attempt = 0u32;
        loop {
            match this.ensure_conn().map(|_| ()) {
                Ok(()) => return Ok(this),
                Err(e) => {
                    if attempt >= this.policy.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    this.stats.retries += 1;
                    folearn_obs::count(folearn_obs::Counter::Retries, 1);
                    let delay = this.policy.delay(attempt, &mut this.rng);
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// The resolved daemon address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Retry/reconnect counters so far.
    pub fn transport_stats(&self) -> &TransportStats {
        &self.stats
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let fresh = Client::connect_with(self.addr, &self.config)?;
            if self.ever_connected {
                self.stats.reconnects += 1;
                folearn_obs::count(folearn_obs::Counter::Reconnects, 1);
            }
            self.conn = Some(fresh);
            self.ever_connected = true;
        }
        Ok(self.conn.as_mut().expect("just set"))
    }
}

impl ClientApi for RetryingClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut retries_used = 0u32;
        loop {
            let outcome = match self.ensure_conn() {
                Ok(conn) => conn.call(request),
                Err(e) => Err(e),
            };
            let error = match outcome {
                // An unsolicited bye mid-call means the server is closing
                // this connection (idle timeout, request limit, capacity):
                // reconnect and re-send, unless we asked for it.
                Ok(Response::Bye { reason }) if !matches!(request, Request::Shutdown) => {
                    ClientError::Unexpected(format!("server said bye: {reason}"))
                }
                Ok(response) => {
                    if matches!(response, Response::Bye { .. }) {
                        self.conn = None; // shutdown acknowledged; conn is done
                    }
                    self.stats.record_success(retries_used);
                    return Ok(response);
                }
                Err(e) => e,
            };
            // The connection may have a stale response in flight — never
            // reuse it after a failed exchange.
            self.conn = None;
            if retries_used >= self.policy.max_retries || !RetryPolicy::is_retryable(&error) {
                return Err(error);
            }
            retries_used += 1;
            self.stats.retries += 1;
            folearn_obs::count(folearn_obs::Counter::Retries, 1);
            let delay = self.policy.delay(retries_used, &mut self.rng);
            std::thread::sleep(delay);
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Unexpected(format!("wanted `{wanted}`, got `{}`", got.encode()))
}
