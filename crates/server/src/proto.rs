//! The wire protocol: typed request/response messages over the shared
//! JSON value tree, one message per line.
//!
//! The JSON codec itself lives in `folearn_obs::json` (re-exported here
//! as [`Json`]): an order-preserving value tree whose compact renderer
//! never emits a raw newline, so one message always occupies exactly one
//! line and the framing is trivial — write `render() + "\n"`, read with
//! `read_line`. The same tree backs the experiment report writer
//! (`folearn_bench::write_json_file`, which E24 uses), the reader of
//! the committed `BENCH_*.json` artifacts, and the trace exporters,
//! keeping artifacts and trace JSONL format-consistent with the wire.
//!
//! Numbers are `f64`; 64-bit identifiers (structure hashes) do not fit
//! `f64` losslessly and therefore travel as fixed-width hex strings.

use folearn::fit::TypeMode;
use folearn_logic::vm::EvalEngine;

pub use folearn_obs::json::{Json, JsonError};

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a — the content hash used to address registered
/// structures and to key the result cache.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The id of the hypothesis a solve produces: the FNV-1a digest of its
/// [`solve_key`]. The learners are deterministic, so this one hash
/// names the answer on every daemon, every replica and across restarts.
/// The trace context is not part of it: tracing never changes answers.
pub fn hypothesis_id(
    structure: u64,
    examples: &[WireExample],
    ell: usize,
    q: usize,
    epsilon: f64,
    solver: &SolverSpec,
) -> u64 {
    key_id(solve_key(structure, examples, ell, q, epsilon, solver))
}

/// The identity of a solve, `(structure hash, sample hash, solver
/// config hash)`: the key of the result cache. The sample hash covers
/// the examples and `(ℓ, q, ε)`; the config hash is that of the
/// solver's canonical wire form.
pub(crate) fn solve_key(
    structure: u64,
    examples: &[WireExample],
    ell: usize,
    q: usize,
    epsilon: f64,
    solver: &SolverSpec,
) -> (u64, u64, u64) {
    let mut bytes = Vec::new();
    for e in examples {
        bytes.extend_from_slice(&(e.tuple.len() as u32).to_le_bytes());
        for &v in &e.tuple {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(u8::from(e.label));
    }
    bytes.extend_from_slice(&(ell as u64).to_le_bytes());
    bytes.extend_from_slice(&(q as u64).to_le_bytes());
    bytes.extend_from_slice(&epsilon.to_bits().to_le_bytes());
    let config = fnv1a64(solver.to_json().render().as_bytes());
    (structure, fnv1a64(&bytes), config)
}

/// The hypothesis id a [`solve_key`] names.
pub(crate) fn key_id((structure, sample, config): (u64, u64, u64)) -> u64 {
    fnv1a64(&[structure.to_le_bytes(), sample.to_le_bytes(), config.to_le_bytes()].concat())
}

/// Render a 64-bit id as the fixed-width hex string used on the wire.
pub fn hex64(x: u64) -> String {
    format!("{x:016x}")
}

/// Parse a [`hex64`] string. The error names the offending token so a
/// bad id buried in a large message can be located from the message
/// alone.
pub fn parse_hex64(s: &str) -> Result<u64, ProtoError> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ProtoError::new(format!(
            "bad 64-bit hex id {s:?} (want exactly 16 hex digits)"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|e| ProtoError::new(format!("bad hex id {s:?}: {e}")))
}

/// A protocol error: malformed JSON, a malformed message, or a message
/// that does not fit the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl ProtoError {
    fn new(msg: impl Into<String>) -> Self {
        ProtoError(msg.into())
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError(e.0)
    }
}

// ---------------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------------

/// One labelled example on the wire (vertex indices; arity = tuple
/// length, constant across a request).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireExample {
    /// Vertex indices of the tuple.
    pub tuple: Vec<u32>,
    /// The Boolean label.
    pub label: bool,
}

/// Which solver a `solve` request runs.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverSpec {
    /// Brute-force ERM (Proposition 11) with engine knobs.
    Brute {
        /// Type notion (`TypeMode` string form: `global`, `local=R`, …).
        mode: TypeMode,
        /// Worker threads (`null` inherits the server's pool share).
        threads: Option<usize>,
        /// Shared-bound pruning.
        prune: bool,
        /// Formula-evaluation backend (`tree` or `vm`). Part of the
        /// canonical form, so it enters the solve-cache key: a `vm`
        /// solve is never answered from a `tree` cache entry.
        engine: EvalEngine,
    },
    /// The nowhere-dense learner (Theorem 13) with its default config.
    Nd,
}

impl SolverSpec {
    /// The default solver: global types, pool-share threads, pruning on
    /// — the configuration whose answers are bit-identical to the
    /// in-process `BruteForceOracle`.
    pub fn default_brute() -> Self {
        SolverSpec::Brute {
            mode: TypeMode::Global,
            threads: None,
            prune: true,
            engine: EvalEngine::TreeWalk,
        }
    }

    /// Render as protocol JSON (also the canonical form hashed into
    /// solve-cache keys).
    pub fn to_json(&self) -> Json {
        match self {
            SolverSpec::Brute {
                mode,
                threads,
                prune,
                engine,
            } => Json::obj([
                ("name", Json::str("brute")),
                ("mode", Json::str(mode.to_string())),
                (
                    "threads",
                    threads.map_or(Json::Null, Json::int),
                ),
                ("prune", Json::Bool(*prune)),
                ("engine", Json::str(engine.name())),
            ]),
            SolverSpec::Nd => Json::obj([("name", Json::str("nd"))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match get_str(v, "name")? {
            "brute" => Ok(SolverSpec::Brute {
                mode: get_str(v, "mode")?
                    .parse()
                    .map_err(ProtoError::new)?,
                threads: match v.get("threads") {
                    None | Some(Json::Null) => None,
                    Some(t) => Some(t.as_usize().ok_or_else(|| {
                        ProtoError::new("solver.threads must be a non-negative integer")
                    })?),
                },
                prune: get_bool(v, "prune")?,
                engine: parse_engine(v)?,
            }),
            "nd" => Ok(SolverSpec::Nd),
            other => Err(ProtoError::new(format!("unknown solver {other:?}"))),
        }
    }
}

/// Parse an optional `engine` field; messages from older clients omit it
/// and get the tree-walker.
fn parse_engine(v: &Json) -> Result<EvalEngine, ProtoError> {
    match v.get("engine") {
        None | Some(Json::Null) => Ok(EvalEngine::TreeWalk),
        Some(e) => e
            .as_str()
            .ok_or_else(|| ProtoError::new("engine must be a string"))?
            .parse()
            .map_err(ProtoError::new),
    }
}

/// Distributed-trace context on a request envelope: the trace id and
/// the caller's span id. A daemon receiving one binds its own span
/// under the propagated parent (as `trace_id`/`parent` meta on the
/// span it returns), so the router — or any upstream — can stitch the
/// backend's subtree into its own span tree and a single
/// `folearn trace` render shows the whole cluster-side story of one
/// request. Absent from older clients; both ids travel as [`hex64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id, shared by every span of one logical request.
    pub trace_id: u64,
    /// Span id of the caller — the parent of the span the callee opens.
    pub parent: u64,
}

impl TraceContext {
    fn to_json(self) -> Json {
        Json::obj([
            ("trace_id", Json::str(hex64(self.trace_id))),
            ("parent", Json::str(hex64(self.parent))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(TraceContext {
            trace_id: get_hex(v, "trace_id")?,
            parent: get_hex(v, "parent")?,
        })
    }
}

/// Decode an optional trace context (absent/null from older clients).
fn get_trace(v: &Json) -> Result<Option<TraceContext>, ProtoError> {
    match v.get("trace") {
        None | Some(Json::Null) => Ok(None),
        Some(t) => Ok(Some(TraceContext::from_json(t)?)),
    }
}

fn trace_json(t: &Option<TraceContext>) -> Json {
    t.as_ref().map_or(Json::Null, |ctx| ctx.to_json())
}

/// A client request (one per line).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness / latency-floor probe.
    Ping,
    /// Upload a structure in the `folearn_graph::io` exchange format;
    /// the server parses it and addresses it by content hash thereafter.
    Register {
        /// The graph text.
        graph_text: String,
    },
    /// Solve an FO-ERM instance against a registered structure.
    Solve {
        /// Content hash of the registered structure.
        structure: u64,
        /// The training sequence.
        examples: Vec<WireExample>,
        /// Number of parameters `ℓ`.
        ell: usize,
        /// Quantifier-rank bound `q`.
        q: usize,
        /// Additive slack `ε`.
        epsilon: f64,
        /// Which solver to run.
        solver: SolverSpec,
        /// Distributed-trace context from the caller, if any. NOT part
        /// of the solve-cache key: tracing never changes answers.
        trace: Option<TraceContext>,
    },
    /// Evaluate a stored hypothesis on tuples (optionally labelled, in
    /// which case the response reports the error rate).
    Evaluate {
        /// Content hash of the registered structure to evaluate over.
        structure: u64,
        /// Hypothesis id from a `solved` response (the
        /// [`hypothesis_id`] of its solve).
        hypothesis: u64,
        /// Tuples to classify.
        tuples: Vec<Vec<u32>>,
        /// Optional labels, parallel to `tuples`.
        labels: Option<Vec<bool>>,
    },
    /// Model-check a sentence on a registered structure.
    ModelCheck {
        /// Content hash of the registered structure.
        structure: u64,
        /// The sentence, in `folearn_logic::parser` syntax.
        formula: String,
        /// Formula-evaluation backend (`tree` or `vm`).
        engine: EvalEngine,
        /// Distributed-trace context from the caller, if any.
        trace: Option<TraceContext>,
    },
    /// Fetch the metrics snapshot.
    Stats,
    /// Fetch the daemon's content inventory: which structures and which
    /// hypotheses it holds. The anti-entropy repair pass diffs the
    /// structures against the router's placement to re-seed only what a
    /// crashed-and-restarted backend actually lost.
    Inventory {
        /// List the hypotheses too. `false` asks for the structure
        /// hashes alone (the reply's `hypotheses` array is empty), so the
        /// daemon never walks its hypothesis store: that is what the
        /// repair sweep sends. On the wire the field appears only when
        /// `false`; a request without it lists everything.
        hypotheses: bool,
    },
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

impl Request {
    /// Render as a single wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().render()
    }

    /// Parse one wire line.
    pub fn decode(line: &str) -> Result<Self, ProtoError> {
        Self::from_json(&Json::parse(line)?)
    }

    /// The `op` tag (used for metrics bucketing).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Register { .. } => "register",
            Request::Solve { .. } => "solve",
            Request::Evaluate { .. } => "evaluate",
            Request::ModelCheck { .. } => "modelcheck",
            Request::Stats => "stats",
            Request::Inventory { .. } => "inventory",
            Request::Shutdown => "shutdown",
        }
    }

    /// The JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
            Request::Register { graph_text } => Json::obj([
                ("op", Json::str("register")),
                ("graph", Json::str(graph_text.clone())),
            ]),
            Request::Solve {
                structure,
                examples,
                ell,
                q,
                epsilon,
                solver,
                trace,
            } => Json::obj([
                ("op", Json::str("solve")),
                ("structure", Json::str(hex64(*structure))),
                (
                    "examples",
                    Json::Arr(
                        examples
                            .iter()
                            .map(|e| {
                                Json::obj([
                                    (
                                        "tuple",
                                        Json::Arr(
                                            e.tuple
                                                .iter()
                                                .map(|&v| Json::int(v as usize))
                                                .collect(),
                                        ),
                                    ),
                                    ("label", Json::Bool(e.label)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("ell", Json::int(*ell)),
                ("q", Json::int(*q)),
                ("epsilon", Json::Num(*epsilon)),
                ("solver", solver.to_json()),
                ("trace", trace_json(trace)),
            ]),
            Request::Evaluate {
                structure,
                hypothesis,
                tuples,
                labels,
            } => Json::obj([
                ("op", Json::str("evaluate")),
                ("structure", Json::str(hex64(*structure))),
                ("hypothesis", Json::str(hex64(*hypothesis))),
                (
                    "tuples",
                    Json::Arr(
                        tuples
                            .iter()
                            .map(|t| {
                                Json::Arr(
                                    t.iter().map(|&v| Json::int(v as usize)).collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "labels",
                    match labels {
                        None => Json::Null,
                        Some(ls) => Json::Arr(ls.iter().map(|&b| Json::Bool(b)).collect()),
                    },
                ),
            ]),
            Request::ModelCheck {
                structure,
                formula,
                engine,
                trace,
            } => Json::obj([
                ("op", Json::str("modelcheck")),
                ("structure", Json::str(hex64(*structure))),
                ("formula", Json::str(formula.clone())),
                ("engine", Json::str(engine.name())),
                ("trace", trace_json(trace)),
            ]),
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Inventory { hypotheses: true } => Json::obj([("op", Json::str("inventory"))]),
            Request::Inventory { hypotheses: false } => Json::obj([
                ("op", Json::str("inventory")),
                ("hypotheses", Json::Bool(false)),
            ]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        }
    }

    /// Reconstruct from the JSON form.
    pub fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match get_str(v, "op")? {
            "ping" => Ok(Request::Ping),
            "register" => Ok(Request::Register {
                graph_text: get_str(v, "graph")?.to_string(),
            }),
            "solve" => {
                let examples = v
                    .get("examples")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError::new("solve.examples must be an array"))?
                    .iter()
                    .map(|e| {
                        Ok(WireExample {
                            tuple: get_u32_arr(e, "tuple")?,
                            label: get_bool(e, "label")?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Request::Solve {
                    structure: get_hex(v, "structure")?,
                    examples,
                    ell: get_usize(v, "ell")?,
                    q: get_usize(v, "q")?,
                    epsilon: v
                        .get("epsilon")
                        .and_then(Json::as_num)
                        .ok_or_else(|| ProtoError::new("solve.epsilon must be a number"))?,
                    solver: SolverSpec::from_json(
                        v.get("solver")
                            .ok_or_else(|| ProtoError::new("solve.solver missing"))?,
                    )?,
                    trace: get_trace(v)?,
                })
            }
            "evaluate" => {
                let tuples = v
                    .get("tuples")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError::new("evaluate.tuples must be an array"))?
                    .iter()
                    .map(|t| u32_arr(t, "evaluate.tuples"))
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                let labels = match v.get("labels") {
                    None | Some(Json::Null) => None,
                    Some(ls) => Some(
                        ls.as_arr()
                            .ok_or_else(|| {
                                ProtoError::new("evaluate.labels must be an array")
                            })?
                            .iter()
                            .map(|b| {
                                b.as_bool().ok_or_else(|| {
                                    ProtoError::new("evaluate.labels must hold booleans")
                                })
                            })
                            .collect::<Result<Vec<_>, ProtoError>>()?,
                    ),
                };
                Ok(Request::Evaluate {
                    structure: get_hex(v, "structure")?,
                    hypothesis: get_hex(v, "hypothesis")?,
                    tuples,
                    labels,
                })
            }
            "modelcheck" => Ok(Request::ModelCheck {
                structure: get_hex(v, "structure")?,
                formula: get_str(v, "formula")?.to_string(),
                engine: parse_engine(v)?,
                trace: get_trace(v)?,
            }),
            "stats" => Ok(Request::Stats),
            "inventory" => Ok(Request::Inventory {
                hypotheses: match v.get("hypotheses") {
                    None => true,
                    Some(_) => get_bool(v, "hypotheses")?,
                },
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::new(format!("unknown op {other:?}"))),
        }
    }
}

/// The solved payload: a full `SolveReport` plus the server-side
/// hypothesis handle.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveOutcome {
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Training error achieved.
    pub error: f64,
    /// Solver work measure, a function of the request alone (for brute
    /// force, the tuples the sequential scan touches). The
    /// scheduling-dependent evaluated/pruned tallies of a parallel sweep
    /// stay out of the reply: they go to `stats` and traces. Older peers
    /// that still send them have the two fields ignored.
    pub work: usize,
    /// Solver name (as in `SolveReport::solver_name`).
    pub solver: String,
    /// The learned hypothesis.
    pub hypothesis: WireHypothesis,
    /// Learner-level span tree for this solve (the `folearn_obs` export
    /// form), when the server captured one. Cached answers replay the
    /// trace of the run that populated the cache, so repeat solves stay
    /// bit-identical modulo the `cached` flag.
    pub trace: Option<Json>,
    /// Which cluster node answered (router-attached; `None` from a plain
    /// server).
    pub provenance: Option<WireProvenance>,
}

/// A learned hypothesis on the wire. The `types` ids are relative to the
/// server's per-vocabulary arena: stable across calls within one server
/// lifetime (so clients can group equal answers), meaningless elsewhere.
/// The `type_keys` are the *canonical* content hashes of the same types
/// (`folearn_types::canon`): backend-independent, so a client talking to
/// a cluster can recognise the same hypothesis regardless of which
/// replica answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHypothesis {
    /// Id for follow-up `evaluate` calls: the [`hypothesis_id`] of the
    /// solve, the same on every daemon.
    pub id: u64,
    /// The parameter tuple `w̄`.
    pub params: Vec<u32>,
    /// Quantifier rank of the type layer.
    pub q: usize,
    /// Type mode string (`TypeMode` display form).
    pub mode: String,
    /// Positive type ids in the server's arena, sorted.
    pub types: Vec<u32>,
    /// Canonical (arena-independent) keys of the positive types, sorted.
    /// Empty when the message came from a pre-cluster server.
    pub type_keys: Vec<u64>,
    /// Human-readable summary (`Hypothesis::describe`).
    pub describe: String,
}

impl WireHypothesis {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(hex64(self.id))),
            (
                "params",
                Json::Arr(self.params.iter().map(|&v| Json::int(v as usize)).collect()),
            ),
            ("q", Json::int(self.q)),
            ("mode", Json::str(self.mode.clone())),
            (
                "types",
                Json::Arr(self.types.iter().map(|&t| Json::int(t as usize)).collect()),
            ),
            (
                "type_keys",
                Json::Arr(self.type_keys.iter().map(|&k| Json::str(hex64(k))).collect()),
            ),
            ("describe", Json::str(self.describe.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(WireHypothesis {
            id: get_hex(v, "id")?,
            params: get_u32_arr(v, "params")?,
            q: get_usize(v, "q")?,
            mode: get_str(v, "mode")?.to_string(),
            types: get_u32_arr(v, "types")?,
            type_keys: get_hex_arr_opt(v, "type_keys")?,
            describe: get_str(v, "describe")?.to_string(),
        })
    }
}

/// Where a reply actually came from, attached by the cluster router so
/// clients (and the bench suite) can audit hedging and failover. Plain
/// servers never emit it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireProvenance {
    /// Backend address that produced the winning reply.
    pub backend: String,
    /// Replica rank of that backend for the structure (0 = primary).
    pub replica: usize,
    /// Whether the winning reply came from a hedge request.
    pub hedged: bool,
}

impl WireProvenance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("backend", Json::str(self.backend.clone())),
            ("replica", Json::int(self.replica)),
            ("hedged", Json::Bool(self.hedged)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(WireProvenance {
            backend: get_str(v, "backend")?.to_string(),
            replica: get_usize(v, "replica")?,
            hedged: get_bool(v, "hedged")?,
        })
    }
}

/// One hypothesis in an `inventory` reply: its id and the content hash
/// of the structure it was learned on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireBinding {
    /// Hypothesis id ([`hypothesis_id`] of its solve).
    pub id: u64,
    /// Content hash of the structure the hypothesis lives on.
    pub structure: u64,
}

impl WireBinding {
    fn to_json(self) -> Json {
        Json::obj([
            ("id", Json::str(hex64(self.id))),
            ("structure", Json::str(hex64(self.structure))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(WireBinding {
            id: get_hex(v, "id")?,
            structure: get_hex(v, "structure")?,
        })
    }
}

/// Decode an optional provenance field (absent/null from plain servers).
fn get_provenance(v: &Json) -> Result<Option<WireProvenance>, ProtoError> {
    match v.get("provenance") {
        None | Some(Json::Null) => Ok(None),
        Some(p) => Ok(Some(WireProvenance::from_json(p)?)),
    }
}

fn provenance_json(p: &Option<WireProvenance>) -> Json {
    p.as_ref().map_or(Json::Null, WireProvenance::to_json)
}

/// A server response (one per line).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong,
    /// Reply to `register`.
    Registered {
        /// Content hash — the structure's address from now on.
        structure: u64,
        /// Vertex count of the parsed structure.
        vertices: usize,
        /// Edge count.
        edges: usize,
        /// `false` if the structure was already registered.
        fresh: bool,
        /// Backend addresses now holding a replica (router-attached ack;
        /// `None` from a plain server).
        replicas: Option<Vec<String>>,
    },
    /// Reply to `solve`.
    Solved(SolveOutcome),
    /// Reply to `evaluate`.
    Predictions {
        /// Predicted labels, parallel to the request tuples.
        labels: Vec<bool>,
        /// Error rate against the provided labels, if any were given.
        error: Option<f64>,
        /// Which cluster node answered (router-attached).
        provenance: Option<WireProvenance>,
    },
    /// Reply to `modelcheck`.
    Truth {
        /// Whether the structure models the sentence.
        holds: bool,
        /// Which cluster node answered (router-attached).
        provenance: Option<WireProvenance>,
    },
    /// Reply to `stats` (free-form metrics object).
    Stats {
        /// The metrics snapshot.
        data: Json,
    },
    /// Reply to `inventory`: everything this daemon is holding, by
    /// content hash. Both lists are sorted so two inventories compare
    /// byte-for-byte.
    Inventory {
        /// Content hashes of registered structures, sorted.
        structures: Vec<u64>,
        /// Hypotheses `(id, structure)`, sorted by id; empty when the
        /// request set `hypotheses: false`.
        hypotheses: Vec<WireBinding>,
    },
    /// Any request-level failure.
    Error {
        /// What went wrong.
        message: String,
        /// Machine-readable error class (e.g. `"unknown_structure"`),
        /// when the sender classified the failure. Plain-string errors
        /// from older servers decode with `None`.
        code: Option<String>,
    },
    /// Connection is closing (graceful shutdown or request limit).
    Bye {
        /// Why.
        reason: String,
    },
}

impl Response {
    /// An error response with no machine-readable class.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error {
            message: message.into(),
            code: None,
        }
    }

    /// An error response carrying a machine-readable class.
    pub fn error_coded(code: impl Into<String>, message: impl Into<String>) -> Self {
        Response::Error {
            message: message.into(),
            code: Some(code.into()),
        }
    }

    /// Render as a single wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().render()
    }

    /// Parse one wire line.
    pub fn decode(line: &str) -> Result<Self, ProtoError> {
        Self::from_json(&Json::parse(line)?)
    }

    /// The JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong => Json::obj([("resp", Json::str("pong"))]),
            Response::Registered {
                structure,
                vertices,
                edges,
                fresh,
                replicas,
            } => Json::obj([
                ("resp", Json::str("registered")),
                ("structure", Json::str(hex64(*structure))),
                ("vertices", Json::int(*vertices)),
                ("edges", Json::int(*edges)),
                ("fresh", Json::Bool(*fresh)),
                (
                    "replicas",
                    match replicas {
                        None => Json::Null,
                        Some(rs) => {
                            Json::Arr(rs.iter().map(|r| Json::str(r.clone())).collect())
                        }
                    },
                ),
            ]),
            Response::Solved(o) => Json::obj([
                ("resp", Json::str("solved")),
                ("cached", Json::Bool(o.cached)),
                ("error", Json::Num(o.error)),
                ("work", Json::int(o.work)),
                ("solver", Json::str(o.solver.clone())),
                ("hypothesis", o.hypothesis.to_json()),
                ("trace", o.trace.clone().unwrap_or(Json::Null)),
                ("provenance", provenance_json(&o.provenance)),
            ]),
            Response::Predictions {
                labels,
                error,
                provenance,
            } => Json::obj([
                ("resp", Json::str("predictions")),
                (
                    "labels",
                    Json::Arr(labels.iter().map(|&b| Json::Bool(b)).collect()),
                ),
                ("error", error.map_or(Json::Null, Json::Num)),
                ("provenance", provenance_json(provenance)),
            ]),
            Response::Truth { holds, provenance } => Json::obj([
                ("resp", Json::str("truth")),
                ("holds", Json::Bool(*holds)),
                ("provenance", provenance_json(provenance)),
            ]),
            Response::Stats { data } => Json::obj([
                ("resp", Json::str("stats")),
                ("data", data.clone()),
            ]),
            Response::Inventory {
                structures,
                hypotheses,
            } => Json::obj([
                ("resp", Json::str("inventory")),
                (
                    "structures",
                    Json::Arr(structures.iter().map(|&s| Json::str(hex64(s))).collect()),
                ),
                (
                    "hypotheses",
                    Json::Arr(hypotheses.iter().map(|b| b.to_json()).collect()),
                ),
            ]),
            Response::Error { message, code } => Json::obj([
                ("resp", Json::str("error")),
                ("message", Json::str(message.clone())),
                (
                    "code",
                    code.as_ref().map_or(Json::Null, |c| Json::str(c.clone())),
                ),
            ]),
            Response::Bye { reason } => Json::obj([
                ("resp", Json::str("bye")),
                ("reason", Json::str(reason.clone())),
            ]),
        }
    }

    /// Reconstruct from the JSON form.
    pub fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match get_str(v, "resp")? {
            "pong" => Ok(Response::Pong),
            "registered" => Ok(Response::Registered {
                structure: get_hex(v, "structure")?,
                vertices: get_usize(v, "vertices")?,
                edges: get_usize(v, "edges")?,
                fresh: get_bool(v, "fresh")?,
                replicas: match v.get("replicas") {
                    None | Some(Json::Null) => None,
                    Some(rs) => Some(
                        rs.as_arr()
                            .ok_or_else(|| {
                                ProtoError::new("registered.replicas must be an array")
                            })?
                            .iter()
                            .map(|r| {
                                r.as_str().map(str::to_string).ok_or_else(|| {
                                    ProtoError::new("registered.replicas must hold strings")
                                })
                            })
                            .collect::<Result<Vec<_>, ProtoError>>()?,
                    ),
                },
            }),
            "solved" => Ok(Response::Solved(SolveOutcome {
                cached: get_bool(v, "cached")?,
                error: v
                    .get("error")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ProtoError::new("solved.error must be a number"))?,
                work: get_usize(v, "work")?,
                solver: get_str(v, "solver")?.to_string(),
                hypothesis: WireHypothesis::from_json(
                    v.get("hypothesis")
                        .ok_or_else(|| ProtoError::new("solved.hypothesis missing"))?,
                )?,
                trace: match v.get("trace") {
                    None | Some(Json::Null) => None,
                    Some(t) => Some(t.clone()),
                },
                provenance: get_provenance(v)?,
            })),
            "predictions" => Ok(Response::Predictions {
                labels: v
                    .get("labels")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError::new("predictions.labels must be an array"))?
                    .iter()
                    .map(|b| {
                        b.as_bool().ok_or_else(|| {
                            ProtoError::new("predictions.labels must hold booleans")
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?,
                error: match v.get("error") {
                    None | Some(Json::Null) => None,
                    Some(e) => Some(e.as_num().ok_or_else(|| {
                        ProtoError::new("predictions.error must be a number or null")
                    })?),
                },
                provenance: get_provenance(v)?,
            }),
            "truth" => Ok(Response::Truth {
                holds: get_bool(v, "holds")?,
                provenance: get_provenance(v)?,
            }),
            "stats" => Ok(Response::Stats {
                data: v
                    .get("data")
                    .cloned()
                    .ok_or_else(|| ProtoError::new("stats.data missing"))?,
            }),
            "inventory" => Ok(Response::Inventory {
                structures: get_hex_arr_opt(v, "structures")?,
                hypotheses: v
                    .get("hypotheses")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError::new("inventory.hypotheses must be an array"))?
                    .iter()
                    .map(WireBinding::from_json)
                    .collect::<Result<Vec<_>, ProtoError>>()?,
            }),
            "error" => Ok(Response::Error {
                message: get_str(v, "message")?.to_string(),
                code: match v.get("code") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(
                        c.as_str()
                            .ok_or_else(|| {
                                ProtoError::new("error.code must be a string or null")
                            })?
                            .to_string(),
                    ),
                },
            }),
            "bye" => Ok(Response::Bye {
                reason: get_str(v, "reason")?.to_string(),
            }),
            other => Err(ProtoError::new(format!("unknown resp {other:?}"))),
        }
    }
}

// -- field accessors --------------------------------------------------------

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a string")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, ProtoError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a boolean")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, ProtoError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a non-negative integer")))
}

fn get_hex(v: &Json, key: &str) -> Result<u64, ProtoError> {
    parse_hex64(get_str(v, key)?).map_err(|e| ProtoError::new(format!("field {key:?}: {e}")))
}

fn u32_arr(v: &Json, what: &str) -> Result<Vec<u32>, ProtoError> {
    v.as_arr()
        .ok_or_else(|| ProtoError::new(format!("{what} must be an array")))?
        .iter()
        .map(|x| {
            x.as_usize()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ProtoError::new(format!("{what} must hold u32 values")))
        })
        .collect()
}

/// An optional array of [`hex64`] ids; absent/null decodes as empty (the
/// pre-cluster wire form).
fn get_hex_arr_opt(v: &Json, key: &str) -> Result<Vec<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(a) => a
            .as_arr()
            .ok_or_else(|| ProtoError::new(format!("field {key:?} must be an array")))?
            .iter()
            .map(|x| {
                x.as_str()
                    .ok_or_else(|| ProtoError::new(format!("field {key:?} must hold hex ids")))
                    .and_then(|s| {
                        parse_hex64(s)
                            .map_err(|e| ProtoError::new(format!("field {key:?}: {e}")))
                    })
            })
            .collect(),
    }
}

fn get_u32_arr(v: &Json, key: &str) -> Result<Vec<u32>, ProtoError> {
    u32_arr(
        v.get(key)
            .ok_or_else(|| ProtoError::new(format!("field {key:?} missing")))?,
        key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_ids_round_trip() {
        for x in [0u64, 1, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(parse_hex64(&hex64(x)).unwrap(), x);
        }
        assert!(parse_hex64("123").is_err());
        assert!(parse_hex64("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_ne!(fnv1a64(b"vertices 3"), fnv1a64(b"vertices 4"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Register {
                graph_text: "colors Röd \"Blå\"\nvertices 2\nedge 0 1\n".to_string(),
            },
            Request::Solve {
                structure: 0xabcd_ef01_2345_6789,
                examples: vec![
                    WireExample {
                        tuple: vec![0, 3],
                        label: true,
                    },
                    WireExample {
                        tuple: vec![1, 1],
                        label: false,
                    },
                ],
                ell: 2,
                q: 1,
                epsilon: 0.25,
                solver: SolverSpec::Brute {
                    mode: TypeMode::Local { r: 2 },
                    threads: Some(4),
                    prune: true,
                    engine: EvalEngine::Vm,
                },
                trace: Some(TraceContext {
                    trace_id: 0x1234_5678_9abc_def0,
                    parent: u64::MAX,
                }),
            },
            Request::Solve {
                structure: 7,
                examples: vec![],
                ell: 0,
                q: 0,
                epsilon: 1.0 / 3.0,
                solver: SolverSpec::Nd,
                trace: None,
            },
            Request::Evaluate {
                structure: 1,
                hypothesis: u64::MAX,
                tuples: vec![vec![0], vec![5]],
                labels: Some(vec![true, false]),
            },
            Request::Evaluate {
                structure: 1,
                hypothesis: 2,
                tuples: vec![],
                labels: None,
            },
            Request::ModelCheck {
                structure: 42,
                formula: "exists x0. \"Red\"(x0)\n∧ weird".to_string(),
                engine: EvalEngine::Vm,
                trace: Some(TraceContext {
                    trace_id: 1,
                    parent: 0,
                }),
            },
            Request::Stats,
            Request::Inventory { hypotheses: true },
            Request::Inventory { hypotheses: false },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Registered {
                structure: 99,
                vertices: 8,
                edges: 7,
                fresh: false,
                replicas: None,
            },
            Response::Registered {
                structure: 100,
                vertices: 1,
                edges: 0,
                fresh: true,
                replicas: Some(vec![
                    "127.0.0.1:4100".to_string(),
                    "127.0.0.1:4101".to_string(),
                ]),
            },
            Response::Solved(SolveOutcome {
                cached: true,
                error: 0.125,
                work: 1024,
                solver: "brute-force (Prop 11)".to_string(),
                hypothesis: WireHypothesis {
                    id: 3,
                    params: vec![7, 0],
                    q: 1,
                    mode: "local=2".to_string(),
                    types: vec![0, 4, 9],
                    type_keys: vec![1, 0xdead_beef_cafe_f00d, u64::MAX],
                    describe: "Hypothesis(3 positive types, params=[V(7)], …)".to_string(),
                },
                trace: Some(Json::obj([
                    ("span", Json::str("server.solve")),
                    ("ns", Json::int(123_456)),
                    (
                        "counters",
                        Json::obj([("evaluated_params", Json::int(25))]),
                    ),
                ])),
                provenance: Some(WireProvenance {
                    backend: "127.0.0.1:4101".to_string(),
                    replica: 1,
                    hedged: true,
                }),
            }),
            Response::Solved(SolveOutcome {
                cached: false,
                error: 0.0,
                work: 1,
                solver: "nd (Thm 13)".to_string(),
                hypothesis: WireHypothesis {
                    id: 4,
                    params: vec![],
                    q: 0,
                    mode: "global".to_string(),
                    types: vec![],
                    type_keys: vec![],
                    describe: "trivial".to_string(),
                },
                trace: None,
                provenance: None,
            }),
            Response::Predictions {
                labels: vec![true, false, true],
                error: Some(1.0 / 3.0),
                provenance: Some(WireProvenance {
                    backend: "127.0.0.1:4100".to_string(),
                    replica: 0,
                    hedged: false,
                }),
            },
            Response::Predictions {
                labels: vec![],
                error: None,
                provenance: None,
            },
            Response::Truth {
                holds: true,
                provenance: None,
            },
            Response::Stats {
                data: Json::obj([
                    ("requests", Json::int(12)),
                    ("hit_rate", Json::Num(0.75)),
                ]),
            },
            Response::Inventory {
                structures: vec![7, 0xdead_beef_0000_0001, u64::MAX],
                hypotheses: vec![
                    WireBinding {
                        id: 1,
                        structure: 7,
                    },
                    WireBinding {
                        id: 2,
                        structure: u64::MAX,
                    },
                ],
            },
            Response::Inventory {
                structures: vec![],
                hypotheses: vec![],
            },
            Response::Error {
                message: "line 2: unknown colour \"Grün\"\nsecond line".to_string(),
                code: None,
            },
            Response::error_coded("unknown_structure", "unknown structure 00000000000000ff"),
            Response::Bye {
                reason: "request limit".to_string(),
            },
        ]
    }

    #[test]
    fn every_request_variant_round_trips() {
        for req in sample_requests() {
            let line = req.encode();
            assert!(!line.contains('\n'), "framing broken: {line:?}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        for resp in sample_responses() {
            let line = resp.encode();
            assert!(!line.contains('\n'), "framing broken: {line:?}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn engine_field_defaults_to_tree_and_splits_cache_keys() {
        // Messages from older clients omit `engine`.
        let legacy = r#"{"op": "modelcheck", "structure": "000000000000002a", "formula": "t"}"#;
        match Request::decode(legacy).unwrap() {
            Request::ModelCheck { engine, .. } => assert_eq!(engine, EvalEngine::TreeWalk),
            other => panic!("{other:?}"),
        }
        let legacy_solver =
            Json::parse(r#"{"name": "brute", "mode": "global", "prune": true}"#).unwrap();
        assert_eq!(
            SolverSpec::from_json(&legacy_solver).unwrap(),
            SolverSpec::default_brute()
        );
        assert!(SolverSpec::from_json(
            &Json::parse(r#"{"name": "brute", "mode": "global", "prune": true, "engine": "warp"}"#)
                .unwrap()
        )
        .is_err());
        // The canonical form — hence the solve-cache key — distinguishes
        // the engines.
        let mut vm = SolverSpec::default_brute();
        if let SolverSpec::Brute { engine, .. } = &mut vm {
            *engine = EvalEngine::Vm;
        }
        assert_ne!(
            fnv1a64(SolverSpec::default_brute().to_json().render().as_bytes()),
            fnv1a64(vm.to_json().render().as_bytes()),
        );
    }

    #[test]
    fn legacy_messages_decode_with_cluster_fields_defaulted() {
        // A pre-cluster server's reply: no replicas, no provenance, no
        // code, no type_keys.
        let legacy = r#"{"resp": "registered", "structure": "0000000000000063", "vertices": 8, "edges": 7, "fresh": false}"#;
        match Response::decode(legacy).unwrap() {
            Response::Registered { replicas, .. } => assert_eq!(replicas, None),
            other => panic!("{other:?}"),
        }
        let legacy = r#"{"resp": "truth", "holds": false}"#;
        match Response::decode(legacy).unwrap() {
            Response::Truth { provenance, .. } => assert_eq!(provenance, None),
            other => panic!("{other:?}"),
        }
        let legacy = r#"{"resp": "error", "message": "boom"}"#;
        match Response::decode(legacy).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, None),
            other => panic!("{other:?}"),
        }
        // A pre-telemetry client's solve request: no trace context.
        let legacy = concat!(
            r#"{"op": "solve", "structure": "0000000000000007", "examples": [], "ell": 0, "#,
            r#""q": 0, "epsilon": 0.5, "solver": {"name": "nd"}}"#,
        );
        match Request::decode(legacy).unwrap() {
            Request::Solve { trace, .. } => assert_eq!(trace, None),
            other => panic!("{other:?}"),
        }
        let legacy = r#"{"op": "modelcheck", "structure": "000000000000002a", "formula": "t"}"#;
        match Request::decode(legacy).unwrap() {
            Request::ModelCheck { trace, .. } => assert_eq!(trace, None),
            other => panic!("{other:?}"),
        }
        // And a malformed trace context is rejected, not ignored.
        let bad = concat!(
            r#"{"op": "modelcheck", "structure": "000000000000002a", "formula": "t", "#,
            r#""trace": {"trace_id": "nope"}}"#,
        );
        assert!(Request::decode(bad).is_err());
        let legacy = concat!(
            r#"{"resp": "solved", "cached": false, "error": 0.0, "work": 1, "evaluated": 1, "#,
            r#""pruned": 0, "solver": "s", "hypothesis": {"id": "0000000000000001", "#,
            r#""params": [], "q": 0, "mode": "global", "types": [], "describe": "d"}}"#,
        );
        match Response::decode(legacy).unwrap() {
            Response::Solved(o) => {
                assert_eq!(o.hypothesis.type_keys, Vec::<u64>::new());
                assert_eq!(o.provenance, None);
                // An older peer's evaluated/pruned tallies are ignored.
                assert_eq!(o.work, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hex_errors_name_the_token_and_the_field() {
        let e = parse_hex64("0xlol").unwrap_err();
        assert!(e.0.contains("\"0xlol\""), "{e}");
        let bad = r#"{"op": "modelcheck", "structure": "nope", "formula": "t"}"#;
        let e = Request::decode(bad).unwrap_err();
        assert!(e.0.contains("\"structure\""), "{e}");
        assert!(e.0.contains("\"nope\""), "{e}");
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode(r#"{"op": "warp"}"#).is_err());
        assert!(Request::decode(r#"{"op": "solve"}"#).is_err());
        assert!(Request::decode(r#"{"op": "register"}"#).is_err());
        assert!(Response::decode(r#"{"resp": "solved"}"#).is_err());
        assert!(Request::decode("not json at all").is_err());
        // Structure ids must be 16-digit hex.
        assert!(Request::decode(r#"{"op": "modelcheck", "structure": "xyz", "formula": "t"}"#).is_err());
    }
}
