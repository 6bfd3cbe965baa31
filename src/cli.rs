//! Implementation of the `folearn` command-line tool.
//!
//! The binary (`src/bin/folearn.rs`) is a thin shell around this module so
//! that argument parsing and command execution stay unit-testable.
//!
//! Subcommands:
//!
//! * `learn      --graph G.txt --examples E.txt [--ell N] [--q N] [--solver brute|nd|local] [--mode global|local=R|counting=CAP] [--threads N] [--prune on|off] [--trace-out T.jsonl] [--trace-summary on|off]`
//! * `modelcheck --graph G.txt --formula "<sentence>"`
//! * `splitter   --graph G.txt [--radius R]`
//! * `types      --graph G.txt [--q N] [--k N]`
//! * `dot        --graph G.txt`
//! * `trace      --file T.jsonl`
//! * `serve      [--addr H:P] [--data-dir DIR] [--snapshot-every N] [--loops N] [--inflight N] [--cache-shards N] [--workers N] [--queue N] [--cache N] [--max-requests N] [--max-line BYTES] [--idle-ms N] [--max-conns N] [--addr-file PATH] [--trace on|off]`
//! * `route      --backends H:P,H:P,… [--replicas R] [--hedge-ms N] [--repair-ms N] [--vnodes N] [--eject-after N] [--addr H:P] [--addr-file PATH] [--timeout-ms N] [--retries N] [--retry-seed N] [--trace on|off]`
//! * `client     --addr H:P --action ping|register|solve|evaluate|modelcheck|stats|shutdown [--timeout-ms N] [--retries N] [--retry-seed N] [--trace-out T.jsonl] …`
//! * `loadgen    --addr H:P[,H:P…] --graph G.txt [--connections N] [--requests N] [--pipeline N] [--seed N] [--pool N] [--timeout-ms N] [--retries N] [--retry-seed N]`
//! * `top        --addr H:P [--once] [--interval-ms N] [--iterations N]`
//!
//! Graphs use the `folearn_graph::io` exchange format; example files have
//! one example per line: a `+` or `-` label followed by the vertex indices
//! of the tuple (`+ 3 7` labels the pair `(v3, v7)` positive).

use std::collections::HashMap;
use std::fmt::Write as _;

use folearn::bruteforce::BruteForceOpts;
use folearn::ndlearner::NdConfig;
use folearn::problem::{ErmInstance, Example, TrainingSequence};
use folearn::{shared_arena, solve_fo_erm_with_engine, Solver, TypeMode};
use folearn_graph::splitter::{play_game, GraphClass, MaxBallConnector};
use folearn_graph::{io, Graph, V};
use folearn_logic::vm::EvalEngine;
use folearn_logic::parser;
use folearn_server::proto::{hex64, parse_hex64, Json};
use folearn_server::server::MAX_SOLVER_THREADS;
use folearn_server::{
    ClientApi, ClientConfig, LoadgenConfig, RetryPolicy, RetryingClient, ServerConfig,
    SolverSpec, WireExample,
};
use folearn_types::census;

/// A fatal CLI error (message for the user).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed command-line options: `--key value` pairs after the subcommand.
#[derive(Debug, Default)]
pub struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    /// Parse `--key value` pairs.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected --flag, got {a:?}")))?;
            let value = it
                .next()
                .ok_or_else(|| err(format!("--{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| err(format!("missing --{key}")))
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| err(format!("--{key} expects a number, got {s:?}"))),
        }
    }
}

/// Parse an examples file: one example per line, `+`/`-` then vertex ids.
pub fn parse_examples(text: &str, g: &Graph) -> Result<TrainingSequence, CliError> {
    let mut seq = TrainingSequence::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = match parts.next() {
            Some("+") => true,
            Some("-") => false,
            other => {
                return Err(err(format!(
                    "line {}: expected '+' or '-', got {other:?}",
                    idx + 1
                )))
            }
        };
        let tuple: Vec<V> = parts
            .map(|s| {
                s.parse::<u32>()
                    .map(V)
                    .map_err(|_| err(format!("line {}: bad vertex id {s:?}", idx + 1)))
            })
            .collect::<Result<_, _>>()?;
        if tuple.is_empty() {
            return Err(err(format!("line {}: empty tuple", idx + 1)));
        }
        for &v in &tuple {
            if v.index() >= g.num_vertices() {
                return Err(err(format!("line {}: vertex {v} out of range", idx + 1)));
            }
        }
        seq.push(Example::new(tuple, label));
    }
    if seq.is_empty() {
        return Err(err("example file contains no examples"));
    }
    Ok(seq)
}

/// Parse a `--mode` string: `global`, `local=R`, `counting=CAP`, or
/// `local-counting=R,CAP` (delegates to [`TypeMode`]'s `FromStr`, the
/// same grammar the wire protocol speaks).
pub fn parse_mode(s: &str) -> Result<TypeMode, CliError> {
    s.parse().map_err(err)
}

/// Parse and validate `--threads`: a number, at most
/// [`MAX_SOLVER_THREADS`] (`0` = one per core), `None` when absent.
fn parse_threads(opts: &Options) -> Result<Option<usize>, CliError> {
    match opts.get("threads") {
        None => Ok(None),
        Some(s) => {
            let t: usize = s.parse().map_err(|_| {
                err(format!(
                    "--threads expects a number (0 = one per core), got {s:?}"
                ))
            })?;
            if t > MAX_SOLVER_THREADS {
                return Err(err(format!(
                    "--threads must be at most {MAX_SOLVER_THREADS} (got {t})"
                )));
            }
            Ok(Some(t))
        }
    }
}

/// Parse an `on`/`off` (or `true`/`false`) switch value.
fn parse_on_off(s: &str, key: &str) -> Result<bool, CliError> {
    match s {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        _ => Err(err(format!("--{key} expects on|off, got {s:?}"))),
    }
}

fn load_graph(opts: &Options) -> Result<Graph, CliError> {
    let path = opts.require("graph")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    io::parse_graph(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Run a subcommand; returns the text to print.
pub fn run(command: &str, args: &[String]) -> Result<String, CliError> {
    if command == "top" {
        // `top` takes a bare `--once` switch, which the strict
        // `--key value` parser would reject; it pre-parses its args.
        return cmd_top(args);
    }
    let opts = Options::parse(args)?;
    match command {
        "learn" => cmd_learn(&opts),
        "modelcheck" => cmd_modelcheck(&opts),
        "splitter" => cmd_splitter(&opts),
        "types" => cmd_types(&opts),
        "dot" => {
            let g = load_graph(&opts)?;
            Ok(io::to_dot(&g, "G"))
        }
        "trace" => cmd_trace(&opts),
        "serve" => cmd_serve(&opts),
        "route" => cmd_route(&opts),
        "client" => cmd_client(&opts),
        "loadgen" => cmd_loadgen(&opts),
        other => Err(err(format!(
            "unknown command {other:?}; expected learn | modelcheck | splitter | types | dot | trace | serve | route | client | loadgen | top"
        ))),
    }
}

fn cmd_learn(opts: &Options) -> Result<String, CliError> {
    let g = load_graph(opts)?;
    let examples_path = opts.require("examples")?;
    let text = std::fs::read_to_string(examples_path)
        .map_err(|e| err(format!("cannot read {examples_path}: {e}")))?;
    let examples = parse_examples(&text, &g)?;
    let k = examples.arity();
    let ell = opts.get_usize("ell", 0)?;
    let q = opts.get_usize("q", 1)?;
    let mode = parse_mode(opts.get("mode").unwrap_or("global"))?;
    let solver = match opts.get("solver").unwrap_or("brute") {
        "brute" => Solver::BruteForce {
            mode,
            opts: BruteForceOpts {
                threads: parse_threads(opts)?,
                prune: parse_on_off(opts.get("prune").unwrap_or("on"), "prune")?,
                block_size: None,
            },
        },
        "nd" => Solver::NowhereDense(NdConfig::default()),
        "local" => Solver::LocalAccess {
            param_radius: opts.get_usize("param-radius", 2)?,
            type_radius: opts.get_usize("type-radius", 1)?,
        },
        other => return Err(err(format!("unknown --solver {other:?}"))),
    };
    let trace_out = opts.get("trace-out");
    let trace_summary = parse_on_off(opts.get("trace-summary").unwrap_or("off"), "trace-summary")?;
    let tracing = trace_out.is_some() || trace_summary;
    if tracing {
        folearn_obs::set_enabled(true);
        // Discard spans left on this thread by earlier work so the file
        // holds exactly this run.
        let _ = folearn_obs::take_thread_roots();
    }
    let engine = parse_engine(opts)?;
    let inst = ErmInstance::new(&g, examples, k, ell, q, 0.1);
    let arena = shared_arena(&g);
    let report = solve_fo_erm_with_engine(&inst, &solver, &arena, engine);
    let roots = if tracing {
        folearn_obs::take_thread_roots()
    } else {
        Vec::new()
    };
    let mut out = String::new();
    let _ = writeln!(out, "{}", report.to_json().render_pretty());
    let phi = report.hypothesis.to_formula();
    let rendered = parser::render(&phi, g.vocab());
    let _ = writeln!(out, "formula (qr {}):", phi.quantifier_rank());
    if rendered.len() > 2000 {
        let cut = rendered
            .char_indices()
            .nth(2000)
            .map_or(rendered.len(), |(i, _)| i);
        let _ = writeln!(
            out,
            "  {} … ({} chars total)",
            &rendered[..cut],
            rendered.len()
        );
    } else {
        let _ = writeln!(out, "  {rendered}");
    }
    if trace_summary {
        let _ = writeln!(out, "trace:");
        out.push_str(&folearn_obs::export::tree_summary(&roots));
    }
    if let Some(path) = trace_out {
        std::fs::write(path, folearn_obs::export::to_jsonl(&roots))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "trace: {} root span(s) written to {path}", roots.len());
    }
    Ok(out)
}

/// `folearn trace`: inspect a JSONL trace written by `learn --trace-out`
/// (or assembled from server `trace` payloads): a per-name rollup, then
/// the span tree itself.
fn cmd_trace(opts: &Options) -> Result<String, CliError> {
    let path = opts.require("file")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let roots = folearn_obs::export::parse_jsonl(&text).map_err(|e| err(format!("{path}: {e}")))?;
    let total: usize = roots.iter().map(|r| r.span_count()).sum();
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} root span(s), {total} spans total", roots.len());
    let _ = writeln!(out, "by span name:");
    for (name, spans, ns, counters) in folearn_obs::export::aggregate(&roots) {
        let _ = write!(
            out,
            "  {name:<28} ×{spans:<5} {:>12.3} ms",
            ns as f64 / 1e6
        );
        for (c, v) in counters.iter_nonzero() {
            let _ = write!(out, "  {}={v}", c.name());
        }
        out.push('\n');
    }
    let _ = writeln!(out, "tree:");
    out.push_str(&folearn_obs::export::tree_summary(&roots));
    Ok(out)
}

fn cmd_modelcheck(opts: &Options) -> Result<String, CliError> {
    let g = load_graph(opts)?;
    let formula = opts.require("formula")?;
    let phi = parser::parse(formula, g.vocab()).map_err(|e| err(e.to_string()))?;
    if !phi.is_sentence() {
        return Err(err("modelcheck expects a sentence (no free variables)"));
    }
    let holds = parse_engine(opts)?.models(&g, &phi);
    Ok(format!("G ⊨ φ: {holds}\n"))
}

fn cmd_splitter(opts: &Options) -> Result<String, CliError> {
    let g = load_graph(opts)?;
    let radius = opts.get_usize("radius", 2)?;
    let class = GraphClass::Heuristic { assumed_rounds: 0 };
    let mut strategy = class.make_splitter(&g);
    let mut connector = MaxBallConnector;
    let cap = g.num_vertices() + 5;
    let result = play_game(&g, radius, strategy.as_mut(), &mut connector, cap);
    Ok(format!(
        "splitter game (r = {radius}, max-ball Connector): {} rounds, splitter {}\n",
        result.rounds,
        if result.splitter_won { "won" } else { "capped" }
    ))
}

fn cmd_types(opts: &Options) -> Result<String, CliError> {
    let g = load_graph(opts)?;
    let q = opts.get_usize("q", 1)?;
    let k = opts.get_usize("k", 1)?;
    let arena = shared_arena(&g);
    let mut a = arena.lock();
    let groups = census::type_census(&g, &mut a, k, q);
    let mut sizes: Vec<usize> = groups.values().map(Vec::len).collect();
    sizes.sort_unstable_by(|x, y| y.cmp(x));
    Ok(format!(
        "{} distinct {q}-types of {k}-tuples on {} vertices; class sizes: {:?}\n",
        groups.len(),
        g.num_vertices(),
        sizes
    ))
}

/// `folearn serve`: run the learning daemon until a client sends a
/// `shutdown` request. The bound address is printed to stdout
/// immediately (port 0 picks an ephemeral port) and, with
/// `--addr-file PATH`, also written to a file so scripts can discover
/// it without parsing output.
fn cmd_serve(opts: &Options) -> Result<String, CliError> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: opts.get_usize("workers", 0)?,
        queue_depth: opts.get_usize("queue", 64)?,
        cache_capacity: opts.get_usize("cache", 256)?,
        max_requests_per_conn: opts.get_usize("max-requests", 100_000)?,
        trace: parse_on_off(opts.get("trace").unwrap_or("on"), "trace")?,
        max_line_bytes: opts.get_usize("max-line", defaults.max_line_bytes)?,
        idle_timeout: std::time::Duration::from_millis(
            opts.get_usize("idle-ms", defaults.idle_timeout.as_millis() as usize)? as u64,
        ),
        max_connections: opts.get_usize("max-conns", defaults.max_connections)?,
        event_loops: opts.get_usize("loops", defaults.event_loops)?,
        max_inflight_per_conn: opts.get_usize("inflight", defaults.max_inflight_per_conn)?,
        cache_shards: opts.get_usize("cache-shards", defaults.cache_shards)?,
        data_dir: opts.get("data-dir").map(std::path::PathBuf::from),
        snapshot_every: opts.get_usize("snapshot-every", defaults.snapshot_every)?,
    };
    let handle = folearn_server::start(&config)
        .map_err(|e| err(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = handle.addr();
    println!("folearn-server listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = opts.get("addr-file") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    handle.wait();
    Ok(format!("folearn-server on {addr}: shut down cleanly\n"))
}

/// `folearn route`: run the cluster router in front of a set of
/// `folearn serve` backends. Structures are placed on `--replicas`
/// backends by consistent hashing; reads hedge to the next replica
/// after `--hedge-ms` of silence (0 disables hedging; failover on
/// error still applies). Like `serve`, the bound address is printed
/// immediately and optionally written to `--addr-file`.
fn cmd_route(opts: &Options) -> Result<String, CliError> {
    let defaults = folearn_cluster::RouterConfig::default();
    let backends: Vec<String> = opts
        .require("backends")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if backends.is_empty() {
        return Err(err(
            "--backends expects a comma-separated list of host:port addresses",
        ));
    }
    // The router's own defaults (a read deadline and a couple of
    // retries) are better daemon defaults than the client's fail-fast
    // ones, so flags override rather than replace them.
    let client = match opts.get_usize("timeout-ms", 0)? {
        0 => defaults.client,
        ms => ClientConfig::with_deadline(std::time::Duration::from_millis(ms as u64)),
    };
    let retry = match opts.get("retries") {
        None => defaults.retry.clone(),
        Some(_) => match opts.get_usize("retries", 0)? {
            0 => RetryPolicy::none(),
            n => RetryPolicy::backoff(n as u32, opts.get_usize("retry-seed", 0)? as u64),
        },
    };
    let hedge_ms = opts.get_usize(
        "hedge-ms",
        defaults.hedge_delay.map_or(0, |d| d.as_millis() as usize),
    )?;
    let repair_ms = opts.get_usize(
        "repair-ms",
        defaults.repair_interval.map_or(0, |d| d.as_millis() as usize),
    )?;
    let config = folearn_cluster::RouterConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        backends,
        replicas: opts.get_usize("replicas", defaults.replicas)?.max(1),
        vnodes: opts.get_usize("vnodes", defaults.vnodes)?.max(1),
        hedge_delay: (hedge_ms > 0)
            .then(|| std::time::Duration::from_millis(hedge_ms as u64)),
        repair_interval: (repair_ms > 0)
            .then(|| std::time::Duration::from_millis(repair_ms as u64)),
        client,
        retry,
        eject_after: opts.get_usize("eject-after", defaults.eject_after as usize)? as u32,
        max_requests_per_conn: opts.get_usize("max-requests", defaults.max_requests_per_conn)?,
        max_line_bytes: opts.get_usize("max-line", defaults.max_line_bytes)?,
        idle_timeout: std::time::Duration::from_millis(
            opts.get_usize("idle-ms", defaults.idle_timeout.as_millis() as usize)? as u64,
        ),
        max_connections: opts.get_usize("max-conns", defaults.max_connections)?,
        trace: parse_on_off(opts.get("trace").unwrap_or("on"), "trace")?,
    };
    let handle = folearn_cluster::start(&config)
        .map_err(|e| err(format!("cannot start router on {}: {e}", config.addr)))?;
    let addr = handle.addr();
    println!(
        "folearn-router listening on {addr} ({} backends, R={})",
        config.backends.len(),
        config.replicas.min(config.backends.len())
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = opts.get("addr-file") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    handle.wait();
    Ok(format!("folearn-router on {addr}: shut down cleanly\n"))
}

/// Parse `--engine tree|vm` (default: the tree-walking evaluator).
fn parse_engine(opts: &Options) -> Result<EvalEngine, CliError> {
    opts.get("engine")
        .unwrap_or("tree")
        .parse()
        .map_err(|e: String| err(format!("--engine: {e}")))
}

/// Build the wire solver spec from
/// `--solver/--mode/--threads/--prune/--engine`.
fn parse_solver_spec(opts: &Options) -> Result<SolverSpec, CliError> {
    match opts.get("solver").unwrap_or("brute") {
        "brute" => Ok(SolverSpec::Brute {
            mode: parse_mode(opts.get("mode").unwrap_or("global"))?,
            threads: parse_threads(opts)?,
            prune: parse_on_off(opts.get("prune").unwrap_or("on"), "prune")?,
            engine: parse_engine(opts)?,
        }),
        "nd" => Ok(SolverSpec::Nd),
        other => Err(err(format!(
            "unknown --solver {other:?} (the server offers brute | nd)"
        ))),
    }
}

/// Read, parse, and wire-encode an examples file against a graph.
fn wire_examples(opts: &Options, g: &Graph) -> Result<Vec<WireExample>, CliError> {
    let path = opts.require("examples")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let seq = parse_examples(&text, g)?;
    Ok(seq
        .iter()
        .map(|e| WireExample {
            tuple: e.tuple.iter().map(|v| v.0).collect(),
            label: e.label,
        })
        .collect())
}

/// Client deadline/retry knobs shared by `client` and `loadgen`:
/// `--timeout-ms N` sets connect/read/write deadlines (default: none),
/// `--retries N` enables backoff-and-reconnect (default: 0, fail fast),
/// `--retry-seed N` makes the backoff jitter reproducible.
fn parse_client_knobs(opts: &Options) -> Result<(ClientConfig, RetryPolicy), CliError> {
    let config = match opts.get_usize("timeout-ms", 0)? {
        0 => ClientConfig::default(),
        ms => ClientConfig::with_deadline(std::time::Duration::from_millis(ms as u64)),
    };
    let policy = match opts.get_usize("retries", 0)? {
        0 => RetryPolicy::none(),
        n => RetryPolicy::backoff(n as u32, opts.get_usize("retry-seed", 0)? as u64),
    };
    Ok((config, policy))
}

/// `folearn client`: one request/response exchange with a daemon.
fn cmd_client(opts: &Options) -> Result<String, CliError> {
    let addr = opts.require("addr")?;
    let (config, policy) = parse_client_knobs(opts)?;
    let mut client = RetryingClient::connect(addr, config, policy)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    let net = |e: folearn_server::ClientError| err(e.to_string());
    match opts.require("action")? {
        "ping" => {
            client.ping().map_err(net)?;
            Ok("pong\n".to_string())
        }
        "register" => {
            let g = load_graph(opts)?;
            let structure = client.register(&io::to_text(&g)).map_err(net)?;
            Ok(format!("structure {}\n", hex64(structure)))
        }
        "solve" => {
            let g = load_graph(opts)?;
            let examples = wire_examples(opts, &g)?;
            let structure = client.register(&io::to_text(&g)).map_err(net)?;
            let ell = opts.get_usize("ell", 0)?;
            let q = opts.get_usize("q", 1)?;
            let spec = parse_solver_spec(opts)?;
            // `--trace-out` opts this solve into tracing: the request
            // carries a trace context, so a router stitches its span
            // tree (and a daemon binds `server.solve`) under it.
            let outcome = if opts.get("trace-out").is_some() {
                let trace_id = {
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(0, |d| d.as_nanos() as u64);
                    (now ^ u64::from(std::process::id()).rotate_left(32)) | 1
                };
                client
                    .solve_traced(
                        structure,
                        examples,
                        ell,
                        q,
                        0.0,
                        spec,
                        folearn_server::proto::TraceContext {
                            trace_id,
                            parent: 0,
                        },
                    )
                    .map_err(net)?
            } else {
                client
                    .solve(structure, examples, ell, q, 0.0, spec)
                    .map_err(net)?
            };
            let mut out = String::new();
            let _ = writeln!(out, "structure:       {}", hex64(structure));
            let _ = writeln!(out, "solver:          {}", outcome.solver);
            let _ = writeln!(
                out,
                "cached:          {}",
                if outcome.cached { "yes" } else { "no" }
            );
            let _ = writeln!(out, "training error:  {:.4}", outcome.error);
            let _ = writeln!(out, "work units:      {}", outcome.work);
            let _ = writeln!(out, "hypothesis id:   {}", hex64(outcome.hypothesis.id));
            let _ = writeln!(out, "hypothesis:      {}", outcome.hypothesis.describe);
            if let Some(path) = opts.get("trace-out") {
                // One span tree per line: the same JSONL shape `learn
                // --trace-out` writes, so `folearn trace` renders it.
                match &outcome.trace {
                    Some(t) => {
                        std::fs::write(path, format!("{}\n", t.render()))
                            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                        let _ = writeln!(out, "trace:           written to {path}");
                    }
                    None => {
                        let _ = writeln!(out, "trace:           (server sent none)");
                    }
                }
            }
            Ok(out)
        }
        "evaluate" => {
            let g = load_graph(opts)?;
            let examples = wire_examples(opts, &g)?;
            let structure = client.register(&io::to_text(&g)).map_err(net)?;
            let hypothesis = parse_hex64(opts.require("hypothesis")?)
                .map_err(|e| err(format!("--hypothesis: {e}")))?;
            let tuples: Vec<Vec<u32>> = examples.iter().map(|e| e.tuple.clone()).collect();
            let labels: Vec<bool> = examples.iter().map(|e| e.label).collect();
            let (predictions, error) = client
                .evaluate(structure, hypothesis, tuples, Some(labels))
                .map_err(net)?;
            let positives = predictions.iter().filter(|&&p| p).count();
            Ok(format!(
                "{} tuples: {} predicted positive; error vs labels: {:.4}\n",
                predictions.len(),
                positives,
                error.unwrap_or(0.0)
            ))
        }
        "modelcheck" => {
            let g = load_graph(opts)?;
            let structure = client.register(&io::to_text(&g)).map_err(net)?;
            let holds = client
                .modelcheck_with_engine(
                    structure,
                    opts.require("formula")?,
                    parse_engine(opts)?,
                )
                .map_err(net)?;
            Ok(format!("G ⊨ φ: {holds}\n"))
        }
        "stats" => {
            let stats = client.stats().map_err(net)?;
            Ok(format!("{}\n", stats.render_pretty()))
        }
        "shutdown" => {
            client.shutdown().map_err(net)?;
            Ok("server shutting down\n".to_string())
        }
        other => Err(err(format!(
            "unknown --action {other:?}; expected ping | register | solve | evaluate | modelcheck | stats | shutdown"
        ))),
    }
}

/// `folearn loadgen`: drive one or more daemons with a deterministic
/// request mix and report throughput and per-operation latency
/// quantiles. `--addr` accepts a comma-separated list; workers
/// round-robin over the targets and the report breaks out per-target
/// request and error counts.
fn cmd_loadgen(opts: &Options) -> Result<String, CliError> {
    let addr_str = opts.require("addr")?;
    let addrs: Vec<std::net::SocketAddr> = addr_str
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| err(format!("--addr expects host:port, got {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    if addrs.is_empty() {
        return Err(err(format!(
            "--addr expects host:port, got {addr_str:?}"
        )));
    }
    let g = load_graph(opts)?;
    let (client, retry) = parse_client_knobs(opts)?;
    let config = LoadgenConfig {
        connections: opts.get_usize("connections", 2)?.max(1),
        requests_per_conn: opts.get_usize("requests", 40)?,
        seed: opts.get_usize("seed", 17)? as u64,
        sample_pool: opts.get_usize("pool", 4)?.max(1),
        ell: opts.get_usize("ell", 1)?,
        q: opts.get_usize("q", 1)?,
        client,
        retry,
        pipeline: opts.get_usize("pipeline", 0)?,
    };
    let report = folearn_server::loadgen::run_load_multi(&addrs, &io::to_text(&g), &config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} requests over {} connections in {:.3}s ({:.0} req/s), {} errors",
        report.requests,
        config.connections,
        report.wall_s,
        report.throughput(),
        report.errors
    );
    let _ = writeln!(
        out,
        "solves: {} fresh, {} cached",
        report.fresh_solves, report.cached_solves
    );
    if report.retries > 0 || report.reconnects > 0 {
        let _ = writeln!(
            out,
            "transport: {} retries, {} reconnects",
            report.retries, report.reconnects
        );
    }
    if report.targets.len() > 1 {
        for (target, requests, errors) in &report.targets {
            let _ = writeln!(out, "  target {target}: {requests} requests, {errors} errors");
        }
    }
    for (worker, error) in &report.worker_errors {
        let _ = writeln!(out, "worker {worker} failed: {error}");
    }
    for (op, stats) in &report.ops {
        let _ = writeln!(
            out,
            "  {op:<11} n={:<5} mean {:>8.1}µs  p50 {:>7}µs  p95 {:>7}µs  max {:>7}µs",
            stats.count,
            stats.mean_us(),
            stats.quantile_us(0.50),
            stats.quantile_us(0.95),
            stats.quantile_us(1.0)
        );
    }
    Ok(out)
}

/// Numeric field lookup with a zero default (absent keys read 0).
fn jnum(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// Summarise a stats `series` window into one "last 60s: …" line:
/// request rate over the seconds the window actually covers, error and
/// cache totals, and the quantiles of the most recent bucket.
fn series_line(series: &Json) -> String {
    let empty: &[Json] = &[];
    let buckets = series.get("buckets").and_then(Json::as_arr).unwrap_or(empty);
    if buckets.is_empty() {
        return "last 60s:  idle".to_string();
    }
    let sum = |key: &str| -> f64 { buckets.iter().map(|b| jnum(b, key)).sum() };
    let span = (jnum(series, "now_s") - jnum(&buckets[0], "t") + 1.0).max(1.0);
    let last = &buckets[buckets.len() - 1];
    let mut line = format!(
        "last 60s:  {:.1} req/s, {} errors, p50 {}µs, p99 {}µs",
        sum("requests") / span,
        sum("errors") as u64,
        jnum(last, "p50_us") as u64,
        jnum(last, "p99_us") as u64,
    );
    let (hits, misses) = (sum("cache_hits"), sum("cache_misses"));
    if hits + misses > 0.0 {
        let _ = write!(
            line,
            ", cache {}/{} hit",
            hits as u64,
            (hits + misses) as u64
        );
    }
    let fired = sum("hedges_fired");
    if fired > 0.0 {
        let _ = write!(
            line,
            ", hedges {} fired / {} won",
            fired as u64,
            sum("hedges_won") as u64
        );
    }
    line
}

/// Render one `top` frame from a `stats` snapshot. Handles both roles:
/// a server reports its own cache and series; a router's snapshot adds
/// hedge/failover counters and the fanned-in `cluster` section with one
/// row per backend.
fn render_top(addr: &str, stats: &Json) -> String {
    let role = stats.get("role").and_then(Json::as_str).unwrap_or("server");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "folearn top — {role} v{} @ {addr}, up {}s",
        stats.get("version").and_then(Json::as_str).unwrap_or("?"),
        (jnum(stats, "uptime_ms") / 1000.0) as u64,
    );
    let _ = write!(out, "requests:  {} total", jnum(stats, "requests") as u64);
    if role == "router" {
        let _ = writeln!(
            out,
            ", hedges {} fired / {} won, {} replica retries, {} failovers",
            jnum(stats, "hedges_fired") as u64,
            jnum(stats, "hedges_won") as u64,
            jnum(stats, "replica_retries") as u64,
            jnum(stats, "failovers") as u64,
        );
        let repairs = jnum(stats, "repairs_performed") as u64;
        if repairs > 0 {
            let _ = writeln!(out, "repair:    {repairs} structures re-seeded");
        }
    } else {
        let _ = writeln!(
            out,
            ", {} connections, {} worker panics",
            jnum(stats, "connections") as u64,
            jnum(stats, "worker_panics") as u64,
        );
        if stats.get("durable").and_then(Json::as_bool) == Some(true) {
            let _ = writeln!(
                out,
                "durable:   {} WAL records written, {} replayed at boot ({} snapshot loads, {} torn tails), recovery {}ms",
                jnum(stats, "wal_records_written") as u64,
                jnum(stats, "wal_records_replayed") as u64,
                jnum(stats, "snapshot_loads") as u64,
                jnum(stats, "torn_tail_truncations") as u64,
                jnum(stats, "recovery_ms") as u64,
            );
        }
        if let Some(cache) = stats.get("cache") {
            let _ = writeln!(
                out,
                "cache:     {} hits / {} misses (rate {:.2}), {} entries",
                jnum(cache, "hits") as u64,
                jnum(cache, "misses") as u64,
                jnum(cache, "hit_rate"),
                jnum(cache, "entries") as u64,
            );
        }
    }
    if let Some(series) = stats.get("series") {
        let _ = writeln!(out, "{}", series_line(series));
    }
    if let Some(Json::Obj(ops)) = stats.get("endpoints") {
        if !ops.is_empty() {
            let _ = writeln!(out, "endpoints:");
            for (op, rec) in ops {
                let _ = writeln!(
                    out,
                    "  {op:<11} n={:<6} err={:<4} p50 {:>7}µs  p99 {:>7}µs  max {:>7}µs",
                    jnum(rec, "count") as u64,
                    jnum(rec, "errors") as u64,
                    jnum(rec, "p50_us") as u64,
                    jnum(rec, "p99_us") as u64,
                    jnum(rec, "max_us") as u64,
                );
            }
        }
    }
    if let Some(cluster) = stats.get("cluster") {
        let _ = writeln!(
            out,
            "cluster:   {} backends, {} live, {} reporting, {} requests, cache rate {:.2}",
            jnum(cluster, "backends_total") as u64,
            jnum(cluster, "backends_live") as u64,
            jnum(cluster, "backends_reporting") as u64,
            jnum(cluster, "requests") as u64,
            cluster.get("cache").map_or(0.0, |c| jnum(c, "hit_rate")),
        );
        if let Some(nodes) = cluster.get("nodes").and_then(Json::as_arr) {
            for n in nodes {
                let node_addr = n.get("addr").and_then(Json::as_str).unwrap_or("?");
                match n.get("error").and_then(Json::as_str) {
                    Some(e) => {
                        let _ = writeln!(out, "  {node_addr:<21} DOWN  {e}");
                    }
                    None => {
                        // A freshly restarted durable backend announces its
                        // recovery right in the row: tiny uptime plus how
                        // many WAL records it replayed to get back.
                        let mut recovery = String::new();
                        if n.get("durable").and_then(Json::as_bool) == Some(true) {
                            let _ = write!(
                                recovery,
                                ", durable ({} replayed)",
                                jnum(n, "wal_records_replayed") as u64,
                            );
                        }
                        // The router's own timing of its calls to this
                        // backend, from its `backends` row.
                        let mut latency = String::new();
                        if let Some(l) = stats
                            .get("backends")
                            .and_then(Json::as_arr)
                            .and_then(|rows| {
                                rows.iter().find(|r| {
                                    r.get("addr").and_then(Json::as_str) == Some(node_addr)
                                })
                            })
                            .and_then(|r| r.get("latency"))
                        {
                            let _ = write!(
                                latency,
                                ", calls p50 {}µs p99 {}µs",
                                jnum(l, "p50_us") as u64,
                                jnum(l, "p99_us") as u64,
                            );
                        }
                        let _ = writeln!(
                            out,
                            "  {node_addr:<21} {}  {} v{}, up {}s, {} requests{latency}{recovery}",
                            if n.get("live").and_then(Json::as_bool) == Some(true) {
                                "live"
                            } else {
                                "out "
                            },
                            n.get("role").and_then(Json::as_str).unwrap_or("?"),
                            n.get("version").and_then(Json::as_str).unwrap_or("?"),
                            (jnum(n, "uptime_ms") / 1000.0) as u64,
                            jnum(n, "requests") as u64,
                        );
                    }
                }
            }
        }
    }
    out
}

/// `folearn top`: a plain-text dashboard over a daemon's or router's
/// `stats` endpoint. Repaints every `--interval-ms` (default 2000);
/// `--once` prints a single frame and exits (what scripts use), and
/// `--iterations N` stops after N frames, returning the last one.
fn cmd_top(args: &[String]) -> Result<String, CliError> {
    let mut once = false;
    let mut rest = Vec::with_capacity(args.len());
    for a in args {
        if a == "--once" {
            once = true;
        } else {
            rest.push(a.clone());
        }
    }
    let opts = Options::parse(&rest)?;
    let addr = opts.require("addr")?;
    let interval = opts.get_usize("interval-ms", 2000)?.max(100) as u64;
    let iterations = if once {
        1
    } else {
        opts.get_usize("iterations", 0)?
    };
    let (config, policy) = parse_client_knobs(&opts)?;
    let mut client = RetryingClient::connect(addr, config, policy)
        .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    let mut frames = 0usize;
    loop {
        let stats = client.stats().map_err(|e| err(e.to_string()))?;
        let frame = render_top(addr, &stats);
        frames += 1;
        if iterations != 0 && frames >= iterations {
            return Ok(frame);
        }
        // Interactive mode: clear, repaint in place, poll again.
        use std::io::Write as _;
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, Vocabulary};

    use super::*;

    fn write_graph(dir: &std::path::Path) -> std::path::PathBuf {
        let g = generators::periodically_colored(
            &generators::path(8, Vocabulary::new(["Red"])),
            folearn_graph::ColorId(0),
            3,
        );
        let p = dir.join("g.txt");
        std::fs::write(&p, io::to_text(&g)).unwrap();
        p
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("folearn-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_examples_round_trip() {
        let g = generators::path(5, Vocabulary::empty());
        let seq = parse_examples("+ 0\n- 1\n# comment\n+ 4\n", &g).unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.positives().count(), 2);
        assert!(parse_examples("+ 9\n", &g).is_err());
        assert!(parse_examples("x 1\n", &g).is_err());
        assert!(parse_examples("", &g).is_err());
    }

    #[test]
    fn parse_mode_variants() {
        assert_eq!(parse_mode("global").unwrap(), TypeMode::Global);
        assert_eq!(parse_mode("local=3").unwrap(), TypeMode::Local { r: 3 });
        assert_eq!(
            parse_mode("counting=2").unwrap(),
            TypeMode::GlobalCounting { cap: 2 }
        );
        assert_eq!(
            parse_mode("local-counting=2,3").unwrap(),
            TypeMode::LocalCounting { r: 2, cap: 3 }
        );
        assert!(parse_mode("nonsense").is_err());
    }

    #[test]
    fn options_parsing() {
        let args: Vec<String> = ["--graph", "g.txt", "--q", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.require("graph").unwrap(), "g.txt");
        assert_eq!(o.get_usize("q", 1).unwrap(), 2);
        assert_eq!(o.get_usize("k", 1).unwrap(), 1);
        assert!(Options::parse(&["--key".to_string()]).is_err());
        assert!(Options::parse(&["bare".to_string()]).is_err());
    }

    #[test]
    fn learn_command_end_to_end() {
        let dir = tmpdir("learn");
        let gpath = write_graph(&dir);
        // Label "is red" over the striped path (reds at 0, 3, 6).
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n+ 3\n+ 6\n- 1\n- 2\n- 4\n- 5\n- 7\n").unwrap();
        let args: Vec<String> = [
            "--graph",
            gpath.to_str().unwrap(),
            "--examples",
            epath.to_str().unwrap(),
            "--q",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = run("learn", &args).unwrap();
        assert!(out.contains("\"error\": 0"), "{out}");
        assert!(out.contains("Red"), "{out}");
    }

    #[test]
    fn learn_command_engine_knobs() {
        let dir = tmpdir("knobs");
        let gpath = write_graph(&dir);
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n+ 3\n+ 6\n- 1\n- 2\n- 4\n- 5\n- 7\n").unwrap();
        let base = |extra: &[&str]| -> Vec<String> {
            ["--graph", gpath.to_str().unwrap(), "--examples", epath.to_str().unwrap(), "--q", "0", "--ell", "1"]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        let out = run("learn", &base(&["--threads", "2", "--prune", "off"])).unwrap();
        assert!(out.contains("\"evaluated_params\""), "{out}");
        assert!(out.contains("\"pruned_params\": 0"), "{out}");
        assert!(run("learn", &base(&["--prune", "maybe"])).is_err());
        assert!(run("learn", &base(&["--threads", "two"])).is_err());
        // The VM engine reproduces the tree-walker's report exactly (the
        // cross-validation inside the solve would panic otherwise). One
        // sweep thread: with more, the evaluated/pruned tallies depend
        // on scheduling, whatever the engine.
        let tree = run("learn", &base(&["--engine", "tree", "--threads", "1"])).unwrap();
        let vm = run("learn", &base(&["--engine", "vm", "--threads", "1"])).unwrap();
        assert_eq!(tree, vm);
        assert!(run("learn", &base(&["--engine", "warp"])).is_err());
    }

    #[test]
    fn learn_trace_out_round_trips_through_the_trace_command() {
        let dir = tmpdir("trace");
        let gpath = write_graph(&dir);
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n+ 3\n+ 6\n- 1\n- 2\n- 4\n- 5\n- 7\n").unwrap();
        let tpath = dir.join("t.jsonl");
        let args: Vec<String> = [
            "--graph",
            gpath.to_str().unwrap(),
            "--examples",
            epath.to_str().unwrap(),
            "--q",
            "0",
            "--ell",
            "1",
            "--trace-out",
            tpath.to_str().unwrap(),
            "--trace-summary",
            "on",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = run("learn", &args).unwrap();
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("erm.sweep"), "{out}");

        let inspect = run(
            "trace",
            &["--file".to_string(), tpath.to_str().unwrap().to_string()],
        )
        .unwrap();
        assert!(inspect.contains("1 root span(s)"), "{inspect}");
        assert!(inspect.contains("by span name:"), "{inspect}");
        assert!(inspect.contains("erm.worker"), "{inspect}");
        assert!(inspect.contains("evaluated_params="), "{inspect}");
        assert!(inspect.contains("└─"), "{inspect}");

        // A garbage trace file is a clean error, not a panic.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"ns\": 1}\n").unwrap();
        assert!(run(
            "trace",
            &["--file".to_string(), bad.to_str().unwrap().to_string()]
        )
        .is_err());
    }

    #[test]
    fn threads_cap_fails_with_a_clear_error_not_a_panic() {
        let dir = tmpdir("cap");
        let gpath = write_graph(&dir);
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n- 1\n").unwrap();
        let args: Vec<String> = [
            "--graph",
            gpath.to_str().unwrap(),
            "--examples",
            epath.to_str().unwrap(),
            "--threads",
            "100000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let e = run("learn", &args).unwrap_err();
        assert!(e.0.contains("at most 256"), "{e}");
        assert!(e.0.contains("100000"), "{e}");
    }

    #[test]
    fn serve_client_loadgen_end_to_end() {
        let dir = tmpdir("serve");
        let gpath = write_graph(&dir);
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n+ 3\n+ 6\n- 1\n- 2\n- 4\n- 5\n- 7\n").unwrap();
        let addr_file = dir.join("addr.txt");

        let serve_args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--workers",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || run("serve", &serve_args));

        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(a) = std::fs::read_to_string(&addr_file) {
                    if !a.is_empty() {
                        break a;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 20;
                assert!(waited < 5000, "server did not come up");
            }
        };

        let client_args = |extra: &[&str]| -> Vec<String> {
            ["--addr", addr.as_str()]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        let out = run("client", &client_args(&["--action", "ping"])).unwrap();
        assert_eq!(out, "pong\n");

        let solve = |_tag: &str| {
            run(
                "client",
                &client_args(&[
                    "--action",
                    "solve",
                    "--graph",
                    gpath.to_str().unwrap(),
                    "--examples",
                    epath.to_str().unwrap(),
                    "--q",
                    "0",
                    "--ell",
                    "1",
                ]),
            )
            .unwrap()
        };
        let cold = solve("cold");
        assert!(cold.contains("cached:          no"), "{cold}");
        assert!(cold.contains("training error:  0.0000"), "{cold}");
        let warm = solve("warm");
        assert!(warm.contains("cached:          yes"), "{warm}");

        // Evaluate the learned hypothesis on its own training set.
        let hyp = cold
            .lines()
            .find_map(|l| l.strip_prefix("hypothesis id:   "))
            .expect("hypothesis id line")
            .trim()
            .to_string();
        let eval_out = run(
            "client",
            &client_args(&[
                "--action",
                "evaluate",
                "--graph",
                gpath.to_str().unwrap(),
                "--examples",
                epath.to_str().unwrap(),
                "--hypothesis",
                hyp.as_str(),
            ]),
        )
        .unwrap();
        assert!(eval_out.contains("error vs labels: 0.0000"), "{eval_out}");

        let mc = run(
            "client",
            &client_args(&[
                "--action",
                "modelcheck",
                "--graph",
                gpath.to_str().unwrap(),
                "--formula",
                "exists x0. Red(x0)",
            ]),
        )
        .unwrap();
        assert!(mc.contains("true"), "{mc}");

        let lg = run(
            "loadgen",
            &client_args(&[
                "--graph",
                gpath.to_str().unwrap(),
                "--connections",
                "1",
                "--requests",
                "10",
                "--pool",
                "2",
            ]),
        )
        .unwrap();
        assert!(lg.contains("req/s"), "{lg}");
        assert!(lg.contains("0 errors"), "{lg}");

        let stats = run("client", &client_args(&["--action", "stats"])).unwrap();
        assert!(stats.contains("\"cache\""), "{stats}");

        let bye = run("client", &client_args(&["--action", "shutdown"])).unwrap();
        assert!(bye.contains("shutting down"));
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("shut down cleanly"), "{served}");
    }

    #[test]
    fn route_command_fronts_a_two_backend_cluster() {
        let dir = tmpdir("route");
        let gpath = write_graph(&dir);
        let epath = dir.join("e.txt");
        std::fs::write(&epath, "+ 0\n+ 3\n+ 6\n- 1\n- 2\n- 4\n- 5\n- 7\n").unwrap();

        // Backends run in-process; the router runs through the CLI.
        let backend = |_: usize| {
            folearn_server::start(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                ..ServerConfig::default()
            })
            .unwrap()
        };
        let (b0, b1) = (backend(0), backend(1));
        let backends = format!("{},{}", b0.addr(), b1.addr());

        let addr_file = dir.join("router-addr.txt");
        let route_args: Vec<String> = [
            "--backends",
            backends.as_str(),
            "--replicas",
            "2",
            "--hedge-ms",
            "10",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let router = std::thread::spawn(move || run("route", &route_args));
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(a) = std::fs::read_to_string(&addr_file) {
                    if !a.is_empty() {
                        break a;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 20;
                assert!(waited < 5000, "router did not come up");
            }
        };

        let client_args = |extra: &[&str]| -> Vec<String> {
            ["--addr", addr.as_str()]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(
            run("client", &client_args(&["--action", "ping"])).unwrap(),
            "pong\n"
        );
        let solved = run(
            "client",
            &client_args(&[
                "--action",
                "solve",
                "--graph",
                gpath.to_str().unwrap(),
                "--examples",
                epath.to_str().unwrap(),
                "--q",
                "0",
                "--ell",
                "1",
            ]),
        )
        .unwrap();
        assert!(solved.contains("training error:  0.0000"), "{solved}");
        let stats = run("client", &client_args(&["--action", "stats"])).unwrap();
        assert!(stats.contains("\"router\""), "{stats}");
        assert!(stats.contains("\"hedges_fired\""), "{stats}");
        assert!(stats.contains("\"cluster\""), "{stats}");
        assert!(stats.contains("\"backends_live\""), "{stats}");

        // A routed solve carries a stitched trace — router.solve root,
        // per-attempt child spans, the winning backend's server.solve
        // subtree — written as JSONL the `trace` subcommand renders.
        let tpath = dir.join("routed-trace.jsonl");
        let traced = run(
            "client",
            &client_args(&[
                "--action",
                "solve",
                "--graph",
                gpath.to_str().unwrap(),
                "--examples",
                epath.to_str().unwrap(),
                "--q",
                "0",
                "--ell",
                "1",
                "--trace-out",
                tpath.to_str().unwrap(),
            ]),
        )
        .unwrap();
        assert!(traced.contains("written to"), "{traced}");
        let text = std::fs::read_to_string(&tpath).unwrap();
        assert!(text.contains("router.solve"), "{text}");
        assert!(text.contains("router.attempt"), "{text}");
        assert!(text.contains("server.solve"), "{text}");
        let inspect = run(
            "trace",
            &["--file".to_string(), tpath.to_str().unwrap().to_string()],
        )
        .unwrap();
        assert!(inspect.contains("router.solve"), "{inspect}");
        assert!(inspect.contains("server.solve"), "{inspect}");

        // `top --once` renders one dashboard frame off the same stats
        // endpoint, cluster section included.
        let top = run("top", &client_args(&["--once"])).unwrap();
        assert!(top.contains("folearn top — router"), "{top}");
        assert!(top.contains("last 60s:"), "{top}");
        assert!(top.contains("cluster:"), "{top}");
        assert!(top.contains("2 backends, 2 live, 2 reporting"), "{top}");

        // Multi-target loadgen round-robins directly over the backends
        // and breaks the report out per target.
        let lg = run(
            "loadgen",
            &[
                "--addr",
                backends.as_str(),
                "--graph",
                gpath.to_str().unwrap(),
                "--connections",
                "2",
                "--requests",
                "6",
                "--pool",
                "2",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<String>>(),
        )
        .unwrap();
        assert!(lg.contains("0 errors"), "{lg}");
        assert_eq!(lg.matches("  target ").count(), 2, "{lg}");

        let bye = run("client", &client_args(&["--action", "shutdown"])).unwrap();
        assert!(bye.contains("shutting down"));
        let routed = router.join().unwrap().unwrap();
        assert!(routed.contains("shut down cleanly"), "{routed}");
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn top_renders_durability_and_repair_counters() {
        let server = Json::parse(
            r#"{"role":"server","version":"0.1","uptime_ms":1200,"requests":7,"connections":1,"worker_panics":0,"durable":true,"wal_records_written":5,"wal_records_replayed":3,"snapshot_loads":1,"torn_tail_truncations":1,"recovery_ms":12}"#,
        )
        .unwrap();
        let frame = render_top("127.0.0.1:1", &server);
        assert!(
            frame.contains(
                "durable:   5 WAL records written, 3 replayed at boot (1 snapshot loads, 1 torn tails), recovery 12ms"
            ),
            "{frame}"
        );
        // A volatile server gets no durability line at all.
        let volatile = Json::parse(r#"{"role":"server","version":"0.1","durable":false}"#).unwrap();
        assert!(!render_top("127.0.0.1:1", &volatile).contains("durable:"));

        let router = Json::parse(
            r#"{"role":"router","version":"0.1","uptime_ms":500,"requests":9,"failovers":1,"repairs_performed":2,"backends":[{"addr":"127.0.0.1:2","requests":7,"latency":{"count":7,"p50_us":256,"p99_us":2048}}],"cluster":{"backends_total":1,"backends_live":1,"backends_reporting":1,"requests":7,"nodes":[{"addr":"127.0.0.1:2","live":true,"role":"server","version":"0.1","uptime_ms":900,"requests":7,"durable":true,"wal_records_replayed":3}]}}"#,
        )
        .unwrap();
        let frame = render_top("127.0.0.1:1", &router);
        assert!(frame.contains("repair:    2 structures re-seeded\n"), "{frame}");
        assert!(frame.contains(", durable (3 replayed)"), "{frame}");
        assert!(
            frame.contains("7 requests, calls p50 256µs p99 2048µs, durable"),
            "{frame}"
        );
    }

    #[test]
    fn modelcheck_command() {
        let dir = tmpdir("mc");
        let gpath = write_graph(&dir);
        let args: Vec<String> = [
            "--graph",
            gpath.to_str().unwrap(),
            "--formula",
            "exists x0. Red(x0)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = run("modelcheck", &args).unwrap();
        assert!(out.contains("true"));
        // The VM engine answers the same sentence identically.
        let mut vm_args = args.clone();
        vm_args.extend(["--engine".to_string(), "vm".to_string()]);
        assert_eq!(run("modelcheck", &vm_args).unwrap(), out);
        // Free variables are rejected.
        let args2: Vec<String> = [
            "--graph",
            gpath.to_str().unwrap(),
            "--formula",
            "Red(x0)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run("modelcheck", &args2).is_err());
    }

    #[test]
    fn types_and_splitter_and_dot_commands() {
        let dir = tmpdir("misc");
        let gpath = write_graph(&dir);
        let base: Vec<String> = ["--graph", gpath.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let types = run("types", &base).unwrap();
        assert!(types.contains("distinct 1-types"));
        let splitter = run("splitter", &base).unwrap();
        assert!(splitter.contains("rounds"));
        let dot = run("dot", &base).unwrap();
        assert!(dot.starts_with("graph G {"));
        assert!(run("bogus", &base).is_err());
    }
}
