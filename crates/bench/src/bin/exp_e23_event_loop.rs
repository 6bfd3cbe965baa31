//! E23 — connection scaling: the event-driven core vs thread-per-conn.
//!
//! Claim: rewriting the daemon around a nonblocking readiness loop with
//! pipelined framing and a sharded cache fixes connection-scaling
//! collapse — the pipelined load generator sustains ≥ 1k concurrent
//! connections against the event core with zero unrecovered errors, and
//! at that concurrency the event core's throughput strictly beats the
//! thread-per-connection baseline serving the identical workload.
//!
//! Only the event core is live code now. The thread-per-connection
//! baseline is a frozen measurement: its figure is
//! [`THREAD_CORE_RPS_HIGH`], and its rows are carried over verbatim from
//! the committed `BENCH_event_loop.json` into every rewrite of it.
//!
//! Writes the measurements (via the shared `write_json_file` writer) to
//! `BENCH_event_loop.json` — or a path given as the first CLI argument.

use std::net::SocketAddr;
use std::time::Duration;

use folearn_bench::{banner, cells, red_tree, verdict, write_json_file, Json, Table};
use folearn_graph::io;
use folearn_server::{run_load, start, ClientConfig, LoadReport, LoadgenConfig, ServerConfig};

/// The high-concurrency point the scaling claim is judged at.
const HIGH_CONCURRENCY: usize = 1024;
/// Requests per connection (a `register` rides along as one more).
const REQUESTS_PER_CONN: usize = 30;
/// Pipelined frames in flight per connection.
const WINDOW: usize = 8;

/// The thread-per-connection core's throughput at
/// [`HIGH_CONCURRENCY`] (req/s), measured at commit `fcda7e3` on a
/// 2-vCPU host, the last commit that still had that core.
const THREAD_CORE_RPS_HIGH: f64 = 8119.0;

/// The committed artifact, whose thread-core rows are kept as history.
const COMMITTED: &str = include_str!("../../../../BENCH_event_loop.json");

/// One measured run: a fresh daemon hammered by the pipelined load
/// generator at `connections`.
struct Run {
    connections: usize,
    report: LoadReport,
}

impl Run {
    /// Errors the run could not retry its way out of: server-side error
    /// replies plus workers that died early.
    fn unrecovered(&self) -> usize {
        self.report.errors + self.report.worker_errors.len()
    }
}

fn measure(connections: usize, graph_text: &str) -> Run {
    let handle = start(&ServerConfig {
        max_connections: 2 * HIGH_CONCURRENCY,
        cache_capacity: 4 * HIGH_CONCURRENCY,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr: SocketAddr = handle.addr();
    let config = LoadgenConfig {
        connections,
        requests_per_conn: REQUESTS_PER_CONN,
        seed: 23,
        sample_pool: 1,
        ell: 1,
        q: 1,
        pipeline: WINDOW,
        client: ClientConfig::with_deadline(Duration::from_secs(120)),
        ..LoadgenConfig::default()
    };
    let report = run_load(addr, graph_text, &config);
    handle.shutdown();
    Run {
        connections,
        report,
    }
}

/// The frozen thread-core rows of the committed artifact.
fn thread_core_rows() -> Vec<Json> {
    let committed = Json::parse(COMMITTED).expect("the committed E23 artifact parses");
    committed
        .get("runs")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter(|row| row.get("core").and_then(Json::as_str) == Some("thread"))
        .cloned()
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_event_loop.json".to_string());
    banner(
        "E23 (event-loop connection scaling)",
        "the nonblocking event core sustains ≥1k concurrent pipelined \
         connections with zero unrecovered errors and strictly \
         out-throughputs the thread-per-connection baseline there",
    );

    let g = red_tree(32, 3, 7);
    let graph_text = io::to_text(&g);

    let mut table = Table::new(&[
        "core", "conns", "requests", "unrecovered", "reconnects", "req/s", "cached", "fresh",
        "solve-p50-us",
    ]);
    let mut runs = Vec::new();
    let mut rows = thread_core_rows();
    for connections in [128usize, HIGH_CONCURRENCY] {
        let run = measure(connections, &graph_text);
        let solve_p50 = run
            .report
            .ops
            .iter()
            .find(|(op, _)| op == "solve")
            .map(|(_, s)| s.quantile_us(0.50))
            .unwrap_or(0);
        table.row(cells!(
            "event",
            run.connections,
            run.report.requests,
            run.unrecovered(),
            run.report.reconnects,
            format!("{:.0}", run.report.throughput()),
            run.report.cached_solves,
            run.report.fresh_solves,
            solve_p50
        ));
        let mut row = vec![
            ("core".to_string(), Json::str("event")),
            ("connections".to_string(), Json::int(run.connections)),
            (
                "unrecovered_errors".to_string(),
                Json::int(run.unrecovered()),
            ),
        ];
        if let Json::Obj(pairs) = run.report.to_json() {
            row.extend(pairs);
        }
        rows.push(Json::Obj(row));
        runs.push(run);
    }
    table.print();
    println!();

    let event_high = runs
        .iter()
        .find(|r| r.connections == HIGH_CONCURRENCY)
        .map_or(0.0, |r| r.report.throughput());
    let unrecovered: usize = runs.iter().map(Run::unrecovered).sum();
    let expected_high = HIGH_CONCURRENCY * (REQUESTS_PER_CONN + 1);
    let sustained = runs
        .iter()
        .filter(|r| r.connections == HIGH_CONCURRENCY)
        .all(|r| r.report.requests == expected_high);
    println!(
        "high concurrency ({HIGH_CONCURRENCY} conns): event {event_high:.0} req/s \
         vs thread {THREAD_CORE_RPS_HIGH:.0} req/s (frozen, fcda7e3)"
    );

    let json = Json::obj([
        ("experiment", Json::str("E23")),
        ("graph_vertices", Json::int(g.num_vertices())),
        ("pipeline_window", Json::int(WINDOW)),
        ("requests_per_conn", Json::int(REQUESTS_PER_CONN)),
        ("high_concurrency", Json::int(HIGH_CONCURRENCY)),
        ("event_rps_high", Json::Num(event_high.round())),
        ("threaded_rps_high", Json::Num(THREAD_CORE_RPS_HIGH)),
        ("unrecovered_errors", Json::int(unrecovered)),
        ("sustained_all_requests", Json::Bool(sustained)),
        ("runs", Json::Arr(rows)),
    ]);
    if let Err(e) = write_json_file(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let ok = sustained && unrecovered == 0 && event_high > THREAD_CORE_RPS_HIGH;
    verdict(
        ok,
        "≥1k concurrent pipelined connections complete every request with \
         zero unrecovered errors and the event core strictly beats the \
         frozen thread-per-connection figure",
    );
    if !ok {
        std::process::exit(1);
    }
}
