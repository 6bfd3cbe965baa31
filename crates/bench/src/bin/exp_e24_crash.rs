//! E24 — crash: the Lemma 7 reduction through a SIGKILL'd-and-restarted
//! backend, with and without durable state.
//!
//! Claim: a 3-node cluster of *OS-process* backends behind the router
//! answers the remote reduction bit-identically to the in-process
//! oracle even while one backend is SIGKILL'd mid-reduction and
//! restarted — and the two recovery paths differ exactly as designed:
//!
//! * `--data-dir` (durable): the restarted backend replays its WAL —
//!   `wal_records_replayed > 0`, hypotheses back under their ids —
//!   so the router's anti-entropy sweep finds **nothing to re-seed**
//!   (`reseeds == 0`). Recovery cost is the replay, measured both by
//!   the daemon (`recovery_ms`) and end to end (`restart_ms`).
//! * volatile: the backend comes back empty (`wal_records_replayed ==
//!   0`) and its inventory must hold the structure again; the structure
//!   returns over the wire, by the request path's reseed or by the
//!   sweep (only the sweep's re-registrations count as `reseeds`, so
//!   that count is reported, not checked). The converge clock is the
//!   gap between the process serving again and its inventory holding
//!   the structure.
//!
//! Writes the measurements (via the shared `write_json_file` writer) to
//! `BENCH_crash.json` — or a path given as the first CLI argument.
//! Needs the `folearn` CLI binary next to this one (`cargo build
//! --release` builds both).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use folearn_bench::{banner, cells, verdict, write_json_file, Json, Table};
use folearn_cluster::{start as start_router, RouterConfig, RouterHandle};
use folearn_graph::{generators, io, ColorId, Graph, Vocabulary};
use folearn_hardness::oracle::{BruteForceOracle, RemoteOracle};
use folearn_hardness::reduction::{model_check_via_erm, ReductionReport};
use folearn_logic::parse;
use folearn_server::{Client, ClientApi, ClientConfig, Request, Response, RetryPolicy};

/// How long the reduction runs before the killer thread pulls the plug.
const KILL_AFTER: Duration = Duration::from_millis(20);
/// Anti-entropy cadence for the cell routers: fast, so a cold backend
/// converges within the bench run.
const REPAIR_INTERVAL: Duration = Duration::from_millis(50);

fn colored_path(n: usize, stride: usize) -> Graph {
    let g = generators::path(n, Vocabulary::new(["Red"]));
    generators::periodically_colored(&g, ColorId(0), stride)
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(40),
        seed,
    }
}

/// The router's backend-call policy: fail fast so the SIGKILL surfaces
/// as a failover instead of a stall.
fn failover_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        seed,
    }
}

const SENTENCES: [&str; 3] = [
    "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
    "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
    "(exists x0. Red(x0)) & !(forall x0. Red(x0))",
];

fn baselines(g: &Graph) -> Vec<ReductionReport> {
    let vocab = g.vocab().as_ref().clone();
    SENTENCES
        .iter()
        .map(|s| {
            let phi = parse(s, &vocab).unwrap();
            let mut local = BruteForceOracle::new();
            model_check_via_erm(g, &phi, &mut local)
        })
        .collect()
}

fn reports_match(a: &ReductionReport, b: &ReductionReport) -> bool {
    a.result == b.result
        && a.oracle_calls == b.oracle_calls
        && a.realizable_calls == b.realizable_calls
        && a.representative_set_sizes == b.representative_set_sizes
        && a.max_depth == b.max_depth
}

/// Run the three reduction sentences through `router` and compare each
/// report against the in-process baseline. Returns `(identical, wall_ms)`.
fn run_reduction(
    g: &Graph,
    expected: &[ReductionReport],
    router: &RouterHandle,
    tag: &str,
) -> (bool, usize) {
    let vocab = g.vocab().as_ref().clone();
    let t0 = Instant::now();
    let mut remote = RemoteOracle::connect_with(
        router.addr(),
        ClientConfig::with_deadline(Duration::from_secs(5)),
        retry_policy(1),
    )
    .expect("oracle connects to router");
    let mut identical = true;
    for (s, baseline) in SENTENCES.iter().zip(expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(g, &phi, &mut remote);
        if !reports_match(&report, baseline) {
            identical = false;
            eprintln!("[{tag}] report diverged on {s}");
        }
    }
    (identical, t0.elapsed().as_millis() as usize)
}

/// The `folearn` CLI binary, expected to sit next to this experiment in
/// the cargo target directory.
fn folearn_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir");
    for cand in [dir.join("folearn"), dir.join("../folearn")] {
        if cand.exists() {
            return cand;
        }
    }
    panic!(
        "folearn binary not found next to {}; run `cargo build --release` first",
        exe.display()
    );
}

/// Spawn `folearn serve` as a real OS process (so SIGKILL means
/// SIGKILL), optionally durable, and wait until it serves.
fn spawn_serve(addr: &str, data_dir: Option<&Path>, addr_file: &Path) -> (std::process::Child, String) {
    for attempt in 0..3 {
        let _ = std::fs::remove_file(addr_file);
        let mut cmd = std::process::Command::new(folearn_bin());
        cmd.arg("serve")
            .args(["--addr", addr])
            .args(["--addr-file", addr_file.to_str().unwrap()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(d) = data_dir {
            cmd.args(["--data-dir", d.to_str().unwrap()]);
        }
        let child = cmd.spawn().expect("spawn folearn serve");
        let t0 = Instant::now();
        // The daemon writes the addr file only once it is listening.
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(s) = std::fs::read_to_string(addr_file) {
                if !s.trim().is_empty() {
                    return (child, s.trim().to_string());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        eprintln!("backend on {addr} did not come up (attempt {attempt}); retrying");
        let mut child = child;
        let _ = child.kill();
        let _ = child.wait();
    }
    panic!("backend on {addr} did not come up after 3 attempts");
}

/// Register `g` through the router; return the content hash and the
/// replica addresses the ack lists.
fn placement(router: &RouterHandle, g: &Graph) -> (u64, Vec<String>) {
    let mut probe = Client::connect(router.addr()).expect("probe connects");
    match probe.call(&Request::Register {
        graph_text: io::to_text(g),
    }) {
        Ok(Response::Registered {
            structure,
            replicas: Some(replicas),
            ..
        }) => (structure, replicas),
        other => panic!("router register ack must list replicas, got {other:?}"),
    }
}

fn stat_u64(stats: &folearn_server::proto::Json, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.as_usize()).unwrap_or(0) as u64
}

/// Everything one cell measures.
struct CellOutcome {
    identical: bool,
    wall_ms: usize,
    failovers: u64,
    reseeds: u64,
    /// SIGKILL → the respawned process answers `stats` again.
    restart_ms: usize,
    /// Serving again → its inventory holds the reduction's structure
    /// (0 when the WAL already restored it).
    converge_ms: usize,
    wal_records_replayed: u64,
    /// The daemon's own measure of replay cost (volatile: 0).
    recovery_ms: u64,
    /// Post-restart hypothesis count straight off the victim —
    /// durable restarts come back with their hypotheses in place.
    hypotheses_after_restart: usize,
    unrecovered_errors: usize,
}

/// One experiment cell: 3 OS-process backends, router on top, kill a
/// replica of the structure mid-reduction, restart it on the same
/// address (and same data dir when durable), then wait for the
/// anti-entropy sweep to settle and read every counter.
fn run_cell(g: &Graph, expected: &[ReductionReport], durable: bool) -> CellOutcome {
    let tag = if durable { "durable" } else { "volatile" };
    let root = std::env::temp_dir().join(format!("folearn-e24-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");

    let data_dir = |i: usize| durable.then(|| root.join(format!("b{i}")));
    let addr_file = |i: usize| root.join(format!("addr-{i}"));
    let mut children: Vec<Option<std::process::Child>> = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..3 {
        let (child, addr) = spawn_serve("127.0.0.1:0", data_dir(i).as_deref(), &addr_file(i));
        children.push(Some(child));
        addrs.push(addr);
    }

    let router = start_router(&RouterConfig {
        backends: addrs.clone(),
        replicas: 2,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        retry: failover_retry(7),
        repair_interval: Some(REPAIR_INTERVAL),
        ..RouterConfig::default()
    })
    .expect("router starts");

    // Register before the kill: the structure is on the victim's disk
    // (durable cell) or in its memory (volatile cell) from second one.
    let (hash, replicas) = placement(&router, g);
    let victim_addr = replicas[0].clone();
    let vi = addrs.iter().position(|a| *a == victim_addr).expect("victim index");
    let victim_child = children[vi].take().expect("victim handle");

    let victim_dir = data_dir(vi);
    let victim_file = addr_file(vi);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(KILL_AFTER);
        let mut victim = victim_child;
        victim.kill().expect("SIGKILL victim");
        let _ = victim.wait();
        let t0 = Instant::now();
        // Respawn on the *same* address so the router's fixed backend
        // list points at the revived process.
        let (child, _) = spawn_serve(&victim_addr, victim_dir.as_deref(), &victim_file);
        let mut restart_ms;
        loop {
            restart_ms = t0.elapsed().as_millis() as usize;
            if Client::connect(&victim_addr).and_then(|mut c| c.stats()).is_ok() {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "victim never served again");
            std::thread::sleep(Duration::from_millis(2));
        }
        (child, victim_addr, restart_ms)
    });

    let (identical, wall_ms) = run_reduction(g, expected, &router, tag);
    let (revived, victim_addr, restart_ms) = killer.join().expect("killer thread");
    children[vi] = Some(revived);

    let mut unrecovered_errors = usize::from(!identical);

    // Cold-reseed clock: serving again → inventory holds the structure.
    // Durable restarts pass on the first poll (the WAL restored it);
    // volatile ones wait for the anti-entropy sweep or a request-path
    // reseed to close the gap.
    let t0 = Instant::now();
    let (converge_ms, hypotheses_after_restart) = loop {
        match Client::connect(&victim_addr).and_then(|mut c| c.inventory()) {
            Ok((structures, hyps)) if structures.contains(&hash) => {
                break (t0.elapsed().as_millis() as usize, hyps.len());
            }
            _ => {}
        }
        if t0.elapsed() > Duration::from_secs(10) {
            eprintln!("[{tag}] victim inventory never converged");
            unrecovered_errors += 1;
            break (t0.elapsed().as_millis() as usize, 0);
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    // Let at least two full repair sweeps run after convergence so the
    // reseed counter is settled, then read everything.
    std::thread::sleep(REPAIR_INTERVAL * 3);
    let router_stats = Client::connect(router.addr())
        .and_then(|mut c| c.stats())
        .expect("router stats");
    let failovers = stat_u64(&router_stats, "failovers");
    let reseeds = stat_u64(&router_stats, "repairs_performed");

    let victim_stats = Client::connect(&victim_addr)
        .and_then(|mut c| c.stats())
        .expect("victim stats");
    let wal_records_replayed = stat_u64(&victim_stats, "wal_records_replayed");
    let recovery_ms = stat_u64(&victim_stats, "recovery_ms");

    // The revived backend must answer the reduction's sentence through
    // the router — no client-side re-registration anywhere.
    let mut check = Client::connect(router.addr()).expect("check client");
    match check.modelcheck(hash, SENTENCES[0]) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("[{tag}] post-restart modelcheck failed: {e}");
            unrecovered_errors += 1;
        }
    }

    router.shutdown();
    for child in children.iter_mut().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&root);

    CellOutcome {
        identical,
        wall_ms,
        failovers,
        reseeds,
        restart_ms,
        converge_ms,
        wal_records_replayed,
        recovery_ms,
        hypotheses_after_restart,
        unrecovered_errors,
    }
}

fn cell_json(name: &str, c: &CellOutcome) -> Json {
    Json::obj([
        ("cell", Json::str(name)),
        ("bit_identical", Json::Bool(c.identical)),
        ("wall_ms", Json::int(c.wall_ms)),
        ("failovers", Json::int(c.failovers as usize)),
        ("reseeds", Json::int(c.reseeds as usize)),
        ("restart_ms", Json::int(c.restart_ms)),
        ("converge_ms", Json::int(c.converge_ms)),
        (
            "wal_records_replayed",
            Json::int(c.wal_records_replayed as usize),
        ),
        ("recovery_ms", Json::int(c.recovery_ms as usize)),
        (
            "hypotheses_after_restart",
            Json::int(c.hypotheses_after_restart),
        ),
    ])
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_crash.json".to_string());
    banner(
        "E24 (crash)",
        "the Lemma 7 reduction stays bit-identical through a mid-reduction \
         SIGKILL + restart of a backend process; with --data-dir the node \
         replays its WAL and needs zero reseeds, without it the node comes \
         back empty and its inventory converges",
    );

    let g = colored_path(7, 3);
    let expected = baselines(&g);

    let durable = run_cell(&g, &expected, true);
    let volatile = run_cell(&g, &expected, false);

    let mut table = Table::new(&[
        "cell",
        "identical",
        "reseeds",
        "replayed",
        "restart ms",
        "converge ms",
        "ms",
    ]);
    for (name, c) in [("--data-dir", &durable), ("volatile", &volatile)] {
        table.row(cells!(
            name,
            if c.identical { "yes" } else { "NO" },
            c.reseeds as usize,
            c.wal_records_replayed as usize,
            c.restart_ms,
            c.converge_ms,
            c.wall_ms
        ));
    }
    table.print();
    println!();
    println!(
        "recovery (WAL replay): {}ms to serving + {}ms to full inventory, \
         {} records replayed (daemon-side replay {}ms), {} hypotheses back",
        durable.restart_ms,
        durable.converge_ms,
        durable.wal_records_replayed,
        durable.recovery_ms,
        durable.hypotheses_after_restart
    );
    println!(
        "reseed (cold):         {}ms to serving + {}ms to full inventory, \
         {} reseeds",
        volatile.restart_ms, volatile.converge_ms, volatile.reseeds
    );
    println!();

    let all_bit_identical = durable.identical && volatile.identical;
    let unrecovered = durable.unrecovered_errors + volatile.unrecovered_errors;
    let json = Json::obj([
        ("experiment", Json::str("E24")),
        ("graph_vertices", Json::int(g.num_vertices())),
        ("sentences", Json::int(SENTENCES.len())),
        ("backends", Json::int(3)),
        ("replicas", Json::int(2)),
        (
            "repair_interval_ms",
            Json::int(REPAIR_INTERVAL.as_millis() as usize),
        ),
        ("all_bit_identical", Json::Bool(all_bit_identical)),
        ("unrecovered_errors", Json::int(unrecovered)),
        (
            "durable_recovery_ms",
            Json::int(durable.restart_ms + durable.converge_ms),
        ),
        (
            "cold_reseed_ms",
            Json::int(volatile.restart_ms + volatile.converge_ms),
        ),
        (
            "cells",
            Json::Arr(vec![
                cell_json("durable", &durable),
                cell_json("volatile", &volatile),
            ]),
        ),
    ]);
    if let Err(e) = write_json_file(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let ok = all_bit_identical
        && unrecovered == 0
        && durable.reseeds == 0
        && durable.wal_records_replayed > 0
        && volatile.wal_records_replayed == 0;
    verdict(
        ok,
        "both cells reproduce the reduction bit for bit through the kill \
         and converge; the durable restart replayed its WAL with zero \
         reseeds, the volatile one replayed nothing",
    );
}
