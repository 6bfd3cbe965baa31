//! End-to-end daemon tests over a real loopback socket: register, solve
//! (cold and cached), evaluate, model-check, stats, bad requests, the
//! request limit, connection-lifecycle limits (oversized frames,
//! truncated frames, idle timeout, connection cap), and graceful
//! shutdown. The connection-lifecycle contract is checked against both
//! daemons: a bare backend and a cluster router in front of one.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use folearn_cluster::{RouterConfig, RouterHandle};

use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{hex64, hypothesis_id, Json, Request, Response};
use folearn_server::{
    start, ChaosConfig, ChaosProxy, Client, ClientApi, ClientConfig, ClientError, Direction,
    FaultKind, LoadgenConfig, RetryPolicy, ServerConfig, ServerHandle, SolverSpec, WireExample,
};

const GRAPH: &str = "colors Red Blue\nvertices 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\ncolor 0 Red\ncolor 2 Red\ncolor 4 Red\ncolor 1 Blue\ncolor 3 Blue\ncolor 5 Blue\n";

fn sample() -> Vec<WireExample> {
    // "Is the vertex Red?" on the coloured path: realisable at q = 1.
    (0..6u32)
        .map(|v| WireExample {
            tuple: vec![v],
            label: v % 2 == 0,
        })
        .collect()
}

/// A daemon under a connection-lifecycle test: a bare backend, or a
/// cluster router (in front of one backend) with the same front-door
/// limits.
enum Daemon {
    Server(ServerHandle),
    Router(RouterHandle, ServerHandle),
}

impl Daemon {
    const KINDS: [&'static str; 2] = ["server", "router"];

    fn start(kind: &str, max_connections: usize, idle_timeout: Duration) -> Self {
        let server_limits = ServerConfig {
            max_connections,
            idle_timeout,
            ..ServerConfig::default()
        };
        match kind {
            "server" => Daemon::Server(start(&server_limits).expect("server starts")),
            "router" => {
                let backend = start(&ServerConfig::default()).expect("backend starts");
                let router = folearn_cluster::start(&RouterConfig {
                    backends: vec![backend.addr().to_string()],
                    replicas: 1,
                    repair_interval: None,
                    max_connections,
                    idle_timeout,
                    ..RouterConfig::default()
                })
                .expect("router starts");
                Daemon::Router(router, backend)
            }
            other => panic!("unknown daemon kind {other:?}"),
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Daemon::Server(h) => h.addr(),
            Daemon::Router(r, _) => r.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Daemon::Server(h) => h.shutdown(),
            Daemon::Router(r, backend) => {
                r.shutdown();
                backend.shutdown();
            }
        }
    }
}

#[test]
fn full_session_register_solve_cache_evaluate_modelcheck() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("client connects");

    client.ping().expect("ping");

    let structure = client.register(GRAPH).expect("register");
    // Registering a textual variant (extra comments/whitespace) dedupes
    // to the same content hash.
    let variant = format!("# same graph\n{GRAPH}\n\n");
    let again = client.register(&variant).expect("register variant");
    assert_eq!(structure, again, "canonicalised content hash dedupes");

    let cold = client
        .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
        .expect("cold solve");
    assert!(!cold.cached);
    assert_eq!(cold.error, 0.0, "Red(x0) realises the sample");
    assert!(cold.work > 0);
    assert_eq!(
        cold.hypothesis.id,
        hypothesis_id(
            structure,
            &sample(),
            1,
            1,
            0.0,
            &SolverSpec::default_brute()
        ),
        "the id is the content address of the solve"
    );

    let warm = client
        .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
        .expect("warm solve");
    assert!(warm.cached, "identical solve is served from cache");
    // The cached outcome is the stored one, bit for bit.
    assert_eq!(warm.error, cold.error);
    assert_eq!(warm.work, cold.work);
    assert_eq!(warm.hypothesis.id, cold.hypothesis.id);
    assert_eq!(warm.hypothesis.params, cold.hypothesis.params);
    assert_eq!(warm.hypothesis.types, cold.hypothesis.types);

    // The unified trace rides on the wire: a `server.solve` span wrapping
    // the learner's own `solve` span, end to end.
    let trace = cold.trace.as_ref().expect("a fresh solve carries a trace");
    assert_eq!(trace.get("span").and_then(|s| s.as_str()), Some("server.solve"));
    let children = trace.get("children").and_then(|c| c.as_arr()).unwrap_or(&[]);
    assert!(
        children
            .iter()
            .any(|c| c.get("span").and_then(|s| s.as_str()) == Some("solve")),
        "learner-level span nests under the server span: {trace:?}"
    );
    // Cache hits replay the populating run's trace, stamped as a
    // replay: `replayed: true` plus the original capture's age.
    let replayed = warm.trace.as_ref().expect("replayed solve keeps its trace");
    assert_eq!(
        replayed.get("span").and_then(|s| s.as_str()),
        Some("server.solve")
    );
    let meta = replayed.get("meta").expect("replay stamps meta");
    assert_eq!(meta.get("replayed").and_then(Json::as_bool), Some(true));
    assert!(
        meta.get("replay_age_ms").and_then(Json::as_num).is_some(),
        "replay age rides along: {meta:?}"
    );
    // Underneath the stamp, the span tree is the populating run's.
    assert_eq!(replayed.get("children"), trace.get("children"));

    // A different solver config is a different cache key.
    let other = client
        .solve(
            structure,
            sample(),
            1,
            1,
            0.0,
            SolverSpec::Brute {
                mode: folearn::TypeMode::Global,
                threads: Some(1),
                prune: false,
                engine: folearn_logic::vm::EvalEngine::TreeWalk,
            },
        )
        .expect("different-config solve");
    assert!(!other.cached);
    // ... but the deterministic engine finds the same answer.
    assert_eq!(other.error, cold.error);

    // Evaluate the learned hypothesis on every vertex: it must realise
    // the training labels exactly (error 0 above).
    let tuples: Vec<Vec<u32>> = (0..6u32).map(|v| vec![v]).collect();
    let labels: Vec<bool> = (0..6u32).map(|v| v % 2 == 0).collect();
    let (predictions, error) = client
        .evaluate(structure, cold.hypothesis.id, tuples, Some(labels.clone()))
        .expect("evaluate");
    assert_eq!(predictions, labels);
    assert_eq!(error, Some(0.0));

    assert!(client
        .modelcheck(structure, "exists x0. Red(x0)")
        .expect("modelcheck sat"));
    assert!(!client
        .modelcheck(structure, "forall x0. Red(x0)")
        .expect("modelcheck unsat"));

    // A solve's engine field is accepted and ignored: the vm solve is
    // the tree solve, answered from its cache entry under its id.
    let mut vm_spec = SolverSpec::default_brute();
    if let SolverSpec::Brute { engine, .. } = &mut vm_spec {
        *engine = EvalEngine::Vm;
    }
    let vm_solve = client
        .solve(structure, sample(), 1, 1, 0.0, vm_spec)
        .expect("vm solve");
    assert!(vm_solve.cached, "the engine is not part of the cache key");
    assert_eq!(vm_solve.hypothesis.id, cold.hypothesis.id);
    assert_eq!(vm_solve.error, cold.error);
    // The engine selects how modelcheck evaluates; its VM work counters
    // surface in the stats snapshot below.
    assert!(client
        .modelcheck_with_engine(structure, "exists x0. Red(x0)", EvalEngine::Vm)
        .expect("vm modelcheck"));

    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache block");
    assert!(
        cache.get("hit_rate").unwrap().as_num().unwrap() > 0.0,
        "warm solve shows up in the hit rate"
    );
    assert!(stats.get("requests").unwrap().as_usize().unwrap() >= 8);
    let endpoints = stats.get("endpoints").expect("endpoints block");
    assert!(endpoints.get("solve").is_some());
    assert!(
        endpoints
            .get("solve")
            .unwrap()
            .get("p50_us")
            .unwrap()
            .as_num()
            .unwrap()
            > 0.0
    );
    // The unified metrics snapshot aggregates learner spans by name.
    let spans = stats.get("spans").expect("spans block");
    assert!(spans.get("server.solve").is_some());
    let solve_spans = spans.get("solve").expect("learner-level span in stats");
    assert!(solve_spans.get("count").unwrap().as_num().unwrap() >= 2.0);
    assert!(spans.get("erm.sweep").is_some());
    // Sweep counters ride on the per-worker records the sweep adopts.
    assert!(
        spans
            .get("erm.worker")
            .and_then(|s| s.get("evaluated_params"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            > 0.0,
        "sweep work counters aggregate into the snapshot"
    );
    // VM model checks flush vm_* counters into their enclosing span.
    assert!(
        spans
            .get("server.modelcheck")
            .and_then(|s| s.get("vm_instructions"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            > 0.0,
        "VM counters aggregate under the modelcheck span: {spans:?}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn errors_are_protocol_replies_not_disconnects() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Unknown structure.
    let err = client
        .solve(7, sample(), 1, 1, 0.0, SolverSpec::default_brute())
        .expect_err("unknown structure");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("unknown structure")));

    let structure = client.register(GRAPH).expect("register");

    // Bad graph text.
    let err = client.register("vertices 2\nedge 0 9\n").expect_err("bad graph");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("register")));

    // Mixed arities.
    let bad = vec![
        WireExample {
            tuple: vec![0],
            label: true,
        },
        WireExample {
            tuple: vec![0, 1],
            label: false,
        },
    ];
    let err = client
        .solve(structure, bad, 1, 1, 0.0, SolverSpec::default_brute())
        .expect_err("mixed arity");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("arity")));

    // Out-of-range vertex.
    let oob = vec![WireExample {
        tuple: vec![99],
        label: true,
    }];
    let err = client
        .solve(structure, oob, 1, 1, 0.0, SolverSpec::default_brute())
        .expect_err("out of range");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("out of range")));

    // Absurd thread count fails with a clear message, no panic.
    let err = client
        .solve(
            structure,
            sample(),
            1,
            1,
            0.0,
            SolverSpec::Brute {
                mode: folearn::TypeMode::Global,
                threads: Some(100_000),
                prune: true,
                engine: folearn_logic::vm::EvalEngine::TreeWalk,
            },
        )
        .expect_err("too many threads");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("threads")));

    // Unknown hypothesis id.
    let err = client
        .evaluate(structure, 0xdead, vec![vec![0]], None)
        .expect_err("unknown hypothesis");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains(&hex64(0xdead))));

    // Open formula rejected by modelcheck.
    let err = client
        .modelcheck(structure, "Red(x0)")
        .expect_err("open formula");
    assert!(matches!(err, ClientError::Server { message: ref m, .. } if m.contains("sentence")));

    // Malformed line: raw garbage gets an error reply, connection lives.
    match client.call(&Request::Ping).expect("still alive") {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn request_limit_closes_the_connection() {
    let config = ServerConfig {
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    };
    let handle = start(&config).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..3 {
        client.ping().expect("within budget");
    }
    match client.call(&Request::Ping) {
        Ok(Response::Bye { reason }) => assert_eq!(reason, "request limit"),
        other => panic!("expected bye, got {other:?}"),
    }
    // A fresh connection still works.
    let mut c2 = Client::connect(handle.addr()).expect("reconnect");
    c2.ping().expect("fresh budget");
    handle.shutdown();
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.register(GRAPH).expect("register");
    client.shutdown().expect("bye");
    handle.wait(); // returns: acceptor, connections, and workers joined
    assert!(
        Client::connect(addr).map(|mut c| c.ping()).is_err()
            || Client::connect(addr).is_err(),
        "daemon no longer serves"
    );
}

#[test]
fn loadgen_smoke_hits_the_cache() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let config = LoadgenConfig {
        connections: 2,
        requests_per_conn: 25,
        seed: 5,
        sample_pool: 3,
        ell: 1,
        q: 1,
        ..LoadgenConfig::default()
    };
    let report = folearn_server::loadgen::run_load(handle.addr(), GRAPH, &config);
    assert_eq!(report.requests, 2 * (25 + 1)); // +1 register per worker
    assert_eq!(report.errors, 0);
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    assert!(
        report.cached_solves > 0,
        "small sample pool must produce repeat solves"
    );
    assert!(report.fresh_solves > 0);
    assert!(report.throughput() > 0.0);
    let solve = report
        .ops
        .iter()
        .find(|(op, _)| op == "solve")
        .map(|(_, s)| s)
        .expect("solve stats");
    assert!(solve.quantile_us(0.5) > 0);
    handle.shutdown();
}

/// A loadgen mix through a proxy that garbles 10% of frames both ways
/// finishes with zero unrecovered errors: every mangled call is retried
/// on a fresh connection and answered by the deterministic engine.
#[test]
fn loadgen_through_a_garbling_proxy_recovers_every_fault() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosConfig {
            kind: FaultKind::Garble,
            rate: 0.10,
            delay: Duration::ZERO,
            direction: Direction::Both,
            seed: 0x10AD,
        },
    )
    .expect("proxy starts");
    let config = LoadgenConfig {
        connections: 3,
        requests_per_conn: 30,
        seed: 19,
        client: ClientConfig::with_deadline(Duration::from_millis(250)),
        retry: RetryPolicy {
            max_retries: 12,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(40),
            seed: 7,
        },
        ..LoadgenConfig::default()
    };
    let report = folearn_server::loadgen::run_load(proxy.addr(), GRAPH, &config);
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    assert_eq!(report.errors, 0, "no unrecovered errors");
    assert_eq!(report.requests, 3 * (30 + 1));
    assert!(proxy.faults_injected() > 0, "the proxy never faulted");
    assert!(report.retries > 0, "survived faults without retrying?");
    proxy.shutdown();
    handle.shutdown();
}

/// Read one newline-terminated response from a raw socket.
fn read_reply(stream: TcpStream) -> Response {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    Response::decode(line.trim_end()).expect("a protocol response")
}

#[test]
fn raw_garbage_gets_a_malformed_request_error() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(b"this is not protocol json\n").expect("write");
    match read_reply(s) {
        Response::Error { message, .. } => assert!(
            message.starts_with("malformed request"),
            "retryability contract: the prefix marks in-flight corruption, got {message:?}"
        ),
        other => panic!("expected error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn oversized_frame_is_rejected_and_the_connection_closed() {
    let config = ServerConfig {
        max_line_bytes: 128,
        ..ServerConfig::default()
    };
    let handle = start(&config).expect("server starts");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A newline-less byte stream much longer than the limit: the old
    // code grew `line` without bound; now the server must cut in with
    // one error and close.
    s.write_all(&vec![b'a'; 4096]).expect("write");
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    match Response::decode(line.trim_end()).expect("a protocol response") {
        Response::Error { message, .. } => {
            assert!(message.starts_with("malformed request"), "{message:?}");
            assert!(message.contains("exceeds 128 bytes"), "{message:?}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // ... and then EOF: the connection is gone.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).expect("eof"), 0);
    handle.shutdown();
}

#[test]
fn eof_mid_frame_is_rejected_not_served() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A COMPLETE, valid ping — minus the terminating newline — followed
    // by write-shutdown. The old code served the partial frame (pong);
    // a truncated frame must be rejected instead.
    s.write_all(Request::Ping.encode().as_bytes()).expect("write");
    s.shutdown(Shutdown::Write).expect("half-close");
    match read_reply(s) {
        Response::Error { message, .. } => {
            assert!(message.starts_with("malformed request"), "{message:?}");
            assert!(message.contains("truncated"), "{message:?}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn idle_connections_are_closed_with_bye() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let handle = start(&config).expect("server starts");
    let s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Send nothing: within idle_timeout (+ one poll interval) the
    // server must say bye and hang up.
    match read_reply(s) {
        Response::Bye { reason } => assert_eq!(reason, "idle timeout"),
        other => panic!("expected bye, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn connection_cap_turns_new_connections_away() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let handle = start(&config).expect("server starts");
    let mut c1 = Client::connect(handle.addr()).expect("conn 1");
    let mut c2 = Client::connect(handle.addr()).expect("conn 2");
    c1.ping().expect("conn 1 live");
    c2.ping().expect("conn 2 live");
    // Third concurrent connection: greeted with bye, never served.
    let s3 = TcpStream::connect(handle.addr()).expect("conn 3 tcp");
    s3.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match read_reply(s3) {
        Response::Bye { reason } => assert_eq!(reason, "connection limit"),
        other => panic!("expected bye, got {other:?}"),
    }
    // Freeing a slot lets a fresh connection in (finished handles are
    // reaped on accept).
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c4 = loop {
        let mut c = Client::connect(handle.addr()).expect("conn 4 tcp");
        match c.ping() {
            Ok(()) => break c,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    c4.ping().expect("conn 4 live");
    handle.shutdown();
}

#[test]
fn flood_past_the_cap_is_rejected_gracefully_and_the_daemon_survives() {
    // A connection flood must never crash a daemon or pile up
    // unboundedly: every connection past the cap gets one `bye` and a
    // close, the flood is counted, and the daemon keeps serving.
    for kind in Daemon::KINDS {
        let daemon = Daemon::start(kind, 8, ServerConfig::default().idle_timeout);
        let addr = daemon.addr();
        // Hold the cap's worth of live connections...
        let held: Vec<Client> = (0..8)
            .map(|i| {
                let mut c =
                    Client::connect(addr).unwrap_or_else(|e| panic!("[{kind}] held conn {i}: {e}"));
                c.ping().expect("held conn serves");
                c
            })
            .collect();
        // ...then flood well past it. Every extra connection must be
        // answered (bye) — never ignored, never a daemon panic.
        let mut rejected = 0usize;
        for _ in 0..60 {
            let s = TcpStream::connect(addr).expect("tcp connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            match read_reply(s) {
                Response::Bye { reason } => {
                    assert_eq!(reason, "connection limit", "[{kind}]");
                    rejected += 1;
                }
                other => panic!("[{kind}] expected bye, got {other:?}"),
            }
        }
        assert_eq!(
            rejected, 60,
            "[{kind}] every flooded connection was answered"
        );
        // The held connections still serve, and the flood is visible in
        // the stats.
        let mut held = held;
        for c in &mut held {
            c.ping().expect("survivors still served");
        }
        let stats = held[0].stats().expect("stats");
        let rejected_stat = stats
            .get("rejected_connections")
            .and_then(Json::as_usize)
            .expect("rejected_connections gauge");
        assert!(rejected_stat >= 60, "[{kind}] counted {rejected_stat}");
        drop(held);
        daemon.shutdown();
    }
}

#[test]
fn slow_writer_is_served_not_idle_closed() {
    // The idle clock must count partial bytes of an in-progress frame
    // as activity. A peer trickling one legitimate frame slower than
    // the idle timeout is slow, not idle.
    for kind in Daemon::KINDS {
        let daemon = Daemon::start(
            kind,
            ServerConfig::default().max_connections,
            Duration::from_millis(300),
        );
        let mut s = TcpStream::connect(daemon.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_nodelay(true).unwrap();
        let frame = format!("{}\n", Request::Ping.encode());
        // Drip the frame over ~1s — more than 3× the idle timeout — in
        // chunks spaced under the timeout.
        for chunk in frame.as_bytes().chunks(2) {
            s.write_all(chunk).expect("slow write");
            std::thread::sleep(Duration::from_millis(150));
        }
        match read_reply(s) {
            Response::Pong => {}
            other => panic!("[{kind}] slow writer must be served, got {other:?}"),
        }
        daemon.shutdown();
    }
}

#[test]
fn pipelined_loadgen_keeps_per_target_totals_exact_across_reconnects() {
    // Satellite fix: a reconnect (here forced by a tiny per-connection
    // request budget) must resume the schedule, not reset it — so every
    // worker completes exactly requests_per_conn + 1 requests and the
    // per-target rows add up precisely.
    let config = ServerConfig {
        max_requests_per_conn: 7,
        ..ServerConfig::default()
    };
    let h1 = start(&config).expect("daemon 1");
    let h2 = start(&config).expect("daemon 2");
    let load = LoadgenConfig {
        connections: 2,
        requests_per_conn: 30,
        seed: 23,
        sample_pool: 3,
        ell: 1,
        q: 1,
        pipeline: 4,
        client: folearn_server::ClientConfig::with_deadline(Duration::from_secs(20)),
        ..LoadgenConfig::default()
    };
    let report =
        folearn_server::loadgen::run_load_multi(&[h1.addr(), h2.addr()], GRAPH, &load);
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    assert_eq!(report.errors, 0, "no unrecovered errors");
    assert_eq!(
        report.requests,
        2 * (30 + 1),
        "schedule position survives reconnects: nothing lost, nothing double-counted"
    );
    assert!(
        report.reconnects >= 2,
        "the 7-request budget must have forced reconnects, got {}",
        report.reconnects
    );
    assert_eq!(report.targets.len(), 2, "{:?}", report.targets);
    for (addr, requests, errors) in &report.targets {
        assert_eq!(*requests, 31, "target {addr} row is exact");
        assert_eq!(*errors, 0);
    }
    assert!(report.cached_solves > 0, "repeat solves hit the cache");
    h1.shutdown();
    h2.shutdown();
}

/// A pipelined burst of identical solves lands before the first result
/// can reach the cache; the event core must coalesce the duplicates
/// onto the one in-flight computation — one fresh solve, every
/// duplicate replayed as a cache hit with the same hypothesis id —
/// instead of recomputing each copy.
#[test]
fn duplicate_pipelined_solves_coalesce_onto_one_computation() {
    let handle = start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let structure = client.register(GRAPH).expect("register");

    const BURST: usize = 12;
    let line = Request::Solve {
        structure,
        examples: sample(),
        ell: 1,
        q: 1,
        epsilon: 0.0,
        solver: SolverSpec::default_brute(),
        trace: None,
    }
    .encode();
    let blob: String = (0..BURST).map(|_| format!("{line}\n")).collect();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(blob.as_bytes()).expect("burst write");

    let mut reader = BufReader::new(stream);
    let mut fresh = 0usize;
    let mut ids = Vec::new();
    for i in 0..BURST {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        match Response::decode(reply.trim_end()).expect("decodes") {
            Response::Solved(outcome) => {
                if !outcome.cached {
                    fresh += 1;
                }
                ids.push(outcome.hypothesis.id);
            }
            other => panic!("reply {i}: expected solved, got {other:?}"),
        }
    }
    assert_eq!(fresh, 1, "exactly one copy is computed");
    let id = hypothesis_id(structure, &sample(), 1, 1, 0.0, &SolverSpec::default_brute());
    assert!(
        ids.iter().all(|&i| i == id),
        "every duplicate sees the same content-addressed id: {ids:?}"
    );
    handle.shutdown();
}

#[test]
fn connection_handles_are_reaped_not_leaked() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    // Many short-lived sequential connections: without reaping, the
    // tracked vector grows one handle per connection forever.
    for _ in 0..20 {
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.ping().expect("ping");
        drop(c);
        std::thread::sleep(Duration::from_millis(20));
    }
    // One more accept triggers a reap of everything already finished.
    let mut last = Client::connect(handle.addr()).expect("connect");
    last.ping().expect("ping");
    assert!(
        handle.tracked_connections() <= 5,
        "tracked handles stay bounded, got {}",
        handle.tracked_connections()
    );
    handle.shutdown();
}
