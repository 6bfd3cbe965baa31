//! Acceptance tests for the cluster router: a live 3-node loopback
//! cluster behind `folearn-cluster` must be indistinguishable — bit for
//! bit — from the in-process oracle, including with a backend killed
//! mid-workload, with one router→backend link garbled by the chaos
//! proxy, and with one backend slow enough that reads hedge around it.
//! Opted-in solves come back as one stitched span tree across router
//! and backend.
//!
//! Cross-replica identity rests on canonical type keys: each backend
//! numbers types in its own arena, but `RemoteOracle` groups oracle
//! answers by `(type_keys, params, q)`, which agree across replicas.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use folearn_cluster::{start as start_router, RouterConfig, RouterHandle};
use folearn_graph::{generators, io, ColorId, Graph, Vocabulary};
use folearn_hardness::oracle::{BruteForceOracle, RemoteOracle};
use folearn_hardness::reduction::{model_check_via_erm, ReductionReport};
use folearn_logic::parse;
use folearn_server::{
    hex64, hypothesis_id, start as start_server, ChaosConfig, ChaosProxy, Client, ClientApi,
    ClientConfig, ClientError, Direction, FaultKind, Json, Request, Response, RetryPolicy,
    ServerConfig, ServerHandle, SolveOutcome, SolverSpec, TraceContext, WireExample,
};
use folearn_obs::export::span_from_json;
use folearn_obs::{PowHistogram, SpanRecord};

/// Hedged routers fire at the next replica after this much silence.
const HEDGE_DELAY: Duration = Duration::from_millis(10);

fn colored_path(n: usize, stride: usize) -> Graph {
    let g = generators::path(n, Vocabulary::new(["Red"]));
    generators::periodically_colored(&g, ColorId(0), stride)
}

fn spawn_backends(n: usize) -> (Vec<String>, HashMap<String, ServerHandle>) {
    let mut addrs = Vec::new();
    let mut by_addr = HashMap::new();
    for _ in 0..n {
        let h = start_server(&ServerConfig::default()).expect("backend starts");
        let a = h.addr().to_string();
        addrs.push(a.clone());
        by_addr.insert(a, h);
    }
    (addrs, by_addr)
}

/// The tests' router settings: backend calls fail fast (≈30ms of
/// backoff), so a dead backend surfaces as a recorded failover.
fn router_config(backends: Vec<String>, replicas: usize) -> RouterConfig {
    RouterConfig {
        backends,
        replicas,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        retry: RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            seed: 7,
        },
        ..RouterConfig::default()
    }
}

fn router_over(backends: Vec<String>, replicas: usize) -> RouterHandle {
    start_router(&router_config(backends, replicas)).expect("router starts")
}

/// Register `g` through the router: its structure hash and the ack's
/// replica list, primary first.
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

/// Put `backend` behind a proxy that holds every frame 4× the hedge
/// delay each way, and point `backend` at the proxy.
fn slow_down(backend: &mut String) -> ChaosProxy {
    let proxy = ChaosProxy::start(
        backend.parse().expect("backend addr"),
        ChaosConfig {
            kind: FaultKind::Delay,
            rate: 1.0,
            delay: 4 * HEDGE_DELAY,
            direction: Direction::Both,
            seed: 0x51_0e,
        },
    )
    .expect("delay proxy starts");
    *backend = proxy.addr().to_string();
    proxy
}

/// A red-coloured 7-path whose primary replica sits behind `slow`.
/// Placement hashes over ephemeral ports, so colourings are tried until
/// one lands; the path's length, and so the work on it, stays fixed.
fn slow_primary_structure(router: &RouterHandle, slow: &ChaosProxy) -> (u64, Graph) {
    let slow = slow.addr().to_string();
    let path = generators::path(7, Vocabulary::new(["Red"]));
    (0..64)
        .map(|seed| generators::randomly_colored(&path, 0.5, seed))
        .find_map(|g| {
            let (structure, replicas) = placement(router, &g);
            (replicas[0] == slow).then_some((structure, g))
        })
        .expect("some structure's primary is the slow backend")
}

fn reports_match(a: &ReductionReport, b: &ReductionReport, context: &str) {
    assert_eq!(a.result, b.result, "[{context}] verdict diverged");
    assert_eq!(a.oracle_calls, b.oracle_calls, "[{context}] call-count diverged");
    assert_eq!(
        a.realizable_calls, b.realizable_calls,
        "[{context}] realisability split diverged"
    );
    assert_eq!(
        a.representative_set_sizes, b.representative_set_sizes,
        "[{context}] Ramsey grouping diverged — canonical keys are not replica-independent"
    );
    assert_eq!(a.max_depth, b.max_depth, "[{context}] depth diverged");
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

#[test]
fn cluster_reduction_is_bit_identical_to_in_process() {
    let (addrs, by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects to router");
    for (s, baseline) in SENTENCES.iter().zip(&expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(&g, &phi, &mut remote);
        reports_match(&report, baseline, s);
    }

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn reduction_survives_a_backend_killed_mid_reduction() {
    let (addrs, mut by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    // Register first so we know which backends hold the structure —
    // the kill must hit a replica that actually serves it.
    let (_, replicas) = placement(&router, &g);
    assert_eq!(replicas.len(), 2, "R=2 placement");

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects");

    // First sentence with the whole cluster alive.
    let phi = parse(SENTENCES[0], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[0],
        SENTENCES[0],
    );

    // Kill the structure's primary replica while the second reduction
    // runs: the router must fail the affected calls over to the other
    // replica without the client noticing.
    let victim = by_addr.remove(&replicas[0]).expect("victim handle");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        victim.shutdown();
    });
    let phi = parse(SENTENCES[1], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[1],
        SENTENCES[1],
    );
    killer.join().unwrap();

    // And a whole reduction with the backend fully gone.
    let phi = parse(SENTENCES[2], &vocab).unwrap();
    reports_match(
        &model_check_via_erm(&g, &phi, &mut remote),
        &expected[2],
        SENTENCES[2],
    );

    // The router must have actually failed over (and, once the failure
    // streak crossed the threshold, ejected the dead backend).
    let stats = Client::connect(router.addr())
        .expect("probe connects")
        .stats()
        .expect("router stats");
    let retries = stats.get("replica_retries").unwrap().as_usize().unwrap();
    let failovers = stats.get("failovers").unwrap().as_usize().unwrap();
    assert!(retries > 0, "backend died but no replica retry was recorded");
    assert!(failovers > 0, "dead backend was never ejected");

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn reduction_survives_one_garbled_router_backend_link() {
    let (mut addrs, by_addr) = spawn_backends(3);
    // Interpose the chaos proxy on the router's link to backend 1: a
    // fixed fraction of frames crossing that link get a byte flipped.
    let victim: std::net::SocketAddr = addrs[1].parse().unwrap();
    let proxy = ChaosProxy::start(
        victim,
        ChaosConfig {
            kind: FaultKind::Garble,
            rate: 0.10,
            delay: Duration::from_millis(100),
            direction: Direction::Both,
            seed: 0xC1A5,
        },
    )
    .expect("proxy starts");
    addrs[1] = proxy.addr().to_string();

    // R=3: every backend (including the garbled one) holds every
    // structure, so the poisoned link sees real traffic.
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 3,
        client: ClientConfig::with_deadline(Duration::from_millis(500)),
        retry: RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(40),
            seed: 3,
        },
        ..RouterConfig::default()
    })
    .expect("router starts");

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);

    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects");
    for (s, baseline) in SENTENCES.iter().zip(&expected) {
        let phi = parse(s, &vocab).unwrap();
        let report = model_check_via_erm(&g, &phi, &mut remote);
        reports_match(&report, baseline, s);
    }
    assert!(proxy.faults_injected() > 0, "the garbled link saw no traffic");

    router.shutdown();
    proxy.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// Hedged reads: one backend holds every frame 4× the hedge delay each
/// way. Reads of a structure whose primary it is outlast the hedge
/// delay, so the router fires a hedge at the other replica, which wins
/// — and the reduction's answers still equal the in-process ones.
#[test]
fn hedged_reads_route_around_a_slow_primary_bit_identically() {
    let (mut addrs, by_addr) = spawn_backends(3);
    let proxy = slow_down(&mut addrs[0]);
    let router = start_router(&RouterConfig {
        hedge_delay: Some(HEDGE_DELAY),
        ..router_config(addrs, 2)
    })
    .expect("router starts");

    let (_, g) = slow_primary_structure(&router, &proxy);
    let vocab = g.vocab().as_ref().clone();
    let expected = baselines(&g);
    let mut remote = RemoteOracle::connect(router.addr()).expect("oracle connects");
    for (s, baseline) in SENTENCES.iter().zip(&expected) {
        let phi = parse(s, &vocab).unwrap();
        reports_match(&model_check_via_erm(&g, &phi, &mut remote), baseline, s);
    }

    let stats = Client::connect(router.addr())
        .expect("stats client connects")
        .stats()
        .expect("router stats");
    assert!(num_at(&stats, &["hedges_fired"]) > 0, "no read hedged");
    assert!(num_at(&stats, &["hedges_won"]) > 0, "no hedge beat the slow primary");

    router.shutdown();
    proxy.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// Every span of a tree, depth first.
fn spans(rec: &SpanRecord) -> Vec<&SpanRecord> {
    let mut out = vec![rec];
    for child in &rec.children {
        out.extend(spans(child));
    }
    out
}

fn meta<'a>(rec: &'a SpanRecord, key: &str) -> Option<&'a Json> {
    rec.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The stitched tree of a traced routed solve, checked complete: a
/// `router.solve` root with one won `router.attempt`, which holds the
/// backend's `server.solve` subtree.
fn stitched(outcome: &SolveOutcome) -> SpanRecord {
    let trace = outcome.trace.as_ref().expect("a traced solve returns a trace");
    let root = span_from_json(trace).expect("the stitched trace parses as a span tree");
    assert_eq!(root.name, "router.solve");
    let won: Vec<&SpanRecord> = root
        .children
        .iter()
        .filter(|a| {
            a.name == "router.attempt"
                && meta(a, "outcome").and_then(Json::as_str) == Some("won")
        })
        .collect();
    assert_eq!(won.len(), 1, "one winning attempt");
    assert!(
        spans(won[0]).iter().any(|sp| sp.name == "server.solve"),
        "the winning attempt carries the backend's subtree"
    );
    root
}

/// The `kind` of each attempt span, in launch order.
fn attempt_kinds(root: &SpanRecord) -> Vec<&str> {
    root.children
        .iter()
        .filter(|a| a.name == "router.attempt")
        .filter_map(|a| meta(a, "kind").and_then(Json::as_str))
        .collect()
}

/// What a solve answers, minus the backend-local type ids: equal on
/// every replica, traced or not, cold or replayed.
fn answer(o: &SolveOutcome) -> (u64, f64, usize, &[u32], &[u64], &str) {
    let h = &o.hypothesis;
    (h.id, o.error, o.work, &h.params, &h.type_keys, &h.describe)
}

/// Distributed tracing through a hedging, failing-over router: each
/// opted-in solve comes back as one stitched tree — the client's trace
/// id on the `router.solve` root, a `router.attempt` per backend call
/// tagged with its kind, the winner's `server.solve` subtree, stamped
/// `replayed` when the backend answered from its cache — with the same
/// answer as an untraced solve. The router's `stats` fans in every
/// backend's snapshot.
#[test]
fn traced_solves_stitch_one_tree_through_hedge_failover_and_replay() {
    let (mut addrs, mut by_addr) = spawn_backends(3);
    let direct = addrs.clone();
    let proxy = slow_down(&mut addrs[0]);
    let router = start_router(&RouterConfig {
        hedge_delay: Some(HEDGE_DELAY),
        ..router_config(addrs, 2)
    })
    .expect("router starts");
    let (structure, _) = slow_primary_structure(&router, &proxy);
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: true,
        },
        WireExample {
            tuple: vec![1],
            label: false,
        },
    ];
    let spec = SolverSpec::default_brute();
    let traced = |c: &mut Client, structure: u64, trace_id: u64| {
        c.solve_traced(
            structure,
            examples.clone(),
            1,
            1,
            0.0,
            spec.clone(),
            TraceContext {
                trace_id,
                parent: 0x11,
            },
        )
        .expect("traced routed solve")
    };
    let mut c = Client::connect(router.addr()).expect("client connects");

    // Cold: the slow primary outlasts the hedge delay, so a hedge joins
    // the tree; the client's trace context names the root.
    let cold = traced(&mut c, structure, 0xABCD);
    assert!(!cold.cached);
    let root = stitched(&cold);
    assert_eq!(
        meta(&root, "trace_id").and_then(Json::as_str),
        Some(hex64(0xABCD).as_str())
    );
    assert_eq!(
        meta(&root, "parent").and_then(Json::as_str),
        Some(hex64(0x11).as_str())
    );
    assert!(attempt_kinds(&root).contains(&"hedge"), "{:?}", attempt_kinds(&root));

    let plain = c
        .solve(structure, examples.clone(), 1, 1, 0.0, spec.clone())
        .expect("untraced routed solve");
    assert_eq!(answer(&plain), answer(&cold), "tracing changed the answer");

    // Warm: the backend replays its cached answer and stamps the subtree.
    let warm = traced(&mut c, structure, 0xABCE);
    assert!(warm.cached);
    let root = stitched(&warm);
    assert!(
        spans(&root).iter().any(|sp| sp.name == "server.solve"
            && meta(sp, "replayed").and_then(Json::as_bool) == Some(true)),
        "a cached answer's subtree is stamped replayed"
    );
    assert_eq!(answer(&warm), answer(&cold));

    // Fan-in stats: every backend reports, and the merge keeps roles
    // and the solve histogram.
    let stats = c.stats().expect("router stats");
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
    assert!(stats.get("uptime_ms").and_then(Json::as_num).is_some());
    assert_eq!(num_at(&stats, &["cluster", "backends_total"]), 3);
    assert_eq!(num_at(&stats, &["cluster", "backends_reporting"]), 3);
    let cluster = stats.get("cluster").expect("a cluster section");
    assert!(
        cluster
            .get("endpoints")
            .and_then(|e| e.get("solve"))
            .and_then(|s| s.get("hist"))
            .is_some(),
        "merged solve histogram"
    );
    let nodes = cluster.get("nodes").and_then(Json::as_arr).expect("node rows");
    assert_eq!(nodes.len(), 3);
    assert!(nodes
        .iter()
        .all(|r| r.get("role").and_then(Json::as_str) == Some("server")));
    assert!(stats
        .get("series")
        .and_then(|s| s.get("buckets"))
        .and_then(Json::as_arr)
        .is_some_and(|b| !b.is_empty()));
    router.shutdown();
    proxy.shutdown();

    // Failover: without hedging, kill a structure's primary; the tree
    // shows the failed primary and the failover that won.
    let router = start_router(&RouterConfig {
        hedge_delay: None,
        ..router_config(direct, 2)
    })
    .expect("router starts");
    let (structure, replicas) = placement(&router, &colored_path(9, 3));
    by_addr.remove(&replicas[0]).expect("victim handle").shutdown();
    let o = traced(
        &mut Client::connect(router.addr()).expect("client connects"),
        structure,
        0xABCF,
    );
    let root = stitched(&o);
    assert_eq!(attempt_kinds(&root), ["primary", "failover"]);

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn front_door_speaks_the_protocol_with_cluster_extensions() {
    let (addrs, by_addr) = spawn_backends(3);
    let backend_addrs: Vec<String> = addrs.clone();
    let router = router_over(addrs, 2);

    let mut c = Client::connect(router.addr()).expect("client connects");
    c.ping().expect("ping");

    // Unknown structure: coded error, no backend involved.
    let err = c
        .modelcheck(0xdead_beef, "exists x0. Red(x0)")
        .expect_err("unknown structure must fail");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code.as_deref(), Some("unknown_structure"));
            assert!(message.contains("dead"), "message names the hash: {message}");
        }
        other => panic!("wanted coded server error, got {other}"),
    }

    // Register: ack lists the replica set.
    let g = colored_path(8, 4);
    let ack = c
        .call(&Request::Register {
            graph_text: io::to_text(&g),
        })
        .expect("register");
    let Response::Registered {
        structure,
        fresh,
        replicas: Some(replicas),
        ..
    } = ack
    else {
        panic!("wanted registered ack with replicas")
    };
    assert!(fresh);
    assert_eq!(replicas.len(), 2);
    for r in &replicas {
        assert!(backend_addrs.contains(r), "replica {r} is not a backend");
    }

    // Solve: the reply carries provenance naming a real backend, and the
    // hypothesis id is usable through the router.
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve through router");
    let prov = outcome.provenance.expect("router attaches provenance");
    assert!(replicas.contains(&prov.backend), "provenance names a replica");
    assert!(
        !outcome.hypothesis.type_keys.is_empty(),
        "canonical keys ride along"
    );

    // Evaluate against that id.
    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (preds, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples, None)
        .expect("evaluate through router");
    assert_eq!(preds.len(), 8);

    // Unknown hypothesis: coded error.
    let err = c
        .evaluate(structure, 0x4242, vec![vec![0]], None)
        .expect_err("unknown hypothesis must fail");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code.as_deref(), Some("unknown_hypothesis"));
        }
        other => panic!("wanted coded server error, got {other}"),
    }

    // Modelcheck with provenance, and router-flavoured stats.
    assert!(c
        .modelcheck(structure, "exists x0. Red(x0)")
        .expect("modelcheck"));
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats.get("role").and_then(|r| r.as_str()),
        Some("router"),
        "router stats are distinguishable from backend stats"
    );
    assert!(stats.get("hedges_fired").is_some());
    let rows = stats.get("backends").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 3);

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn anti_entropy_repairs_a_restarted_backend() {
    // Two live backends plus one address that is down from the start —
    // the "restarted empty" backend. Reserving the port with a listener
    // that never accepts leaves no TIME_WAIT behind, so the real daemon
    // can bind it later.
    let (mut addrs, by_addr) = spawn_backends(2);
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let late_addr = reserved.local_addr().unwrap().to_string();
    drop(reserved);
    addrs.push(late_addr.clone());

    // R=3: everything is placed everywhere, including on the dead node.
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 3,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        repair_interval: Some(Duration::from_millis(50)),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let mut c = Client::connect(router.addr()).expect("client connects");
    let g = colored_path(8, 4);
    let structure = c.register(&io::to_text(&g)).expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve");
    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (before, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples.clone(), None)
        .expect("evaluate");

    // The dead replica comes up empty. The router's anti-entropy pass
    // must notice and re-seed the structure without any client traffic
    // demanding it.
    let late = start_server(&ServerConfig {
        addr: late_addr.clone(),
        ..ServerConfig::default()
    })
    .expect("late backend binds the reserved address");

    let mut repairs = 0;
    for _ in 0..100 {
        let stats = c.stats().expect("router stats");
        repairs = stats.get("repairs_performed").unwrap().as_usize().unwrap();
        if repairs >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(repairs >= 1, "the lost structure was never re-seeded");

    // The repaired backend really holds the structure: ask it directly.
    let mut direct = Client::connect(late.addr()).expect("connect to repaired backend");
    let (structures, _) = direct.inventory().expect("inventory");
    assert!(
        structures.contains(&structure),
        "repaired backend lacks the structure"
    );

    // And the cluster still answers identically through the front door
    // (a replica without the hypothesis re-derives it on the spot).
    let (after, _) = c
        .evaluate(structure, outcome.hypothesis.id, tuples, None)
        .expect("evaluate after repair");
    assert_eq!(before, after);

    router.shutdown();
    late.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn evaluate_rebinds_after_the_learning_backend_dies() {
    let (addrs, mut by_addr) = spawn_backends(3);
    let router = router_over(addrs, 2);

    let mut c = Client::connect(router.addr()).expect("client connects");
    let g = colored_path(8, 4);
    let structure = c.register(&io::to_text(&g)).expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![1],
            label: true,
        },
    ];
    let outcome = c
        .solve(structure, examples, 1, 0, 0.25, SolverSpec::default_brute())
        .expect("solve");
    let prov = outcome.provenance.expect("provenance");
    let hyp = outcome.hypothesis.id;

    let tuples: Vec<Vec<u32>> = (0..8).map(|v| vec![v]).collect();
    let (before, _) = c.evaluate(structure, hyp, tuples.clone(), None).expect("evaluate");

    // Kill exactly the backend that learned the hypothesis. The router
    // must rebind by re-solving on a surviving replica — deterministic
    // solver, canonical structure text — and answer identically.
    let victim = by_addr.remove(&prov.backend).expect("victim handle");
    victim.shutdown();

    let (after, _) = c
        .evaluate(structure, hyp, tuples, None)
        .expect("evaluate after backend death");
    assert_eq!(before, after, "rebound hypothesis predicts differently");

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// One answer, one id: 200 identical solves through a replicated router
/// all return the content-addressed id — the same one a backend gives a
/// direct solve — and leave one hypothesis in the router's table. The
/// anti-entropy sweeps that follow replicate nothing.
#[test]
fn identical_routed_solves_share_one_content_addressed_id() {
    let (addrs, by_addr) = spawn_backends(3);
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 2,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        repair_interval: Some(Duration::from_millis(50)),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let mut c = Client::connect(router.addr()).expect("client connects");
    let structure = c
        .register(&io::to_text(&colored_path(8, 4)))
        .expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![4],
            label: true,
        },
    ];
    let spec = SolverSpec::default_brute();
    let id = hypothesis_id(structure, &examples, 1, 0, 0.25, &spec);

    let mut ids = std::collections::HashSet::new();
    let mut learner = String::new();
    for _ in 0..200 {
        let o = c
            .solve(structure, examples.clone(), 1, 0, 0.25, spec.clone())
            .expect("routed solve");
        ids.insert(o.hypothesis.id);
        learner = o.provenance.expect("provenance").backend;
    }
    assert_eq!(
        ids.into_iter().collect::<Vec<_>>(),
        [id],
        "one id per answer"
    );
    let direct = Client::connect(&learner)
        .expect("connect to a replica")
        .solve(structure, examples, 1, 0, 0.25, spec)
        .expect("direct solve");
    assert_eq!(direct.hypothesis.id, id, "a direct solve names the same id");
    let stats = c.stats().expect("router stats");
    assert_eq!(num_at(&stats, &["hypotheses"]), 1);

    // Wait for three more sweeps (each one asks every backend for its
    // inventory), then look at what each backend holds.
    let swept = |h: &ServerHandle| {
        let stats = Client::connect(h.addr())
            .expect("connect")
            .stats()
            .expect("stats");
        num_at(&stats, &["endpoints", "inventory", "count"])
    };
    let before: Vec<usize> = by_addr.values().map(swept).collect();
    for _ in 0..200 {
        if by_addr
            .values()
            .zip(&before)
            .all(|(h, &b)| swept(h) >= b + 3)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    for ((addr, h), b) in by_addr.iter().zip(before) {
        assert!(swept(h) >= b + 3, "{addr} was not swept three times");
        let (_, hyps) = Client::connect(h.addr())
            .expect("connect")
            .inventory()
            .expect("inventory");
        assert!(hyps.len() <= 1, "{addr} holds {} hypotheses", hyps.len());
        assert!(hyps.iter().all(|b| b.id == id), "{addr}: {hyps:?}");
    }

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// A line relay to `upstream`: every request line (`true`) and reply
/// line (`false`) passes through `edit` on its way.
fn relay_backend(
    upstream: std::net::SocketAddr,
    edit: impl Fn(bool, String) -> String + Send + Sync + 'static,
) -> std::net::SocketAddr {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let edit = Arc::new(edit);
    std::thread::spawn(move || {
        for down in listener.incoming() {
            let (Ok(down), Ok(up)) = (down, std::net::TcpStream::connect(upstream)) else {
                return;
            };
            let (down_r, up_r) = (down.try_clone().unwrap(), up.try_clone().unwrap());
            for (from, mut to, request) in [(down_r, up, true), (up_r, down, false)] {
                let edit = Arc::clone(&edit);
                std::thread::spawn(move || {
                    for line in BufReader::new(from).lines() {
                        let Ok(line) = line else { break };
                        if writeln!(to, "{}", edit(request, line)).is_err() {
                            break;
                        }
                    }
                    let _ = to.shutdown(std::net::Shutdown::Write);
                });
            }
        }
    });
    addr
}

/// A stand-in for a backend built before ids were content addresses:
/// it relays every frame to `upstream` but renumbers each `solved`
/// reply from a counter, the way such a build named its hypotheses.
fn counter_id_backend(upstream: std::net::SocketAddr) -> std::net::SocketAddr {
    let next = AtomicU64::new(1);
    relay_backend(upstream, move |request, line| {
        match (request, Response::decode(&line)) {
            (false, Ok(Response::Solved(mut o))) => {
                o.hypothesis.id = next.fetch_add(1, Ordering::SeqCst);
                Response::Solved(o).encode()
            }
            _ => line,
        }
    })
}

/// The router files an answer only under its content address: a backend
/// that names it otherwise fails the attempt — alone, the solve errors;
/// beside a current replica, the ladder fails over to it.
#[test]
fn a_backend_that_renumbers_solves_cannot_rename_a_routed_answer() {
    let (addrs, by_addr) = spawn_backends(2);
    let legacy = counter_id_backend(addrs[0].parse().expect("backend addr")).to_string();
    let spec = SolverSpec::default_brute();
    let sample = |i: u32| {
        vec![
            WireExample {
                tuple: vec![i],
                label: true,
            },
            WireExample {
                tuple: vec![i + 1],
                label: false,
            },
        ]
    };

    let lone = router_over(vec![legacy.clone()], 1);
    let mut c = Client::connect(lone.addr()).expect("client connects");
    let structure = c
        .register(&io::to_text(&colored_path(8, 4)))
        .expect("register");
    let id = hypothesis_id(structure, &sample(0), 1, 0, 0.25, &spec);
    let err = c
        .solve(structure, sample(0), 1, 0, 0.25, spec.clone())
        .expect_err("a renumbered answer is not served");
    assert!(err.to_string().contains(&hex64(id)), "{err}");
    assert_eq!(num_at(&c.stats().expect("stats"), &["hypotheses"]), 0);
    lone.shutdown();

    let mixed = router_over(vec![legacy, addrs[1].clone()], 2);
    let mut c = Client::connect(mixed.addr()).expect("client connects");
    for n in 6..10 {
        let structure = c
            .register(&io::to_text(&colored_path(n, 3)))
            .expect("register");
        let o = c
            .solve(structure, sample(1), 1, 0, 0.25, spec.clone())
            .expect("the solve fails over to the current replica");
        assert_eq!(
            o.hypothesis.id,
            hypothesis_id(structure, &sample(1), 1, 0, 0.25, &spec)
        );
    }
    mixed.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// Every line that crosses a [`recording_backend`] relay, per direction.
#[derive(Default)]
struct Recorded {
    requests: Vec<String>,
    replies: Vec<String>,
}

/// A transparent relay to `upstream` that keeps a copy of every
/// request and reply line it forwards.
fn recording_backend(
    upstream: std::net::SocketAddr,
) -> (std::net::SocketAddr, Arc<std::sync::Mutex<Recorded>>) {
    let log = Arc::new(std::sync::Mutex::new(Recorded::default()));
    let relay_log = Arc::clone(&log);
    let addr = relay_backend(upstream, move |request, line| {
        let mut log = relay_log.lock().unwrap();
        let side = if request {
            &mut log.requests
        } else {
            &mut log.replies
        };
        side.push(line.clone());
        line
    });
    (addr, log)
}

/// The anti-entropy sweep asks for structure hashes only: every
/// `inventory` line it sends carries `"hypotheses": false`, and a
/// backend holding hypotheses answers it with none. A direct
/// `inventory` still lists every binding.
#[test]
fn the_repair_sweep_fetches_structures_only() {
    let (addrs, by_addr) = spawn_backends(3);
    let upstream: std::net::SocketAddr = addrs[0].parse().expect("backend addr");
    let (relay, log) = recording_backend(upstream);
    let router = start_router(&RouterConfig {
        backends: vec![relay.to_string(), addrs[1].clone(), addrs[2].clone()],
        replicas: 3,
        client: ClientConfig::with_deadline(Duration::from_secs(5)),
        repair_interval: Some(Duration::from_millis(50)),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let structure = Client::connect(router.addr())
        .expect("client connects")
        .register(&io::to_text(&colored_path(8, 4)))
        .expect("register");

    // Give the relayed backend hypotheses of its own to not list.
    let spec = SolverSpec::default_brute();
    let mut direct = Client::connect(upstream).expect("connect to the backend");
    let mut ids: Vec<u64> = (0..3u32)
        .map(|i| {
            let sample = vec![
                WireExample {
                    tuple: vec![i],
                    label: true,
                },
                WireExample {
                    tuple: vec![i + 1],
                    label: false,
                },
            ];
            direct
                .solve(structure, sample, 1, 0, 0.25, spec.clone())
                .expect("direct solve")
                .hypothesis
                .id
        })
        .collect();
    ids.sort_unstable();

    // Requests carry their kind in `op`, replies in `resp`.
    let inventories = |lines: &[String], tag: &str| -> Vec<String> {
        let tagged = |l: &&String| {
            Json::parse(l).is_ok_and(|v| v.get(tag).and_then(Json::as_str) == Some("inventory"))
        };
        lines.iter().filter(tagged).cloned().collect()
    };
    let settled = || {
        let log = log.lock().unwrap();
        let sent = inventories(&log.requests, "op");
        let got = inventories(&log.replies, "resp");
        (sent.len() >= 3 && got.len() >= 3).then_some((sent, got))
    };
    let mut swept = None;
    for _ in 0..200 {
        swept = settled();
        if swept.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (sent, got) = swept.expect("the relayed backend was not swept three times");
    for line in &sent {
        assert!(line.contains(r#""hypotheses": false"#), "sweep sent {line}");
        assert_eq!(
            Request::decode(line),
            Ok(Request::Inventory { hypotheses: false })
        );
    }
    for line in &got {
        match Response::decode(line) {
            Ok(Response::Inventory {
                structures,
                hypotheses,
            }) => {
                assert_eq!(structures, [structure], "{line}");
                assert!(
                    hypotheses.is_empty(),
                    "sweep reply listed hypotheses: {line}"
                );
            }
            other => panic!("not an inventory reply: {other:?}"),
        }
    }

    let (structures, bindings) = direct.inventory().expect("direct inventory");
    assert_eq!(structures, [structure]);
    assert_eq!(
        bindings
            .iter()
            .map(|b| (b.id, b.structure))
            .collect::<Vec<_>>(),
        ids.iter().map(|&id| (id, structure)).collect::<Vec<_>>(),
        "a direct inventory lists every binding"
    );

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

// ---------------------------------------------------------------------
// the `stats` payload contract
// ---------------------------------------------------------------------

/// The JSON type name of `v`, as the shape list spells it.
fn json_type(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "num",
        Json::Str(_) => "str",
        Json::Arr(_) => "arr",
        Json::Obj(_) => "obj",
    }
}

/// Every key path of `v` with its JSON type, in render order. Keys are
/// joined with `/` (span names contain dots); the elements of an array
/// share the path `<key>[]`, and a path seen twice is kept once.
fn key_paths(v: &Json, path: &str, out: &mut Vec<String>) {
    let line = format!("{path} {}", json_type(v));
    if !out.contains(&line) {
        out.push(line);
    }
    match v {
        Json::Obj(pairs) => {
            for (k, child) in pairs {
                key_paths(child, &format!("{path}/{k}"), out);
            }
        }
        Json::Arr(items) => {
            for child in items {
                key_paths(child, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

/// The number at `path` (0 when absent).
fn num_at(v: &Json, path: &[&str]) -> usize {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_usize)
        .unwrap_or(0)
}

/// Send raw bytes on a fresh connection and return everything the
/// daemon writes back before it closes the connection.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).expect("write");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read to EOF");
    reply
}

/// The fixed script the contract test drives through one front door:
/// register, a cold solve, a warm solve, evaluate, modelcheck, one
/// oversize frame, then `stats`.
fn stats_after_script(addr: std::net::SocketAddr, max_line_bytes: usize) -> Json {
    let mut c = Client::connect(addr).expect("client connects");
    let g = colored_path(8, 4);
    let structure = c.register(&io::to_text(&g)).expect("register");
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![4],
            label: true,
        },
    ];
    // One sweep thread: the span rollup's nonzero counters must not
    // depend on scheduling.
    let solver = SolverSpec::Brute {
        mode: folearn::TypeMode::Global,
        threads: Some(1),
        prune: true,
        engine: folearn_logic::vm::EvalEngine::TreeWalk,
    };
    let cold = c
        .solve(structure, examples.clone(), 1, 0, 0.25, solver.clone())
        .expect("cold solve");
    assert!(!cold.cached);
    let warm = c
        .solve(structure, examples, 1, 0, 0.25, solver)
        .expect("warm solve");
    assert!(warm.cached);
    c.evaluate(structure, cold.hypothesis.id, vec![vec![0], vec![4]], None)
        .expect("evaluate");
    assert!(c.modelcheck(structure, "exists x0. Red(x0)").expect("modelcheck"));
    // The close is counted before the error reply is written, so reading
    // the reply orders it before the `stats` below.
    let reply = raw_exchange(addr, &vec![b'a'; 2 * max_line_bytes]);
    assert!(reply.contains("exceeds"), "{reply:?}");
    c.stats().expect("stats")
}

#[test]
fn stats_payload_keeps_its_shape_and_deterministic_counts() {
    const MAX_LINE: usize = 4096;
    let data_dir = std::env::temp_dir().join(format!("folearn-stats-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = start_server(&ServerConfig {
        data_dir: Some(data_dir.clone()),
        max_line_bytes: MAX_LINE,
        ..ServerConfig::default()
    })
    .expect("durable server starts");
    let (addrs, by_addr) = spawn_backends(2);
    // No hedging and no background repair: every count below is fixed
    // by the script alone.
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 2,
        hedge_delay: None,
        repair_interval: None,
        max_line_bytes: MAX_LINE,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let server_stats = stats_after_script(server.addr(), MAX_LINE);
    let mut router_stats = stats_after_script(router.addr(), MAX_LINE);
    let cluster = match &mut router_stats {
        Json::Obj(pairs) => {
            let at = pairs.iter().position(|(k, _)| k == "cluster").expect("cluster object");
            pairs.remove(at).1
        }
        _ => panic!("stats is an object"),
    };

    let mut actual = Vec::new();
    for (daemon, stats) in [("server", &server_stats), ("router", &router_stats), ("cluster", &cluster)] {
        key_paths(stats, daemon, &mut actual);
    }
    let expected: Vec<&str> = include_str!("stats_shape.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(
        actual.iter().map(String::as_str).eq(expected.iter().copied()),
        "stats shape changed; the paths now rendered are:\n{}",
        actual.join("\n")
    );

    // Deterministic counts: requests per endpoint, cache, WAL, and the
    // router's per-backend calls (its fan-in runs after its snapshot).
    for stats in [&server_stats, &router_stats, &cluster] {
        for (op, n) in [("solve", 2), ("evaluate", 1), ("modelcheck", 1)] {
            assert_eq!(num_at(stats, &["endpoints", op, "count"]), n, "{op}");
        }
    }
    assert_eq!(num_at(&server_stats, &["endpoints", "register", "count"]), 1);
    assert_eq!(num_at(&router_stats, &["endpoints", "register", "count"]), 1);
    assert_eq!(num_at(&cluster, &["endpoints", "register", "count"]), 2);
    for stats in [&server_stats, &cluster] {
        assert_eq!(num_at(stats, &["cache", "hits"]), 1);
        assert_eq!(num_at(stats, &["cache", "misses"]), 1);
    }
    for stats in [&server_stats, &cluster] {
        let rate = stats.get("cache").and_then(|c| c.get("hit_rate"));
        assert_eq!(rate.and_then(Json::as_num), Some(0.5));
    }
    assert_eq!(server_stats.get("durable").and_then(Json::as_bool), Some(true));
    assert_eq!(num_at(&server_stats, &["wal_records_written"]), 2);
    let mut per_backend: Vec<usize> = router_stats
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backend rows")
        .iter()
        .map(|row| num_at(row, &["requests"]))
        .collect();
    per_backend.sort_unstable();
    assert_eq!(per_backend, [1, 5], "register on both replicas, reads on the primary");

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn router_counts_its_front_door_connection_lifecycle() {
    const MAX_LINE: usize = 4096;
    // The replies are the backend daemon's, byte for byte: counting
    // the closes must not change what a client sees.
    const OVERSIZE_REPLY: &str = "{\"resp\": \"error\", \"message\": \"malformed request: line exceeds 4096 bytes\", \"code\": null}\n";
    const OVER_LIMIT_REPLY: &str = "{\"resp\": \"pong\"}\n{\"resp\": \"pong\"}\n{\"resp\": \"pong\"}\n{\"resp\": \"bye\", \"reason\": \"request limit\"}\n";
    const TRUNCATED_REPLY: &str = "{\"resp\": \"error\", \"message\": \"malformed request: truncated frame (EOF before newline)\", \"code\": null}\n";
    const IDLE_REPLY: &str = "{\"resp\": \"bye\", \"reason\": \"idle timeout\"}\n";
    let (addrs, by_addr) = spawn_backends(1);
    let router = start_router(&RouterConfig {
        backends: addrs,
        replicas: 1,
        repair_interval: None,
        max_line_bytes: MAX_LINE,
        max_requests_per_conn: 3,
        idle_timeout: Duration::from_millis(300),
        ..RouterConfig::default()
    })
    .expect("router starts");

    // One oversize frame, then four pings against a budget of three.
    let oversize = raw_exchange(router.addr(), &vec![b'a'; 2 * MAX_LINE]);
    let over_limit = raw_exchange(router.addr(), "{\"op\":\"ping\"}\n".repeat(4).as_bytes());
    assert_eq!(oversize, OVERSIZE_REPLY);
    assert_eq!(over_limit, OVER_LIMIT_REPLY);
    // A frame cut short by the peer's half-close, then a connection
    // that says nothing at all.
    let truncated = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(router.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"{\"op\":\"ping\"}").expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read to EOF");
        reply
    };
    assert_eq!(truncated, TRUNCATED_REPLY);
    assert_eq!(raw_exchange(router.addr(), b""), IDLE_REPLY);

    let stats = Client::connect(router.addr())
        .expect("client connects")
        .stats()
        .expect("stats");
    assert_eq!(num_at(&stats, &["oversize_closes"]), 1);
    assert_eq!(num_at(&stats, &["over_limit_closes"]), 1);
    assert_eq!(num_at(&stats, &["idle_closes"]), 1);
    assert_eq!(num_at(&stats, &["truncated_frames"]), 1);
    assert_eq!(num_at(&stats, &["connections"]), 5);

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

/// A `register` → `solve` → `evaluate` window written to the router in
/// one `write`: router connections are request/reply, so each request
/// takes effect before the next is read, and the three replies come
/// back correct and in order. The evaluate names the hypothesis id the
/// solve will be given, computed client-side from the request.
#[test]
fn pipelined_register_solve_evaluate_window_is_answered_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let (addrs, by_addr) = spawn_backends(2);
    let router = router_over(addrs, 2);
    let text = io::to_text(&colored_path(8, 4));
    let structure = folearn_server::fnv1a64(text.as_bytes());
    let examples = vec![
        WireExample {
            tuple: vec![0],
            label: false,
        },
        WireExample {
            tuple: vec![4],
            label: true,
        },
    ];
    let id = hypothesis_id(structure, &examples, 1, 0, 0.25, &SolverSpec::default_brute());
    let window = [
        Request::Register { graph_text: text },
        Request::Solve {
            structure,
            examples,
            ell: 1,
            q: 0,
            epsilon: 0.25,
            solver: SolverSpec::default_brute(),
            trace: None,
        },
        Request::Evaluate {
            structure,
            hypothesis: id,
            tuples: vec![vec![0], vec![4]],
            labels: Some(vec![false, true]),
        },
    ];
    let blob: String = window.iter().map(|r| format!("{}\n", r.encode())).collect();
    let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(blob.as_bytes()).expect("one write");
    let mut reader = BufReader::new(stream);
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("a reply");
        Response::decode(line.trim_end()).expect("a protocol reply")
    };
    match reply() {
        Response::Registered {
            structure: s,
            fresh,
            ..
        } => {
            assert_eq!(s, structure);
            assert!(fresh);
        }
        other => panic!("reply 1: expected registered, got {other:?}"),
    }
    match reply() {
        Response::Solved(outcome) => {
            assert_eq!(outcome.hypothesis.id, id);
            assert_eq!(outcome.error, 0.0);
        }
        other => panic!("reply 2: expected solved, got {other:?}"),
    }
    match reply() {
        Response::Predictions { labels, error, .. } => {
            assert_eq!(labels, vec![false, true]);
            assert_eq!(error, Some(0.0));
        }
        other => panic!("reply 3: expected predictions, got {other:?}"),
    }

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}

#[test]
fn router_rows_carry_histograms_that_match_their_counts() {
    let (addrs, by_addr) = spawn_backends(2);
    let router = router_over(addrs, 2);
    let mut c = Client::connect(router.addr()).expect("client connects");
    let structure = c.register(&io::to_text(&colored_path(8, 4))).expect("register");
    let examples = vec![WireExample {
        tuple: vec![4],
        label: true,
    }];
    for _ in 0..3 {
        c.solve(structure, examples.clone(), 1, 0, 0.25, SolverSpec::default_brute())
            .expect("solve");
    }
    let stats = c.stats().expect("stats");

    // Front-door endpoint rows carry `hist`, so router latency merges
    // exactly, like a backend's.
    let solve = stats.get("endpoints").and_then(|e| e.get("solve")).expect("solve row");
    let hist = PowHistogram::from_wire_json(solve.get("hist").expect("hist")).expect("wire form");
    assert_eq!(hist.count() as usize, num_at(solve, &["count"]));
    assert_eq!(hist.count(), 3);

    // Every backend call is timed: each row's latency histogram counts
    // exactly its requests.
    let rows = stats.get("backends").and_then(Json::as_arr).expect("backend rows");
    assert_eq!(rows.len(), 2);
    for row in rows {
        let latency = row.get("latency").expect("latency block");
        let hist = PowHistogram::from_wire_json(latency.get("hist").expect("hist")).expect("wire form");
        assert_eq!(hist.count() as usize, num_at(row, &["requests"]), "{row:?}");
        assert_eq!(num_at(latency, &["count"]), num_at(row, &["requests"]));
    }
    assert!(rows.iter().map(|r| num_at(r, &["requests"])).sum::<usize>() >= 5);

    router.shutdown();
    for (_, h) in by_addr {
        h.shutdown();
    }
}
