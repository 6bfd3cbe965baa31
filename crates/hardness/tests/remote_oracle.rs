//! Acceptance test: the Lemma 7 reduction driven by a `RemoteOracle`
//! against a live loopback folearn daemon produces *bit-identical*
//! model-checking behaviour to the in-process `BruteForceOracle` —
//! same verdicts, same oracle-call counts, same realisability split,
//! same representative-set trace — and the daemon's result cache
//! absorbs the reduction's repeated instances.

use folearn_graph::{generators, ColorId, Graph, Vocabulary};
use folearn_hardness::oracle::{BruteForceOracle, ErmOracle, RemoteOracle};
use folearn_hardness::reduction::model_check_via_erm;
use folearn_logic::{eval, parse};
use folearn_server::{start, ChaosConfig, ChaosProxy, Client, ClientApi, ClientConfig, Direction, FaultKind, RetryPolicy, ServerConfig};

fn colored_path(n: usize, stride: usize) -> Graph {
    let g = generators::path(n, Vocabulary::new(["Red"]));
    generators::periodically_colored(&g, ColorId(0), stride)
}

#[test]
fn remote_reduction_is_bit_identical_to_in_process() {
    let handle = start(&ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let sentences = [
        "exists x0. Red(x0)",
        "forall x0. Red(x0)",
        "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
        "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
        "(exists x0. Red(x0)) & !(forall x0. Red(x0))",
    ];

    let mut remote = RemoteOracle::connect(addr).expect("oracle connects");
    for s in sentences {
        let phi = parse(s, &vocab).unwrap();
        let direct = eval::models(&g, &phi);

        let mut local = BruteForceOracle::new();
        let local_report = model_check_via_erm(&g, &phi, &mut local);
        let remote_report = model_check_via_erm(&g, &phi, &mut remote);

        assert_eq!(remote_report.result, direct, "remote verdict wrong on {s}");
        assert_eq!(
            remote_report.result, local_report.result,
            "verdict mismatch on {s}"
        );
        assert_eq!(
            remote_report.oracle_calls, local_report.oracle_calls,
            "call-count mismatch on {s}"
        );
        assert_eq!(
            remote_report.realizable_calls, local_report.realizable_calls,
            "realisability split mismatch on {s}"
        );
        assert_eq!(
            remote_report.representative_set_sizes, local_report.representative_set_sizes,
            "Ramsey grouping diverged on {s} — key partitions are not identical"
        );
        assert_eq!(remote_report.max_depth, local_report.max_depth);
    }

    // The reduction re-queries identical pair instances across sentences
    // over the same structure: the daemon's result cache must have
    // absorbed some of them.
    let mut probe = Client::connect(addr).expect("probe connects");
    let stats = probe.stats().expect("stats");
    let cache = stats.get("cache").expect("cache block");
    let hits = cache.get("hits").unwrap().as_usize().unwrap();
    let hit_rate = cache.get("hit_rate").unwrap().as_num().unwrap();
    assert!(hits > 0, "no cache hits across repeated oracle calls");
    assert!(hit_rate > 0.0);

    handle.shutdown();
}

#[test]
fn remote_answers_predict_like_local_ones() {
    use folearn::{ErmInstance, TrainingSequence};
    use folearn_graph::V;

    let handle = start(&ServerConfig::default()).expect("server starts");
    let g = colored_path(8, 4);

    let mut local = BruteForceOracle::new();
    let mut remote = RemoteOracle::connect(handle.addr()).expect("oracle connects");

    let mk = || TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(1)], true)]);
    let local_ans = local.solve(&ErmInstance::new(&g, mk(), 1, 0, 0, 0.25));
    let remote_ans = remote.solve(&ErmInstance::new(&g, mk(), 1, 0, 0, 0.25));

    assert_eq!(local_ans.realizable, remote_ans.realizable);
    assert_eq!(local_ans.params(), remote_ans.params());
    for v in g.vertices() {
        assert_eq!(
            local_ans.predict(&g, &[v]),
            remote_ans.predict(&g, &[v]),
            "prediction mismatch at {v}"
        );
    }

    // Key structure: equal instances share a key; the instance with the
    // opposite labelling gets a different predictor key partition than
    // an identical repeat.
    let repeat = remote.solve(&ErmInstance::new(&g, mk(), 1, 0, 0, 0.25));
    assert_eq!(remote_ans.key, repeat.key, "identical instances, same key");
    assert_eq!(remote.calls(), 2);
    assert_eq!(remote.realizable_calls(), 2);

    handle.shutdown();
}

/// The acceptance criterion of the fault-tolerance layer: under every
/// fault mode the reduction completes via retries and its verdict,
/// call counts, and representative-set trace are *bit-identical* to the
/// in-process run. Retry-safety rests on idempotence: a re-sent solve
/// is answered by the deterministic engine (or its cache) with the same
/// outcome, so the key partition the Ramsey grouping consumes cannot
/// diverge, no matter which frames the path mangled.
#[test]
fn reduction_survives_an_unreliable_path_bit_identically() {
    use std::time::Duration;

    let g = colored_path(7, 3);
    let vocab = g.vocab().as_ref().clone();
    let sentences = [
        "exists x0. Red(x0) & exists x1. E(x0, x1) & Red(x1)",
        "forall x0. Red(x0) -> exists x1. E(x0, x1) & !Red(x1)",
        "(exists x0. Red(x0)) & !(forall x0. Red(x0))",
    ];
    let deadline = Duration::from_millis(250);

    // Drop and delay need low rates (every fault costs a read deadline);
    // truncate and garble fail fast, so they can fault more often.
    for (kind, rate) in [
        (FaultKind::Drop, 0.01),
        (FaultKind::Delay, 0.01),
        (FaultKind::Truncate, 0.08),
        (FaultKind::Garble, 0.15),
    ] {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let proxy = ChaosProxy::start(
            handle.addr(),
            ChaosConfig {
                kind,
                rate,
                // Past the deadline: a delayed frame times the call out
                // instead of merely slowing it down.
                delay: deadline + Duration::from_millis(150),
                direction: Direction::Both,
                seed: 99,
            },
        )
        .expect("proxy starts");
        let mut remote = RemoteOracle::connect_with(
            proxy.addr(),
            ClientConfig::with_deadline(deadline),
            RetryPolicy {
                max_retries: 12,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(40),
                seed: 1,
            },
        )
        .expect("oracle connects through the proxy");

        let mode = kind.name();
        for s in sentences {
            let phi = parse(s, &vocab).unwrap();
            let mut local = BruteForceOracle::new();
            let local_report = model_check_via_erm(&g, &phi, &mut local);
            let remote_report = model_check_via_erm(&g, &phi, &mut remote);
            assert_eq!(
                remote_report.result,
                eval::models(&g, &phi),
                "[{mode}] verdict wrong on {s}"
            );
            assert_eq!(
                remote_report.oracle_calls, local_report.oracle_calls,
                "[{mode}] call-count mismatch on {s}"
            );
            assert_eq!(
                remote_report.realizable_calls, local_report.realizable_calls,
                "[{mode}] realisability split mismatch on {s}"
            );
            assert_eq!(
                remote_report.representative_set_sizes, local_report.representative_set_sizes,
                "[{mode}] Ramsey grouping diverged on {s}"
            );
            assert_eq!(
                remote_report.max_depth, local_report.max_depth,
                "[{mode}] depth on {s}"
            );
        }

        assert!(proxy.faults_injected() > 0, "[{mode}] the proxy never faulted");
        let ts = remote.transport_stats();
        assert!(ts.retries > 0, "[{mode}] survived faults without retrying?");

        proxy.shutdown();
        handle.shutdown();
    }
}
