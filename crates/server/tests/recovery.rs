//! Crash-recovery loopback tests: a daemon with `--data-dir` must come
//! back from a restart with bit-identical state — same structure
//! registry, same hypothesis ids and predictions — without any client
//! re-registering, including after a torn WAL tail and after the
//! compaction of a log an older build wrote with duplicate records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use folearn_server::proto::{hypothesis_id, Json, Request};
use folearn_server::snapshot::{Durability, DurableRecord};
use folearn_server::wal::Wal;
use folearn_server::{
    start, Client, ClientApi, ServerConfig, SolverSpec, WireExample,
};

const GRAPH: &str = "colors Red Blue\nvertices 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\ncolor 0 Red\ncolor 2 Red\ncolor 4 Red\ncolor 1 Blue\ncolor 3 Blue\ncolor 5 Blue\n";

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "folearn-recovery-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample() -> Vec<WireExample> {
    (0..6u32)
        .map(|v| WireExample {
            tuple: vec![v],
            label: v % 2 == 0,
        })
        .collect()
}

fn durable_config(dir: &std::path::Path, snapshot_every: usize) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        snapshot_every,
        ..ServerConfig::default()
    }
}

fn stat_num(stats: &Json, key: &str) -> f64 {
    stats
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("stats key {key} missing or non-numeric"))
}

#[test]
fn restart_replays_registry_and_hypotheses_bit_identically() {
    let dir = fresh_dir("replay");

    // Session 1: register, learn under two configs, remember everything
    // a client could later depend on.
    let (structure, pre_inventory, outcome_a, outcome_b, predictions) = {
        let handle = start(&durable_config(&dir, 0)).expect("durable server starts");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let structure = client.register(GRAPH).expect("register");
        let outcome_a = client
            .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
            .expect("solve brute");
        let outcome_b = client
            .solve(structure, sample(), 1, 1, 0.0, SolverSpec::Nd)
            .expect("solve nd");
        assert_ne!(outcome_a.hypothesis.id, outcome_b.hypothesis.id);
        assert_eq!(
            outcome_a.hypothesis.id,
            hypothesis_id(
                structure,
                &sample(),
                1,
                1,
                0.0,
                &SolverSpec::default_brute()
            ),
            "a direct solve is named by its content address"
        );
        let tuples: Vec<Vec<u32>> = (0..6u32).map(|v| vec![v]).collect();
        let (predictions, _) = client
            .evaluate(structure, outcome_a.hypothesis.id, tuples, None)
            .expect("evaluate");
        let inventory = client.inventory().expect("inventory");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(stat_num(&stats, "wal_records_replayed"), 0.0);
        assert!(
            stat_num(&stats, "wal_records_written") >= 3.0,
            "register + two solves hit the WAL"
        );
        handle.shutdown();
        (structure, inventory, outcome_a, outcome_b, predictions)
    };

    // Session 2: same data dir, nobody re-registers anything.
    let handle = start(&durable_config(&dir, 0)).expect("restart replays");
    let mut client = Client::connect(handle.addr()).expect("reconnect");

    let post_inventory = client.inventory().expect("inventory after restart");
    assert_eq!(
        post_inventory, pre_inventory,
        "registry and hypothesis store survive the restart as-is"
    );

    // The pre-crash hypothesis id answers evaluate directly…
    let tuples: Vec<Vec<u32>> = (0..6u32).map(|v| vec![v]).collect();
    let (replayed_predictions, _) = client
        .evaluate(structure, outcome_a.hypothesis.id, tuples, None)
        .expect("evaluate pre-crash id after restart");
    assert_eq!(replayed_predictions, predictions, "bit-identical answers");

    // …and a repeated solve reconstructs the same hypothesis under the
    // same id, for both solver configs.
    for (spec, pre) in [
        (SolverSpec::default_brute(), &outcome_a),
        (SolverSpec::Nd, &outcome_b),
    ] {
        let again = client
            .solve(structure, sample(), 1, 1, 0.0, spec)
            .expect("re-solve after restart");
        assert_eq!(again.hypothesis.id, pre.hypothesis.id, "id survives");
        assert_eq!(again.hypothesis.params, pre.hypothesis.params);
        assert_eq!(again.hypothesis.types, pre.hypothesis.types);
        assert_eq!(again.hypothesis.type_keys, pre.hypothesis.type_keys);
        assert_eq!(again.error, pre.error);
    }

    // A fresh solve after the restart is named by its own content
    // address, distinct from both replayed ids.
    let fresh = client
        .solve(structure, sample(), 1, 2, 0.0, SolverSpec::default_brute())
        .expect("fresh solve after restart");
    assert_eq!(
        fresh.hypothesis.id,
        hypothesis_id(
            structure,
            &sample(),
            1,
            2,
            0.0,
            &SolverSpec::default_brute()
        )
    );
    assert_ne!(fresh.hypothesis.id, outcome_a.hypothesis.id);
    assert_ne!(fresh.hypothesis.id, outcome_b.hypothesis.id);

    let stats = client.stats().expect("stats after restart");
    assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(true));
    assert!(
        stat_num(&stats, "wal_records_replayed") >= 3.0,
        "register + two solves replayed"
    );
    assert_eq!(stat_num(&stats, "torn_tail_truncations"), 0.0);
    assert!(stats.get("recovery_ms").and_then(Json::as_num).is_some());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_truncated_and_counted() {
    let dir = fresh_dir("torn");
    let pre_inventory = {
        let handle = start(&durable_config(&dir, 0)).expect("durable server starts");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let structure = client.register(GRAPH).expect("register");
        client
            .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
            .expect("solve");
        let inventory = client.inventory().expect("inventory");
        handle.shutdown();
        inventory
    };

    // A crash mid-append: garbage half-frame at the WAL tail.
    let wal_path = dir.join("wal.log");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open wal");
        f.write_all(&[0x99, 0x12, 0x34]).expect("append torn tail");
    }
    let torn_len = std::fs::metadata(&wal_path).unwrap().len();

    let handle = start(&durable_config(&dir, 0)).expect("restart tolerates the tear");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    assert_eq!(client.inventory().expect("inventory"), pre_inventory);
    let stats = client.stats().expect("stats");
    assert_eq!(stat_num(&stats, "torn_tail_truncations"), 1.0);
    assert!(stat_num(&stats, "wal_records_replayed") >= 2.0);
    assert!(
        std::fs::metadata(&wal_path).unwrap().len() < torn_len,
        "the tear was physically truncated"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_evicted_re_solve_appends_nothing() {
    let dir = fresh_dir("evicted");
    let handle = start(&ServerConfig {
        cache_capacity: 1,
        ..durable_config(&dir, 0)
    })
    .expect("durable server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let structure = client.register(GRAPH).expect("register");
    let solve = |client: &mut Client, spec: SolverSpec| {
        client
            .solve(structure, sample(), 1, 1, 0.0, spec)
            .expect("solve")
    };
    let first = solve(&mut client, SolverSpec::default_brute());
    solve(&mut client, SolverSpec::Nd);
    let written = stat_num(&client.stats().expect("stats"), "wal_records_written");
    assert_eq!(written, 3.0, "the register and two solves");
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();

    // The second solve evicted the first from the one-entry cache, so
    // this re-runs the learner, but its id is already durable.
    let again = solve(&mut client, SolverSpec::default_brute());
    assert!(!again.cached, "the first outcome was evicted");
    assert_eq!(again.hypothesis.id, first.hypothesis.id);
    let stats = client.stats().expect("stats");
    assert_eq!(stat_num(&stats, "wal_records_written"), written);
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), wal_len);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_older_log_with_duplicates_is_compacted_at_restart() {
    let dir = fresh_dir("compact");
    let (structure, pre_inventory, pre) = {
        let handle = start(&durable_config(&dir, 0)).expect("durable server starts");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let structure = client.register(GRAPH).expect("register");
        let first = client
            .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
            .expect("solve 1");
        let second = client
            .solve(structure, sample(), 1, 1, 0.0, SolverSpec::Nd)
            .expect("solve 2");
        let inventory = client.inventory().expect("inventory");
        handle.shutdown();
        (structure, inventory, [first, second])
    };
    // An older build re-logged a solve on every cache miss: append the
    // first solve's frame again until dead frames (4) outnumber live
    // ones (the register and two solves).
    let wal_path = dir.join("wal.log");
    {
        let duplicate = DurableRecord::Solve {
            id: pre[0].hypothesis.id,
            request: Request::Solve {
                structure,
                examples: sample(),
                ell: 1,
                q: 1,
                epsilon: 0.0,
                solver: SolverSpec::default_brute(),
                trace: None,
            },
        };
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let mut wal = Wal::open(&wal_path, len).expect("open the WAL");
        for _ in 0..4 {
            wal.append(&duplicate.to_bytes()).expect("append");
        }
    }
    assert!(!dir.join("snapshot.log").exists());

    // The first restart replays all 7 frames and compacts; the second
    // loads the 3 live records from the snapshot. Both answer as before
    // the duplicates: same ids and the same arena-relative types.
    for (replayed, snapshot_loads) in [(7.0, 0.0), (3.0, 1.0)] {
        let handle = start(&durable_config(&dir, 2)).expect("restart");
        assert!(
            std::fs::metadata(dir.join("snapshot.log")).unwrap().len() > 0,
            "the restart wrote a snapshot"
        );
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0, "and emptied the WAL");
        let mut client = Client::connect(handle.addr()).expect("reconnect");
        assert_eq!(client.inventory().expect("inventory"), pre_inventory);
        let stats = client.stats().expect("stats");
        assert_eq!(stat_num(&stats, "wal_records_replayed"), replayed);
        assert_eq!(stat_num(&stats, "snapshot_loads"), snapshot_loads);
        for (spec, pre) in [SolverSpec::default_brute(), SolverSpec::Nd]
            .into_iter()
            .zip(&pre)
        {
            let again = client
                .solve(structure, sample(), 1, 1, 0.0, spec)
                .expect("re-solve after the compacting restart");
            assert_eq!(again.hypothesis.id, pre.hypothesis.id);
            assert_eq!(again.hypothesis.types, pre.hypothesis.types);
            assert_eq!(again.hypothesis.type_keys, pre.hypothesis.type_keys);
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stat_num(&stats, "wal_records_written"), 0.0);
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_keeps_a_counter_id_answering_beside_the_content_address() {
    let dir = fresh_dir("legacyid");
    let structure = {
        let handle = start(&durable_config(&dir, 0)).expect("durable server starts");
        let structure = Client::connect(handle.addr())
            .expect("connect")
            .register(GRAPH)
            .expect("register");
        handle.shutdown();
        structure
    };
    // A solve logged under an id its request does not hash to, as a
    // counter-id build wrote it.
    let derived = hypothesis_id(structure, &sample(), 1, 1, 0.0, &SolverSpec::Nd);
    assert_ne!(derived, 1);
    {
        let (mut durable, _, _) = Durability::open(&dir, 1000).expect("open the data dir");
        durable
            .append(&DurableRecord::Solve {
                id: 1,
                request: Request::Solve {
                    structure,
                    examples: sample(),
                    ell: 1,
                    q: 1,
                    epsilon: 0.0,
                    solver: SolverSpec::Nd,
                    trace: None,
                },
            })
            .expect("append");
    }
    let handle = start(&durable_config(&dir, 0)).expect("a counter id does not fail startup");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let tuples: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
    let (by_counter, _) = client
        .evaluate(structure, 1, tuples.clone(), None)
        .expect("the logged id still answers");
    let (by_content, _) = client
        .evaluate(structure, derived, tuples, None)
        .expect("the content address answers");
    assert_eq!(by_counter, by_content, "both ids name one hypothesis");
    let fresh = client
        .solve(structure, sample(), 1, 1, 0.0, SolverSpec::Nd)
        .expect("re-solve");
    assert_eq!(fresh.hypothesis.id, derived, "a solve names the content address");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_dir_less_serving_stays_volatile() {
    // No data dir: nothing is written anywhere, and stats say so.
    let handle = start(&ServerConfig::default()).expect("volatile server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let structure = client.register(GRAPH).expect("register");
    client
        .solve(structure, sample(), 1, 1, 0.0, SolverSpec::default_brute())
        .expect("solve");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(false));
    assert_eq!(stat_num(&stats, "wal_records_written"), 0.0);
    assert_eq!(stat_num(&stats, "wal_records_replayed"), 0.0);
    handle.shutdown();
}
