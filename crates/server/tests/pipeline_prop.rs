//! Property test for the event core's pipelining: a burst of valid
//! requests written as one pipelined blob must yield byte-identical
//! replies, in order, to the same requests issued strictly
//! request/reply against a second, identically prepared daemon.
//!
//! Determinism notes baked into the harness: both daemons run one pool
//! worker (so compute jobs execute in submission order and hypothesis
//! ids are assigned deterministically) and traces are off (span timings
//! are the only nondeterministic reply bytes). Duplicate solves inside
//! one burst are fair game either way: a pipelined duplicate planned
//! before its twin's result reaches the cache coalesces onto the
//! in-flight job and is replayed as a cache hit — exactly what the
//! sequential schedule sees. Warm solves pin the pre-cached path too.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{Request, SolverSpec, WireExample};
use folearn_server::{start, Client, ClientApi, ServerConfig, ServerHandle};
use proptest::collection;
use proptest::prelude::*;

const GRAPH: &str = "colors Red Blue\nvertices 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\ncolor 0 Red\ncolor 2 Red\ncolor 4 Red\ncolor 1 Blue\ncolor 3 Blue\ncolor 5 Blue\n";

/// The warm-solve pool: realisable "is it Red?" plus two other
/// labelings, all arity 1 on the 6-vertex path.
fn sample_pool() -> Vec<Vec<WireExample>> {
    (0..3u32)
        .map(|variant| {
            (0..6u32)
                .map(|v| WireExample {
                    tuple: vec![v],
                    label: (v + variant) % 2 == 0,
                })
                .collect()
        })
        .collect()
}

fn brute(engine: EvalEngine) -> SolverSpec {
    SolverSpec::Brute {
        mode: folearn::fit::TypeMode::Global,
        threads: None,
        prune: true,
        engine,
    }
}

fn engine_of(bit: bool) -> EvalEngine {
    if bit {
        EvalEngine::Vm
    } else {
        EvalEngine::TreeWalk
    }
}

/// One burst item, independent of schedule position.
#[derive(Clone, Debug)]
enum Item {
    Ping,
    /// A solve from the warmed pool: a cache hit in both schedules.
    WarmSolve { sample: usize, vm: bool },
    /// A solve outside the warmed pool (nonzero epsilon keyed by
    /// `slot`): fresh on first appearance, and free to repeat within a
    /// burst — a repeat is a coalesced or cached hit in the pipelined
    /// schedule and a plain cache hit in the sequential one.
    FreshSolve { sample: usize, slot: usize, vm: bool },
    ModelCheck { formula: usize, vm: bool },
}

const FORMULAS: &[&str] = &[
    "exists x0. exists x1. E(x0, x1)",
    "forall x0. exists x1. E(x0, x1)",
    "exists x0. Red(x0)",
];

fn item_strategy() -> impl Strategy<Value = Item> {
    (0usize..4, 0usize..3, 0usize..2, 0u32..2).prop_map(|(kind, choice, slot, vm)| {
        let vm = vm == 1;
        match kind {
            0 => Item::Ping,
            1 => Item::WarmSolve { sample: choice, vm },
            2 => Item::FreshSolve {
                sample: choice,
                slot,
                vm,
            },
            _ => Item::ModelCheck {
                formula: choice % FORMULAS.len(),
                vm,
            },
        }
    })
}

/// Encode the burst. `structure` is the registered content hash; a
/// fresh solve's `slot` picks its epsilon (epsilon is part of the cache
/// key and any non-negative finite value is valid), keeping fresh
/// solves distinct from the warmed epsilon-0 pool while letting equal
/// `(sample, slot, vm)` items collide on purpose.
fn encode_burst(items: &[Item], structure: u64) -> Vec<String> {
    let pool = sample_pool();
    items
        .iter()
        .map(|item| match item {
            Item::Ping => Request::Ping.encode(),
            Item::WarmSolve { sample, vm } => Request::Solve {
                structure,
                examples: pool[*sample].clone(),
                ell: 1,
                q: 1,
                epsilon: 0.0,
                solver: brute(engine_of(*vm)),
                trace: None,
            }
            .encode(),
            Item::FreshSolve { sample, slot, vm } => Request::Solve {
                structure,
                examples: pool[*sample].clone(),
                ell: 1,
                q: 1,
                epsilon: (*slot as f64 + 1.0) * 1e-9,
                solver: brute(engine_of(*vm)),
                trace: None,
            }
            .encode(),
            Item::ModelCheck { formula, vm } => Request::ModelCheck {
                structure,
                formula: FORMULAS[*formula].to_string(),
                engine: engine_of(*vm),
                trace: None,
            }
            .encode(),
        })
        .collect()
}

/// Start a daemon, register the graph, and warm every (sample, engine)
/// solve the burst can repeat. A solve's engine is not part of its
/// cache key, so each sample's `vm` warm hits its `tree` warm's entry.
/// Returns the handle and structure hash.
fn prepared_daemon() -> (ServerHandle, u64) {
    let handle = start(&ServerConfig {
        workers: 1,
        trace: false,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let structure = client.register(GRAPH).expect("register");
    for sample in sample_pool() {
        for vm in [false, true] {
            let warm = client
                .solve(structure, sample.clone(), 1, 1, 0.0, brute(engine_of(vm)))
                .expect("warm solve");
            assert!(warm.cached || !vm, "the engine does not split the cache");
        }
    }
    (handle, structure)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn pipelined_burst_replies_match_sequential_request_reply(
        items in collection::vec(item_strategy(), 1..12)
    ) {
        // Pipelined schedule: one write, N ordered replies.
        let (event, structure) = prepared_daemon();
        let lines = encode_burst(&items, structure);
        let mut stream = TcpStream::connect(event.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let blob: String = lines.iter().map(|l| format!("{l}\n")).collect();
        stream.write_all(blob.as_bytes()).expect("burst write");
        let mut reader = BufReader::new(stream);
        let mut pipelined = Vec::with_capacity(lines.len());
        for _ in 0..lines.len() {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            pipelined.push(line);
        }
        drop(reader);
        event.shutdown();

        // Sequential schedule on a fresh daemon: same requests, one at
        // a time.
        let (sequential_daemon, structure2) = prepared_daemon();
        prop_assert_eq!(structure, structure2, "content hash is canonical");
        let mut stream = TcpStream::connect(sequential_daemon.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut sequential = Vec::with_capacity(lines.len());
        for line in &lines {
            stream.write_all(format!("{line}\n").as_bytes()).expect("write");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            sequential.push(reply);
        }
        drop(reader);
        drop(stream);
        sequential_daemon.shutdown();

        for (i, (p, s)) in pipelined.iter().zip(&sequential).enumerate() {
            prop_assert_eq!(p, s, "reply {} diverged for {:?}", i, items[i]);
        }
    }
}
