//! The router spends no OS thread per front-door connection: opening
//! many idle connections to an in-process router leaves the process's
//! thread count where it was. (Its own test binary, so no concurrently
//! running test can move the count.)

use folearn_cluster::{start, RouterConfig};
use folearn_server::{Client, ClientApi};

const CONNECTIONS: usize = 128;

/// Allowed growth: thread-count noise, not a per-connection cost.
const SLACK: usize = 8;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn idle_front_door_connections_cost_no_threads() {
    // The backend is never dialled: pings are answered by the router.
    let router = start(&RouterConfig {
        backends: vec!["127.0.0.1:1".to_string()],
        repair_interval: None,
        max_connections: 2 * CONNECTIONS,
        ..RouterConfig::default()
    })
    .expect("router starts");
    // One served connection first, so the baseline counts whatever the
    // router needs to serve anything at all.
    Client::connect(router.addr())
        .expect("connect")
        .ping()
        .expect("ping");
    let before = threads();

    let mut held = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        let mut c = Client::connect(router.addr()).expect("connect");
        // A served ping proves the router has adopted the connection.
        c.ping().unwrap_or_else(|e| panic!("conn {i}: {e}"));
        held.push(c);
    }
    let after = threads();
    assert!(
        after <= before + SLACK,
        "{CONNECTIONS} idle connections grew the process from {before} to {after} threads"
    );
    drop(held);
    router.shutdown();
}
