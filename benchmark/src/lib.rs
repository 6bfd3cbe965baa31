//! The repository benchmark.
//!
//! Four seeded workloads drive in-process folearn daemons (started with
//! their shipped defaults) from one process with two client threads and
//! two connections:
//!
//! * `hot_rr` — cache-hot strict request/reply against one daemon: the
//!   front door (event loop, protocol, cache) does nearly all the work;
//! * `cold_learn` — distinct brute-force and nowhere-dense solves on
//!   sparse structures: the learners dominate;
//! * `reduction_cluster` — the Lemma 7 reduction through
//!   `RemoteOracle` against a router and three backends;
//! * `durable_mixed` — pipelined writes and reads against a durable
//!   daemon, then a restart on the same data directory.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! the benchmark's own spans and reports the per-layer metrics with a
//! "where the time goes" table. Every answer is checked against an
//! in-process reference. See `README.md` beside this crate.

pub mod daemons;
pub mod inputs;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use workloads::{run, Outcome, RunOptions, Workload};
