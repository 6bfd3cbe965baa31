//! `folearn-server` — learning-as-a-service for FO-ERM.
//!
//! A small daemon that serves the workspace's learners over TCP with a
//! newline-delimited JSON protocol (hand-rolled codec; the build is
//! offline and the workspace has no serde):
//!
//! * [`proto`] — wire format: framing, the [`proto::Json`] value type,
//!   request/response envelopes, FNV-1a content hashing;
//! * [`server`] — the daemon: structure registry, bounded worker pool
//!   dispatch, sharded LRU result cache, metrics, graceful shutdown;
//! * [`event_loop`] — the one connection core of both this daemon and
//!   the cluster router: nonblocking readiness shards
//!   (epoll and an eventfd waker, Linux-only) with per-connection
//!   read/write buffers, pipelined frame decoding, and ordered response
//!   slots completed from pool callbacks; [`framing`] holds the
//!   connection limits and lifecycle events it reports;
//! * [`client`] — a blocking typed client, with optional deadlines
//!   ([`client::ClientConfig`]) and a retrying wrapper
//!   ([`client::RetryingClient`]) that reconnects and re-sends under a
//!   deterministic backoff policy;
//! * [`wal`] / [`snapshot`] — durable state behind `serve --data-dir`:
//!   an append-only fsync'd write-ahead log that holds each structure
//!   and hypothesis derivation once (compacted only where an older
//!   build left duplicates), replayed on startup into bit-identical
//!   pre-crash state;
//! * [`chaos`] — a deterministic fault-injection proxy (drop / delay /
//!   truncate / garble / reset frames under a seeded RNG; the fault
//!   tests drive the reduction through it);
//! * [`cache`], [`pool`] — the daemon's moving parts, exposed for
//!   reuse and testing (its metrics are a [`folearn_obs::Registry`]);
//!   [`pool::ElasticPool`] runs the router's blocking backend calls;
//! * [`loadgen`] — a deterministic load generator (the benchmark, the
//!   `folearn loadgen` subcommand and tier-1's loadgen smokes).
//!
//! # Why a server?
//!
//! The ERM oracle of the hardness reduction (Lemma 7) is exactly a
//! request/response interface: the reduction asks "solve this training
//! sequence on this structure" many times, often repeating instances
//! across levels. Serving that interface over a socket (a) makes the
//! oracle a process boundary, so learners can run on a different
//! machine or with different resource limits than the reduction, and
//! (b) makes repeated instances visible to a result cache keyed by
//! the hash of `(structure, sample, solver config)`, which is also the
//! hypothesis id ([`proto::hypothesis_id`]) — and because the brute-force
//! engine is deterministic, cached answers are *identical* to fresh
//! ones, so `folearn_hardness::oracle::RemoteOracle` against a loopback
//! daemon reproduces the in-process reduction bit for bit.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod event_loop;
pub mod framing;
pub mod loadgen;
pub mod pool;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use chaos::{ChaosConfig, ChaosProxy, Direction, FaultKind};
pub use client::{
    Client, ClientApi, ClientConfig, ClientError, RetryPolicy, RetryingClient, TransportStats,
};
pub use loadgen::{run_load, run_load_multi, LoadgenConfig, LoadReport};
pub use proto::{
    fnv1a64, hex64, hypothesis_id, parse_hex64, Json, ProtoError, Request, Response, SolveOutcome, SolverSpec,
    TraceContext, WireBinding, WireExample, WireHypothesis, WireProvenance,
};
pub use server::{start, ServerConfig, ServerHandle};
