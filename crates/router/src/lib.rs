//! `folearn-cluster` — a consistent-hash router in front of N
//! `folearn serve` backends.
//!
//! The van Bergerem–Grohe–Ritzert learning problem shards cleanly:
//! hypotheses and model checks depend only on the structure they were
//! asked about (and, by Gaifman locality, only on local neighbourhoods
//! within it), so independent structures can live on independent nodes
//! with no cross-talk. The router exploits that:
//!
//! * **Placement** ([`ring`]) — structures are placed on a consistent
//!   hash ring (virtual nodes, FNV-1a points) keyed by their existing
//!   content hash, and replicated onto the first `R` distinct backends
//!   clockwise from the key. Adding or removing a backend moves only
//!   `~1/N` of the keys.
//! * **Hedged reads** ([`router`]) — `solve`, `evaluate`, and
//!   `modelcheck` fire at the primary replica; if no reply arrives
//!   within the hedge delay, a hedge fires at the next replica and the
//!   first valid reply wins (the laggard's answer is discarded when it
//!   arrives). Failures walk the replica ladder, so a killed backend
//!   costs one retry, not the request.
//! * **Health** ([`health`]) — a backend failing repeatedly is ejected
//!   from rotation and re-probed occasionally; a successful probe
//!   restores it.
//! * **Anti-entropy** ([`router`], paced by [`health`]) — a background
//!   pass diffs each backend's structure hashes (`inventory` with
//!   `hypotheses: false`) against the router's placement table and
//!   re-seeds structures a replica has lost, so a restarted backend
//!   holds its structures before traffic finds the hole.
//!
//! The router speaks the *same* newline-delimited JSON protocol as the
//! backends on its front socket, so every existing client — the CLI,
//! the load generator, `folearn_hardness::oracle::RemoteOracle` —
//! works against a cluster unchanged. Replies gain a `provenance`
//! field naming the backend that actually answered; `register` acks
//! gain the replica list.
//!
//! Cross-backend answer identity rests on canonical type keys
//! (`folearn_types::canon`, surfaced as `type_keys` on wire
//! hypotheses): backends number types arena-relatively, but the
//! content hashes agree, so a reduction that groups oracle answers
//! stays bit-identical no matter which replica served each call.

pub mod health;
pub mod metrics;
pub mod ring;
pub mod router;

pub use ring::HashRing;
pub use router::{start, RouterConfig, RouterHandle};
