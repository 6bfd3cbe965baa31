//! Coloured-graph substrate for the `folearn` workspace.
//!
//! The paper ("On the Parameterized Complexity of Learning First-Order
//! Logic", van Bergerem–Grohe–Ritzert, PODS 2022) states all results for
//! undirected, simple, vertex-coloured graphs, viewed as relational
//! structures `G = (V(G), E(G), P_1(G), …, P_c(G))` over a vocabulary
//! `τ = {E, P_1, …, P_c}` with `E` binary (symmetric, irreflexive) and the
//! `P_j` unary. This crate provides exactly that structure, together with
//! every graph-level operation the paper's constructions need:
//!
//! * immutable CSR-backed [`Graph`]s with per-vertex colour bitsets and a
//!   shared [`Vocabulary`] ([`graph`], [`vocab`]);
//! * a mutable [`GraphBuilder`] ([`builder`]);
//! * induced subgraphs, disjoint unions (Lemma 7's `2ℓ` copies trick),
//!   colour expansions, and edge surgery (Lemma 16's construction)
//!   ([`ops`]);
//! * BFS distances, `r`-balls of vertices / tuples / sets, and connected
//!   components ([`bfs`]);
//! * deterministic and seeded workload generators ([`generators`]);
//! * the splitter game of Grohe–Kreutzer–Siebertz (the paper's Fact 4),
//!   including the modified radius-shrinking variant, with provably winning
//!   Splitter strategies for forests, bounded treedepth and bounded degree,
//!   plus adversarial Connector strategies ([`splitter`]);
//! * weak colouring numbers, the order-based certificate of
//!   nowhere-denseness ([`wcol`]);
//! * 1-WL colour refinement, the near-linear proxy for counting types
//!   ([`wl`]).

pub mod bfs;
pub mod builder;
pub mod generators;
pub mod graph;
pub mod io;
pub mod ops;
pub mod splitter;
pub mod vocab;
pub mod wcol;
pub mod wl;

pub use builder::GraphBuilder;
pub use graph::{Graph, VertexClasses, V};
pub use vocab::{ColorId, Vocabulary};
