//! Seeded inputs: structures, labelled samples, sentences, and the
//! per-client request schedules of every workload.
//!
//! Everything here is a pure function of the seed, and the daemons only
//! ever see what these functions produce. Requests are built before any
//! daemon exists: structure addresses are content hashes computed on
//! the client, so a schedule never waits on a reply. The one value only
//! a daemon can supply, a hypothesis id, is written as a *slot* (the
//! index of the warm-up solve that produces it) and bound to the real
//! id after set-up ([`bind_hypotheses`]).

use std::collections::HashSet;

use folearn_graph::{generators, io, Graph, Vocabulary, V};
use folearn_logic::random::{random_formula, RandomFormulaConfig};
use folearn_logic::vm::EvalEngine;
use folearn_logic::{eval, parser, Formula};
use folearn_server::{fnv1a64, Request, SolverSpec, WireExample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client threads, and connections, of every workload's load.
pub const CLIENTS: usize = 2;

/// The one-colour vocabulary every workload structure uses.
pub fn vocab() -> Vocabulary {
    Vocabulary::new(["Red"])
}

/// A structure as a client ships it: the graph, its wire text, and the
/// content address the daemon will file it under.
pub struct Structure {
    /// The parsed graph (for in-process reference answers).
    pub graph: Graph,
    /// Wire text (`folearn_graph::io` exchange format).
    pub text: String,
    /// FNV-1a hash of the canonical text: the daemon's address for it.
    pub hash: u64,
}

impl Structure {
    /// Wrap a generated graph.
    pub fn new(graph: Graph) -> Self {
        let text = io::to_text(&graph);
        let canonical = io::to_text(&io::parse_graph(&text).expect("generated text parses"));
        let hash = fnv1a64(canonical.as_bytes());
        Self { graph, text, hash }
    }
}

/// A random recursive tree with a random red colouring.
pub fn red_tree(n: usize, seed: u64) -> Graph {
    generators::randomly_colored(
        &generators::random_tree(n, vocab(), seed),
        0.3,
        seed ^ 0x5eed,
    )
}

/// A random graph of maximum degree 3 with a random red colouring.
pub fn red_sparse(n: usize, seed: u64) -> Graph {
    let g = generators::bounded_degree_random(n, 3, 0.9, vocab(), seed);
    generators::randomly_colored(&g, 0.3, seed ^ 0x5eed)
}

/// A planted unary target of quantifier rank 1 that splits `g`: at
/// least a fifth of the vertices on each side, so samples carry signal.
pub fn planted_target(g: &Graph, seed: u64) -> Formula {
    let cfg = RandomFormulaConfig {
        free_vars: 1,
        quantifier_rank: 1,
        ..Default::default()
    };
    let n = g.num_vertices();
    (0..)
        .map(|i| random_formula(g.vocab(), &cfg, seed.wrapping_mul(7919).wrapping_add(i)))
        .find(|phi| {
            let pos = g
                .vertices()
                .filter(|&v| eval::satisfies(g, phi, &[v]))
                .count();
            pos * 5 >= n && (n - pos) * 5 >= n
        })
        .expect("some seed splits the structure")
}

/// A sentence of quantifier rank exactly `rank`.
pub fn sentence(rank: usize, seed: u64) -> Formula {
    let cfg = RandomFormulaConfig {
        free_vars: 0,
        quantifier_rank: rank,
        ..Default::default()
    };
    (0..)
        .map(|i| random_formula(&vocab(), &cfg, seed.wrapping_mul(104_729).wrapping_add(i)))
        .find(|phi| phi.is_sentence() && phi.quantifier_rank() == rank)
        .expect("some seed yields a sentence")
}

/// How a sample's labels deviate from its planted target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Noise {
    /// This many labels flipped, at seeded positions of distinct
    /// vertices. With `k ≤ ℓ` the instance stays realisable (a parameter
    /// can pin each flipped vertex), so brute force stops at the first
    /// perfect fit; with `k > ℓ` it may not be.
    Flips(usize),
    /// One vertex drawn twice with opposite labels, plus one flip
    /// elsewhere. No hypothesis fits both copies, so brute force sweeps
    /// all `n^ℓ` parameter tuples.
    Conflict,
}

impl Noise {
    /// The noise patterns `cold_learn` deals in turn: 0–2 flips as
    /// independent 10% noise gives them, plus a repeated draw with
    /// opposite labels. About 1.25 wrong labels per sample, 10% of the
    /// mean sample size of 12.
    pub const DECK: [Noise; 4] = [
        Noise::Flips(0),
        Noise::Flips(1),
        Noise::Flips(2),
        Noise::Conflict,
    ];
}

/// Samples of `hot_rr` and `durable_mixed` are clean: their solves stop
/// at the first parameter, so neither set-up time nor the cost of a
/// durable write depends on where a flipped label sits, and the front
/// door and the WAL stay what those workloads measure.
const CLEAN: Noise = Noise::Flips(0);

/// `m` examples labelled by `target` and corrupted by `noise`, on
/// seeded vertices (distinct, apart from the repeat of a conflict).
pub fn noisy_sample(
    g: &Graph,
    target: &Formula,
    m: usize,
    noise: Noise,
    rng: &mut StdRng,
) -> Vec<WireExample> {
    let n = g.num_vertices() as u32;
    let mut vertices: Vec<u32> = Vec::with_capacity(m);
    while vertices.len() < m {
        let v = rng.random_range(0..n);
        if !vertices.contains(&v) {
            vertices.push(v);
        }
    }
    let mut examples: Vec<WireExample> = vertices
        .into_iter()
        .map(|v| WireExample {
            tuple: vec![v],
            label: eval::satisfies(g, target, &[V(v)]),
        })
        .collect();
    let mut positions: Vec<usize> = (0..m).collect();
    let flips = match noise {
        Noise::Flips(k) => k,
        Noise::Conflict => {
            let copy = rng.random_range(0..m - 1);
            examples[m - 1] = WireExample {
                tuple: examples[copy].tuple.clone(),
                label: !examples[copy].label,
            };
            // Flipping either copy would end the conflict.
            positions.retain(|&i| i != copy && i != m - 1);
            1
        }
    };
    shuffle(&mut positions, rng);
    for &i in positions.iter().take(flips) {
        examples[i].label = !examples[i].label;
    }
    examples
}

/// The brute-force solver of Proposition 11 as the daemon ships it,
/// with the given evaluation engine.
pub fn brute(engine: EvalEngine) -> SolverSpec {
    let mut spec = SolverSpec::default_brute();
    if let SolverSpec::Brute { engine: e, .. } = &mut spec {
        *e = engine;
    }
    spec
}

/// A `solve` request with no slack and no trace context.
pub fn solve(
    structure: u64,
    examples: Vec<WireExample>,
    ell: usize,
    q: usize,
    solver: SolverSpec,
) -> Request {
    Request::Solve {
        structure,
        examples,
        ell,
        q,
        epsilon: 0.0,
        solver,
        trace: None,
    }
}

/// Point every `evaluate` request at the id the daemon assigned to its
/// warm slot (`plan` says which slot each request uses, so binding
/// again after another set-up is safe).
pub fn bind_hypotheses(schedule: &mut [Request], plan: &[Op], ids: &[u64]) {
    for (req, op) in schedule.iter_mut().zip(plan) {
        if let (Request::Evaluate { hypothesis, .. }, Op::Evaluate(slot, _)) = (req, op) {
            *hypothesis = ids[*slot];
        }
    }
}

/// Unary tuples on `count` random vertices of an `n`-vertex structure.
fn tuples(n: usize, count: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| vec![rng.random_range(0..n as u32)])
        .collect()
}

/// Shuffle in place (Fisher–Yates on the seeded stream).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// What a scheduled request asks, for checking its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A solve of warm slot `s`: a cache hit once set-up has run.
    WarmSolve(usize),
    /// An evaluate of warm slot `s`'s hypothesis on tuple set `t`.
    Evaluate(usize, usize),
    /// A model check of sentence `k`.
    ModelCheck(usize),
    /// A liveness ping.
    Ping,
    /// A register of a new structure with this content hash.
    Register(u64),
    /// A solve of a sample no earlier request used.
    FreshSolve,
}

// ---------------------------------------------------------------------------
// hot_rr
// ---------------------------------------------------------------------------

/// Warm-up samples per client on `hot_rr` and `durable_mixed`.
pub const WARM_PER_CLIENT: usize = 4;
/// Distinct evaluate tuple sets per client.
pub const TUPLESETS_PER_CLIENT: usize = 32;

/// Inputs of `hot_rr`: one 64-vertex red tree, warm samples, model
/// checking sentences, and a strict request/reply mix per client.
pub struct HotInputs {
    /// The one structure.
    pub structure: Structure,
    /// Sentences of rank 1 and 2, for model checking.
    pub sentences: Vec<Formula>,
    /// Warm samples; slot `c·4 + j` is client `c`'s `j`-th.
    pub samples: Vec<Vec<WireExample>>,
    /// Evaluate tuple sets; client `c` owns `c·32 … c·32 + 31`.
    pub tuplesets: Vec<Vec<Vec<u32>>>,
    /// Requests per client; `evaluate` requests carry a warm slot until
    /// [`bind_hypotheses`].
    pub schedules: Vec<Vec<Request>>,
    /// What each scheduled request asks, parallel to `schedules`.
    pub plans: Vec<Vec<Op>>,
}

/// `solve` / `evaluate` / `modelcheck` / `ping` with weights
/// 50 / 20 / 20 / 10, `per_client` requests per client.
pub fn hot_rr(seed: u64, per_client: usize) -> HotInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4807);
    let structure = Structure::new(red_tree(64, seed));
    let target = planted_target(&structure.graph, seed);
    let sentences: Vec<Formula> = (0..6)
        .map(|i| sentence(1 + i % 2, seed * 31 + i as u64))
        .collect();
    let sentence_texts: Vec<String> = sentences
        .iter()
        .map(|phi| parser::render(phi, &vocab()))
        .collect();
    let samples: Vec<Vec<WireExample>> = (0..CLIENTS * WARM_PER_CLIENT)
        .map(|_| {
            let m = rng.random_range(8..=12usize);
            noisy_sample(&structure.graph, &target, m, CLEAN, &mut rng)
        })
        .collect();
    let tuplesets: Vec<Vec<Vec<u32>>> = (0..CLIENTS * TUPLESETS_PER_CLIENT)
        .map(|_| tuples(64, 4, &mut rng))
        .collect();
    let mut schedules: Vec<Vec<Request>> = vec![Vec::new(); CLIENTS];
    let mut plans: Vec<Vec<Op>> = vec![Vec::new(); CLIENTS];
    for c in 0..CLIENTS {
        for _ in 0..per_client {
            let roll = rng.random_range(0..100u32);
            let slot = c * WARM_PER_CLIENT + rng.random_range(0..WARM_PER_CLIENT);
            let (req, op) = if roll < 50 {
                let req = solve(
                    structure.hash,
                    samples[slot].clone(),
                    1,
                    1,
                    SolverSpec::default_brute(),
                );
                (req, Op::WarmSolve(slot))
            } else if roll < 70 {
                let set = c * TUPLESETS_PER_CLIENT + rng.random_range(0..TUPLESETS_PER_CLIENT);
                let req = Request::Evaluate {
                    structure: structure.hash,
                    hypothesis: slot as u64,
                    tuples: tuplesets[set].clone(),
                    labels: None,
                };
                (req, Op::Evaluate(slot, set))
            } else if roll < 90 {
                let k = rng.random_range(0..sentences.len());
                let req = Request::ModelCheck {
                    structure: structure.hash,
                    formula: sentence_texts[k].clone(),
                    engine: EvalEngine::TreeWalk,
                    trace: None,
                };
                (req, Op::ModelCheck(k))
            } else {
                (Request::Ping, Op::Ping)
            };
            schedules[c].push(req);
            plans[c].push(op);
        }
    }
    HotInputs {
        structure,
        sentences,
        samples,
        tuplesets,
        schedules,
        plans,
    }
}

// ---------------------------------------------------------------------------
// cold_learn
// ---------------------------------------------------------------------------

/// Inputs of `cold_learn`: 16 nowhere-dense structures and a stream of
/// pairwise-distinct solves over them.
pub struct ColdInputs {
    /// Random trees (even index) and degree-3 graphs (odd), n 48–128.
    pub structures: Vec<Structure>,
    /// The planted target labelling each structure's samples.
    pub targets: Vec<Formula>,
    /// Solve requests per client.
    pub schedules: Vec<Vec<Request>>,
}

/// The solver mix of `cold_learn`, one cycle of 40 `(ℓ, q, solver)`
/// configurations: 70% brute force over ℓ∈{1,2} × q∈{1,2}, 30% the
/// nowhere-dense learner with ℓ = 1 and q∈{1,2}. Rank 2 costs 10–100×
/// rank 1, so it gets a tenth of the slots: enough that the p99 lands
/// inside the rank-2 tail, few enough that a run holds the thousand
/// requests a p99 needs to have ten samples beyond it. Rank-1
/// brute-force solves are split evenly between the two evaluation
/// engines; rank-2 ones use the tree-walker, because the VM engine
/// cross-validates the materialised hypothesis and a rank-2 one takes
/// seconds. The order spreads the costly slots over the cycle.
fn cold_configs() -> Vec<(usize, usize, SolverSpec)> {
    let (tree, vm) = (brute(EvalEngine::TreeWalk), brute(EvalEngine::Vm));
    let first = [
        (1, 1, tree.clone()),
        (2, 1, tree.clone()),
        (1, 1, SolverSpec::Nd),
        (1, 1, vm.clone()),
        (2, 1, vm.clone()),
        (1, 2, tree.clone()),
        (1, 1, tree.clone()),
        (2, 1, tree.clone()),
        (1, 2, SolverSpec::Nd),
        (1, 1, SolverSpec::Nd),
        (1, 1, vm.clone()),
        (2, 1, vm.clone()),
        (1, 1, tree.clone()),
        (2, 1, tree.clone()),
        (1, 1, SolverSpec::Nd),
        (2, 2, tree),
        (1, 1, vm.clone()),
        (2, 1, vm),
        (1, 2, SolverSpec::Nd),
        (1, 1, SolverSpec::Nd),
    ];
    // The second half repeats the first at rank 1.
    let second: Vec<_> = first
        .iter()
        .map(|(ell, _, s)| (*ell, 1, s.clone()))
        .collect();
    first.into_iter().chain(second).collect()
}

/// Structures of `cold_learn`.
const COLD_STRUCTURES: usize = 16;
/// Configurations in one cycle of `cold_learn`.
const COLD_CONFIGS: usize = 40;

/// What request `k` of `cold_learn` asks, before the seed picks the
/// structures, vertices and flipped labels: `(configuration, structure,
/// sample size, noise)`. Each block of 16 rounds of the 40
/// configurations pairs every configuration with every structure once,
/// and gives it each noise pattern on four structures: two trees and
/// two degree-3 graphs, two of the smaller half and two of the larger.
/// Sample sizes cycle through 8–16. The mix, and with it a run's work,
/// is the same for every seed.
fn cold_slot(k: usize) -> (usize, usize, usize, Noise) {
    let (round, config) = (k / COLD_CONFIGS, k % COLD_CONFIGS);
    // 5 is a unit mod 16, so a block of 16 rounds meets each structure
    // once.
    let s = (5 * round + config) % COLD_STRUCTURES;
    let m = 8 + round % 9;
    let noise = Noise::DECK[(s + s / 8 + config + round / 16) % Noise::DECK.len()];
    (config, s, m, noise)
}

/// `total` distinct solves, dealt round-robin to the clients.
pub fn cold_learn(seed: u64, total: usize) -> ColdInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d);
    let structures: Vec<Structure> = (0..COLD_STRUCTURES)
        .map(|i| {
            let n = 48 + 80 * (i / 2) / 7;
            let s = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            Structure::new(if i % 2 == 0 {
                red_tree(n, s)
            } else {
                red_sparse(n, s)
            })
        })
        .collect();
    let targets: Vec<Formula> = structures
        .iter()
        .enumerate()
        .map(|(i, s)| planted_target(&s.graph, seed * 17 + i as u64))
        .collect();
    let mut schedules = vec![Vec::new(); CLIENTS];
    let configs = cold_configs();
    let mut seen = HashSet::new();
    for k in 0..total {
        let (config, si, m, noise) = cold_slot(k);
        let (ell, q, solver) = &configs[config];
        // Noise makes a sweep run until a parameter separates the wrong
        // labels, which may take the whole parameter range. At rank 2
        // each step types the whole sample at rank 2, so one noisy
        // solve can take seconds (up to 5 s at ℓ = 1 and n ≈ 100 on a
        // 2-core host) and decide a run's length alone: rank-2 samples
        // are clean. At ℓ = 2 two flips can need a late pair, and a
        // full sweep is n² steps: those slots get at most one flip,
        // which the pair (v0, flipped vertex) pins.
        let noise = match noise {
            _ if *q > 1 => Noise::Flips(0),
            Noise::Flips(2) | Noise::Conflict if *ell > 1 => Noise::Flips(1),
            other => other,
        };
        let s = &structures[si];
        let req = loop {
            let examples = noisy_sample(&s.graph, &targets[si], m, noise, &mut rng);
            let req = solve(s.hash, examples, *ell, *q, solver.clone());
            // Pairwise distinct, so every request misses the cache.
            if seen.insert(req.encode()) {
                break req;
            }
        };
        schedules[k % CLIENTS].push(req);
    }
    ColdInputs {
        structures,
        targets,
        schedules,
    }
}

// ---------------------------------------------------------------------------
// reduction_cluster
// ---------------------------------------------------------------------------

/// One model-checking question the reduction answers through the
/// cluster's ERM oracle.
pub struct Question {
    /// The graph.
    pub graph: Graph,
    /// The sentence to decide on it.
    pub sentence: Formula,
}

/// `per_client` questions per client: two in three ask a rank-2
/// sentence of a graph with 8–14 vertices, one in three a rank-3
/// sentence of an 8-vertex graph. The reduction's oracle calls grow
/// like `n^{2·rank}`; rank 3 on larger graphs makes single questions of
/// tens of thousands of calls, which would let one question decide a
/// run's work.
pub fn reduction(seed: u64, per_client: usize) -> Vec<Vec<Question>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ed0);
    (0..CLIENTS)
        .map(|_| {
            (0..per_client)
                .map(|i| {
                    let (rank, n) = if i % 3 == 2 {
                        (3, 8)
                    } else {
                        (2, rng.random_range(8..=14usize))
                    };
                    let gs = rng.random_range(0..u64::MAX);
                    let graph = if rng.random_bool(0.5) {
                        red_tree(n, gs)
                    } else {
                        red_sparse(n, gs)
                    };
                    Question {
                        graph,
                        sentence: sentence(rank, rng.random_range(0..u64::MAX)),
                    }
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// durable_mixed
// ---------------------------------------------------------------------------

/// Inputs of `durable_mixed`: a base structure with warm samples, and a
/// pipelined mix of writes and reads per client.
pub struct DurableInputs {
    /// The base structure every solve and evaluate targets.
    pub base: Structure,
    /// The planted target labelling its samples.
    pub target: Formula,
    /// Warm samples; slot `c·4 + j` is client `c`'s `j`-th.
    pub samples: Vec<Vec<WireExample>>,
    /// Evaluate tuple sets; client `c` owns `c·32 … c·32 + 31`.
    pub tuplesets: Vec<Vec<Vec<u32>>>,
    /// Requests per client; `evaluate` requests carry a warm slot until
    /// [`bind_hypotheses`].
    pub schedules: Vec<Vec<Request>>,
    /// What each scheduled request asks, parallel to `schedules`.
    pub plans: Vec<Vec<Op>>,
}

/// 30% register of a new small structure, 30% fresh solve (both are
/// WAL writes), 20% cache-hot solve, 20% evaluate on a warm hypothesis.
pub fn durable_mixed(seed: u64, per_client: usize) -> DurableInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0ab);
    let base = Structure::new(red_tree(32, seed));
    let target = planted_target(&base.graph, seed);
    let sample = |rng: &mut StdRng| noisy_sample(&base.graph, &target, 8, CLEAN, rng);
    let samples: Vec<Vec<WireExample>> = (0..CLIENTS * WARM_PER_CLIENT)
        .map(|_| sample(&mut rng))
        .collect();
    let tuplesets: Vec<Vec<Vec<u32>>> = (0..CLIENTS * TUPLESETS_PER_CLIENT)
        .map(|_| tuples(32, 4, &mut rng))
        .collect();
    let mut registered = HashSet::from([base.hash]);
    let mut solved: HashSet<String> = samples.iter().map(|s| format!("{s:?}")).collect();
    let mut schedules: Vec<Vec<Request>> = vec![Vec::new(); CLIENTS];
    let mut plans: Vec<Vec<Op>> = vec![Vec::new(); CLIENTS];
    for c in 0..CLIENTS {
        for _ in 0..per_client {
            let roll = rng.random_range(0..100u32);
            let slot = c * WARM_PER_CLIENT + rng.random_range(0..WARM_PER_CLIENT);
            let (req, op) = if roll < 30 {
                loop {
                    let n = rng.random_range(10..=20usize);
                    let s = Structure::new(red_tree(n, rng.random_range(0..u64::MAX)));
                    if registered.insert(s.hash) {
                        break (
                            Request::Register { graph_text: s.text },
                            Op::Register(s.hash),
                        );
                    }
                }
            } else if roll < 60 {
                loop {
                    let examples = sample(&mut rng);
                    if solved.insert(format!("{examples:?}")) {
                        let req = solve(base.hash, examples, 1, 1, SolverSpec::default_brute());
                        break (req, Op::FreshSolve);
                    }
                }
            } else if roll < 80 {
                let req = solve(
                    base.hash,
                    samples[slot].clone(),
                    1,
                    1,
                    SolverSpec::default_brute(),
                );
                (req, Op::WarmSolve(slot))
            } else {
                let set = c * TUPLESETS_PER_CLIENT + rng.random_range(0..TUPLESETS_PER_CLIENT);
                let req = Request::Evaluate {
                    structure: base.hash,
                    hypothesis: slot as u64,
                    tuples: tuplesets[set].clone(),
                    labels: None,
                };
                (req, Op::Evaluate(slot, set))
            };
            schedules[c].push(req);
            plans[c].push(op);
        }
    }
    DurableInputs {
        base,
        target,
        samples,
        tuplesets,
        schedules,
        plans,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Every request of a schedule, encoded as the wire lines a client
    /// sends: the form seed determinism is checked on.
    fn encode_all(schedules: &[Vec<Request>]) -> String {
        let mut out = String::new();
        for schedule in schedules {
            for req in schedule {
                out.push_str(&req.encode());
                out.push('\n');
            }
        }
        out
    }

    /// The reduction's inputs in wire form (graph text, sentence text), for
    /// the determinism check.
    fn encode_questions(questions: &[Vec<Question>]) -> String {
        let mut out = String::new();
        for q in questions.iter().flatten() {
            out.push_str(&io::to_text(&q.graph));
            out.push_str(&parser::render(&q.sentence, &vocab()));
            out.push('\n');
        }
        out
    }

    /// Every workload's encoded inputs for one seed.
    fn encoded(seed: u64) -> Vec<String> {
        vec![
            encode_all(&hot_rr(seed, 200).schedules),
            encode_all(&cold_learn(seed, 40).schedules),
            encode_questions(&reduction(seed, 4)),
            encode_all(&durable_mixed(seed, 200).schedules),
        ]
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules_and_another_seed_does_not() {
        let (a, b, c) = (encoded(1), encoded(1), encoded(2));
        for i in 0..a.len() {
            assert!(!a[i].is_empty());
            assert_eq!(a[i], b[i], "workload {i} not deterministic");
            assert_ne!(a[i], c[i], "workload {i} ignores the seed");
        }
    }

    #[test]
    fn hot_mix_and_cold_distinctness_hold() {
        let hot = hot_rr(3, 2000);
        let solves = hot.schedules[0]
            .iter()
            .filter(|r| matches!(r, Request::Solve { .. }))
            .count();
        assert!((900..1100).contains(&solves), "{solves} solves of 2000");
        let cold = cold_learn(3, 160);
        let lines: HashSet<String> = cold
            .schedules
            .iter()
            .flatten()
            .map(Request::encode)
            .collect();
        assert_eq!(lines.len(), 160);
        let nd = cold
            .schedules
            .iter()
            .flatten()
            .filter(|r| {
                matches!(
                    r,
                    Request::Solve {
                        solver: SolverSpec::Nd,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(nd, 48, "four rounds hold 4 × 12 nd solves");
    }

    #[test]
    fn cold_slots_pair_every_configuration_with_every_structure_and_noise() {
        let mut pairs = HashSet::new();
        let mut noise_on: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for k in 0..COLD_CONFIGS * COLD_STRUCTURES {
            let (config, s, m, noise) = cold_slot(k);
            assert!((8..=16).contains(&m));
            assert!(pairs.insert((config, s)), "pair ({config}, {s}) twice");
            let idx = Noise::DECK.iter().position(|n| *n == noise).unwrap();
            noise_on.entry((config, idx)).or_default().push(s);
        }
        assert_eq!(pairs.len(), COLD_CONFIGS * COLD_STRUCTURES);
        let configs = cold_configs();
        assert_eq!(configs.len(), COLD_CONFIGS);
        let rank2 = configs.iter().filter(|c| c.1 == 2).count();
        let nd = configs
            .iter()
            .filter(|c| matches!(c.2, SolverSpec::Nd))
            .count();
        assert_eq!((rank2, nd), (4, 12));
        for ((config, idx), structures) in &noise_on {
            // Even indices are trees, the upper half the larger ones.
            let trees = structures.iter().filter(|&&s| s % 2 == 0).count();
            let large = structures.iter().filter(|&&s| s >= 8).count();
            assert_eq!(
                (structures.len(), trees, large),
                (4, 2, 2),
                "config {config} noise {idx}: {structures:?}"
            );
        }
    }

    #[test]
    fn samples_carry_the_dealt_noise() {
        let g = red_tree(40, 5);
        let target = planted_target(&g, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let wrong = |sample: &[WireExample]| {
            sample
                .iter()
                .filter(|e| eval::satisfies(&g, &target, &[V(e.tuple[0])]) != e.label)
                .count()
        };
        for k in 0..3 {
            let sample = noisy_sample(&g, &target, 12, Noise::Flips(k), &mut rng);
            assert_eq!(wrong(&sample), k);
            let distinct: HashSet<u32> = sample.iter().map(|e| e.tuple[0]).collect();
            assert_eq!(distinct.len(), 12);
        }
        for _ in 0..20 {
            let sample = noisy_sample(&g, &target, 8, Noise::Conflict, &mut rng);
            // One copy of the repeated vertex is wrong, plus one flip.
            assert_eq!(wrong(&sample), 2);
            let last = &sample[7];
            assert!(sample[..7]
                .iter()
                .any(|e| e.tuple == last.tuple && e.label != last.label));
        }
        for rank in [1, 2, 3] {
            let phi = sentence(rank, 11);
            assert!(phi.is_sentence());
            assert_eq!(phi.quantifier_rank(), rank);
        }
    }
}
