//! The ERM-oracle interface consumed by the reduction.
//!
//! An `(L,Q)-FO-ERM` oracle takes a graph, a training sequence and the
//! hyper-parameters `(k, ℓ*, q*, ε)` and returns *some* hypothesis whose
//! training error is within `ε` of the class optimum. The reduction only
//! ever needs unary instances (`k = 1, ℓ* = 0`), evaluates the returned
//! hypothesis on vertices, and groups answers by identity (the Ramsey
//! step) — so an answer is a *predictor* plus a canonical key. The
//! predictor may live in this process ([`Predictor::Local`], a real
//! [`Hypothesis`]) or behind a folearn daemon ([`Predictor::Remote`],
//! evaluated over the wire) — the reduction cannot tell the difference,
//! which is the point: Lemma 7 treats the learner as a black box.

use std::collections::HashMap;
use std::sync::Arc;

use folearn::bruteforce::brute_force_erm;
use folearn::fit::TypeMode;
use folearn::{ErmInstance, Hypothesis};
#[cfg(test)]
use folearn::TrainingSequence;
use folearn_graph::{io, Graph, V};
use folearn_server::{
    ClientApi, ClientConfig, ClientError, RetryPolicy, RetryingClient, SolverSpec,
    TransportStats, WireExample,
};
use folearn_types::TypeArena;
use parking_lot::Mutex;

/// How an oracle answer classifies tuples.
#[derive(Clone)]
pub enum Predictor {
    /// An in-process hypothesis (its arena travels with it).
    Local(Hypothesis),
    /// A hypothesis stored on a folearn daemon; predictions go over the
    /// wire through the shared connection. Type ids are only meaningful
    /// inside the server's arena, so the hypothesis cannot be
    /// reconstructed locally — exactly the oracle-as-black-box regime.
    Remote {
        /// Shared connection to the daemon that owns the hypothesis
        /// (self-healing: deadlines, backoff, reconnect — so a dropped
        /// frame mid-reduction costs a retry, not the whole run).
        client: Arc<Mutex<RetryingClient>>,
        /// Content hash of the structure the hypothesis was learned on.
        structure: u64,
        /// Server-assigned hypothesis id.
        hypothesis: u64,
        /// The hypothesis's parameter vertices (reported on the wire;
        /// the disjoint-copies argument inspects them).
        params: Vec<V>,
    },
}

/// An oracle answer: an evaluable predictor with a comparable identity.
#[derive(Clone)]
pub struct OracleAnswer {
    /// The returned predictor for `h_{φ,w̄}`.
    pub predictor: Predictor,
    /// Identity key for grouping equal answers (stable within one oracle
    /// because the oracle shares one type arena per vocabulary — the
    /// server mirrors this discipline for remote answers).
    pub key: u64,
    /// Whether the instance was realisable (`ε* = 0`) — instrumentation
    /// for Remark 10.
    pub realizable: bool,
}

impl OracleAnswer {
    /// Evaluate the answer on a tuple of the queried graph.
    ///
    /// # Panics
    /// For remote answers, panics if the connection fails mid-reduction
    /// (the trait has no error channel; a dead oracle is fatal anyway).
    pub fn predict(&self, g: &Graph, tuple: &[V]) -> bool {
        match &self.predictor {
            Predictor::Local(h) => h.predict(g, tuple),
            Predictor::Remote {
                client,
                structure,
                hypothesis,
                ..
            } => {
                let wire_tuple: Vec<u32> = tuple.iter().map(|v| v.0).collect();
                let (labels, _) = client
                    .lock()
                    .evaluate(*structure, *hypothesis, vec![wire_tuple], None)
                    .expect("remote predict failed");
                labels[0]
            }
        }
    }

    /// The hypothesis's parameter vertices.
    pub fn params(&self) -> &[V] {
        match &self.predictor {
            Predictor::Local(h) => h.params(),
            Predictor::Remote { params, .. } => params,
        }
    }

    /// The in-process hypothesis, when there is one.
    pub fn hypothesis(&self) -> Option<&Hypothesis> {
        match &self.predictor {
            Predictor::Local(h) => Some(h),
            Predictor::Remote { .. } => None,
        }
    }
}

/// An `(L,Q)-FO-ERM` oracle.
pub trait ErmOracle {
    /// Solve the instance; the answer's training error must be within
    /// `inst.epsilon` of optimal **whenever the instance is realisable**
    /// (Remark 10: the reduction tolerates arbitrary answers otherwise).
    fn solve(&mut self, inst: &ErmInstance<'_>) -> OracleAnswer;

    /// Number of `solve` calls so far.
    fn calls(&self) -> usize;

    /// Number of calls whose instance was realisable.
    fn realizable_calls(&self) -> usize;
}

/// The honest oracle: exhaustive ERM (Proposition 11), exact on every
/// instance. One type arena is kept per vocabulary so that hypothesis
/// keys are comparable across calls on the same (expanded) graph.
pub struct BruteForceOracle {
    arenas: HashMap<usize, Arc<Mutex<TypeArena>>>,
    key_table: HashMap<(Vec<folearn_types::TypeId>, Vec<V>, usize), u64>,
    calls: usize,
    realizable: usize,
}

impl Default for BruteForceOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl BruteForceOracle {
    /// A fresh oracle.
    pub fn new() -> Self {
        Self {
            arenas: HashMap::new(),
            key_table: HashMap::new(),
            calls: 0,
            realizable: 0,
        }
    }

    fn arena_for(&mut self, g: &Graph) -> Arc<Mutex<TypeArena>> {
        // Key arenas by the vocabulary's colour count: the reduction only
        // ever queries one vocabulary per colour count (the base graph and
        // its per-level expansions), and types across different graphs
        // over the same vocabulary must share an arena to be comparable.
        let key = g.vocab().num_colors();
        Arc::clone(
            self.arenas
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(TypeArena::new(Arc::clone(g.vocab()))))),
        )
    }

    fn key_of(&mut self, h: &Hypothesis) -> u64 {
        let (types, params, q, _) = h.canonical_key();
        let next = self.key_table.len() as u64;
        *self.key_table.entry((types, params, q)).or_insert(next)
    }
}

impl ErmOracle for BruteForceOracle {
    fn solve(&mut self, inst: &ErmInstance<'_>) -> OracleAnswer {
        self.calls += 1;
        let arena = self.arena_for(inst.graph);
        let res = brute_force_erm(inst, TypeMode::Global, &arena);
        let realizable = res.error == 0.0;
        if realizable {
            self.realizable += 1;
        }
        let key = self.key_of(&res.hypothesis);
        OracleAnswer {
            predictor: Predictor::Local(res.hypothesis),
            key,
            realizable,
        }
    }

    fn calls(&self) -> usize {
        self.calls
    }

    fn realizable_calls(&self) -> usize {
        self.realizable
    }
}

/// An ERM oracle backed by a folearn daemon (`folearn serve`): every
/// `solve` registers the instance's graph (content-addressed, so
/// repeats are free) and runs the server's deterministic brute-force
/// solver; answers classify tuples over the wire.
///
/// Key parity with [`BruteForceOracle`]: the key table partitions
/// answers by `(type_keys, params, q)`, where `type_keys` are the
/// *canonical* content hashes of the hypothesis's positive types
/// (`folearn_types::canon`) — not the server's arena-relative ids. The
/// solver is deterministic, so identical instances yield identical
/// triples no matter which server answered; the reduction only consumes
/// that partition (the Ramsey grouping), which is why
/// `model_check_via_erm` against a loopback daemon — or a cluster
/// router whose replicas fail over mid-run — is bit-identical to the
/// in-process run.
pub struct RemoteOracle {
    client: Arc<Mutex<RetryingClient>>,
    /// Local graph memo: canonical-text hash → server structure id
    /// (avoids re-sending the graph text on every pair query).
    structures: HashMap<u64, u64>,
    key_table: HashMap<(Vec<u64>, Vec<u32>, usize), u64>,
    calls: usize,
    realizable: usize,
}

impl RemoteOracle {
    /// Connect to a daemon at `addr` (e.g. the address of an in-process
    /// [`folearn_server::start`] handle) with no deadlines and no
    /// retries — the right default on a trusted loopback path.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default(), RetryPolicy::none())
    }

    /// Connect with explicit socket deadlines and a retry policy — what
    /// the fault tests use to survive an unreliable path.
    pub fn connect_with(
        addr: impl std::net::ToSocketAddrs,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        Ok(Self {
            client: Arc::new(Mutex::new(RetryingClient::connect(addr, config, policy)?)),
            structures: HashMap::new(),
            key_table: HashMap::new(),
            calls: 0,
            realizable: 0,
        })
    }

    /// Retry/reconnect counters accumulated by the shared connection.
    pub fn transport_stats(&self) -> TransportStats {
        self.client.lock().transport_stats().clone()
    }
}

impl ErmOracle for RemoteOracle {
    fn solve(&mut self, inst: &ErmInstance<'_>) -> OracleAnswer {
        self.calls += 1;
        let text = io::to_text(inst.graph);
        let local_hash = folearn_server::proto::fnv1a64(text.as_bytes());
        let mut client = self.client.lock();
        let structure = match self.structures.get(&local_hash) {
            Some(&s) => s,
            None => {
                let s = client.register(&text).expect("remote register failed");
                self.structures.insert(local_hash, s);
                s
            }
        };
        let examples: Vec<WireExample> = inst
            .examples
            .iter()
            .map(|e| WireExample {
                tuple: e.tuple.iter().map(|v| v.0).collect(),
                label: e.label,
            })
            .collect();
        let outcome = client
            .solve(
                structure,
                examples,
                inst.ell,
                inst.q,
                inst.epsilon,
                SolverSpec::default_brute(),
            )
            .expect("remote solve failed");
        drop(client);
        let realizable = outcome.error == 0.0;
        if realizable {
            self.realizable += 1;
        }
        let h = outcome.hypothesis;
        // Group by the backend-independent identity: canonical type-set
        // hashes, parameters, rank. Arena-relative `types` would differ
        // between cluster replicas and tear equal answers apart.
        let next = self.key_table.len() as u64;
        let key = *self
            .key_table
            .entry((h.type_keys.clone(), h.params.clone(), h.q))
            .or_insert(next);
        OracleAnswer {
            predictor: Predictor::Remote {
                client: Arc::clone(&self.client),
                structure,
                hypothesis: h.id,
                params: h.params.iter().map(|&p| V(p)).collect(),
            },
            key,
            realizable,
        }
    }

    fn calls(&self) -> usize {
        self.calls
    }

    fn realizable_calls(&self) -> usize {
        self.realizable
    }
}

/// Remark 10 demonstrator: delegates to an inner oracle but *corrupts*
/// the answer whenever the instance is not realisable (returning the
/// constantly-false hypothesis with a garbage key). The reduction must
/// still answer model-checking queries correctly.
pub struct AdversarialOnUnrealizable<O> {
    inner: O,
    corrupted: usize,
}

impl<O: ErmOracle> AdversarialOnUnrealizable<O> {
    /// Wrap an oracle.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            corrupted: 0,
        }
    }

    /// How many answers were corrupted.
    pub fn corrupted(&self) -> usize {
        self.corrupted
    }
}

impl<O: ErmOracle> ErmOracle for AdversarialOnUnrealizable<O> {
    fn solve(&mut self, inst: &ErmInstance<'_>) -> OracleAnswer {
        let answer = self.inner.solve(inst);
        if answer.realizable {
            return answer;
        }
        self.corrupted += 1;
        // Arbitrary wrong answer: constantly false, with a key that still
        // deterministically identifies "the corrupted answer" so the
        // Ramsey grouping sees a consistent (if useless) colouring.
        let arena = folearn::shared_arena(inst.graph);
        OracleAnswer {
            predictor: Predictor::Local(Hypothesis::always_false(
                inst.q,
                TypeMode::Global,
                arena,
            )),
            key: u64::MAX - 1,
            realizable: false,
        }
    }

    fn calls(&self) -> usize {
        self.inner.calls()
    }

    fn realizable_calls(&self) -> usize {
        self.inner.realizable_calls()
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, ColorId, Vocabulary};

    use super::*;

    #[test]
    fn oracle_distinguishes_different_types() {
        // Claim 8: for tp_{q}(u) ≠ tp_{q}(v), the answer on ((u,0),(v,1))
        // with ε = 1/4 classifies u negative and v positive.
        let vocab = Vocabulary::new(["Red"]);
        let g = generators::periodically_colored(
            &generators::path(8, vocab),
            ColorId(0),
            4,
        );
        let mut oracle = BruteForceOracle::new();
        let examples =
            TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(1)], true)]);
        let inst = ErmInstance::new(&g, examples, 1, 0, 0, 0.25);
        let ans = oracle.solve(&inst);
        assert!(ans.realizable);
        assert!(!ans.predict(&g, &[V(0)]));
        assert!(ans.predict(&g, &[V(1)]));
        assert_eq!(oracle.calls(), 1);
        assert_eq!(oracle.realizable_calls(), 1);
    }

    #[test]
    fn equal_instances_get_equal_keys() {
        let g = generators::path(6, Vocabulary::empty());
        let mut oracle = BruteForceOracle::new();
        let mk = || TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(2)], true)]);
        let a1 = oracle.solve(&ErmInstance::new(&g, mk(), 1, 0, 2, 0.25));
        let a2 = oracle.solve(&ErmInstance::new(&g, mk(), 1, 0, 2, 0.25));
        assert_eq!(a1.key, a2.key);
    }

    #[test]
    fn unrealizable_instances_are_flagged() {
        // Same-type endpoints with contradictory labels: ε* = 1/2.
        let g = generators::path(6, Vocabulary::empty());
        let mut oracle = BruteForceOracle::new();
        let examples =
            TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(5)], true)]);
        let ans = oracle.solve(&ErmInstance::new(&g, examples, 1, 0, 2, 0.25));
        assert!(!ans.realizable);
        assert_eq!(oracle.realizable_calls(), 0);
    }

    #[test]
    fn adversarial_wrapper_corrupts_only_unrealizable() {
        let g = generators::path(6, Vocabulary::empty());
        let mut oracle = AdversarialOnUnrealizable::new(BruteForceOracle::new());
        let bad = TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(5)], true)]);
        let ans = oracle.solve(&ErmInstance::new(&g, bad, 1, 0, 2, 0.25));
        assert_eq!(ans.key, u64::MAX - 1);
        assert_eq!(oracle.corrupted(), 1);
        let good = TrainingSequence::from_pairs([(vec![V(0)], false), (vec![V(2)], true)]);
        let ans2 = oracle.solve(&ErmInstance::new(&g, good, 1, 0, 2, 0.25));
        assert!(ans2.realizable);
        assert_eq!(oracle.corrupted(), 1);
    }
}
