//! Brute-force ERM — Proposition 11 / Algorithm 1, as a parallel sweep.
//!
//! For constant `ℓ`, trying all `n^ℓ` parameter tuples and, for each,
//! minimising over formulas is fixed-parameter tractable whenever model
//! checking is. Our inner minimisation is the exact type-majority fit (see
//! [`crate::fit`]), so this solver computes the *true optimum* `ε*` over
//! `H_{k,ℓ,q}(G)` — which is also how every other learner in this
//! workspace is validated.
//!
//! # Execution model
//!
//! The parameter space `0..n^ℓ` (tuple `i` = digits of `i` base `n`,
//! most-significant first — exactly [`ParamTuples`] order) is swept in
//! blocks by a worker pool ([`rayon::sweep::worker_sweep`]). Three design
//! points keep the parallel result *bit-identical* to the sequential scan:
//!
//! * **Sharded arenas.** Each worker interns types into a private
//!   [`TypeArena`] instead of contending on the caller's mutex. The
//!   misclassification count of a tuple does not depend on how types are
//!   numbered, so worker arenas are simply dropped after the sweep and the
//!   winning tuple is re-fit once against the caller's shared arena.
//! * **Monotone pruning.** Workers share an atomic best-count bound; per
//!   tuple, the example tally aborts as soon as the running count strictly
//!   exceeds it ([`crate::fit::misclassifications_bounded`]). The running
//!   count is monotone in the example stream, so a tuple tying or beating
//!   the optimum is never aborted — pruning cannot change the result.
//! * **Deterministic tie-breaking.** Candidates are merged by minimising
//!   the pair `(count, tuple index)`, so the lowest-index optimum wins no
//!   matter how blocks were scheduled — the same tuple the sequential
//!   first-strictly-better scan returns. A perfect fit (`count == 0`)
//!   publishes its index through a second atomic; workers skip indices
//!   above the smallest published one, which converges to the global
//!   minimum perfect index.
//!
//! Only the *counters* ([`BruteForceResult::evaluated_params`] /
//! [`BruteForceResult::pruned_params`]) depend on scheduling: how many
//! tuples a worker tallies before observing a bound published by another
//! worker is timing-dependent. With one thread (or pruning off) they are
//! deterministic too. [`BruteForceResult::touched_params`] is the
//! schedule-free work figure: each worker records the indices it
//! tallied, and the figure counts those up to the winner on a perfect fit
//! (all of them otherwise) — the tuples the sequential scan touches, so a
//! sweep that skipped one shows it.

use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use folearn_graph::V;
use folearn_obs::{Counter, Json, LocalStats};
use folearn_types::TypeArena;
use parking_lot::Mutex;

use crate::fit::{error_rate, fit_with_params_counted, misclassifications_bounded, TypeMode};
use crate::hypothesis::Hypothesis;
use crate::problem::ErmInstance;

/// Tuning knobs for the parallel brute-force sweep.
///
/// The default configuration (ambient thread count, pruning on) is what
/// [`brute_force_erm`] uses. Every configuration returns the same
/// hypothesis and error; the knobs only trade wall-clock for work
/// accounting.
#[derive(Clone, Debug)]
pub struct BruteForceOpts {
    /// Worker threads: `None` inherits the ambient rayon thread count
    /// (respects an enclosing `ThreadPool::install`), `Some(0)` means one
    /// per core, `Some(t)` exactly `t`.
    pub threads: Option<usize>,
    /// Share a best-count bound across workers and abort per-tuple
    /// tallies that provably exceed it. Never changes the optimum; see
    /// the module docs for why.
    pub prune: bool,
    /// Tuple indices per dispatched block; `None` picks a size balancing
    /// dispatch overhead against load balance.
    pub block_size: Option<usize>,
}

impl Default for BruteForceOpts {
    fn default() -> Self {
        Self {
            threads: None,
            prune: true,
            block_size: None,
        }
    }
}

/// Outcome of a brute-force search.
#[derive(Debug)]
pub struct BruteForceResult {
    /// The best hypothesis found.
    pub hypothesis: Hypothesis,
    /// Its training error (`= ε*` for exhaustive search in global mode).
    pub error: f64,
    /// Parameter tuples whose tally ran to completion.
    pub evaluated_params: usize,
    /// Parameter tuples abandoned early: their running misclassification
    /// count exceeded the shared bound partway through the examples.
    /// `evaluated_params + pruned_params` is the number of tuples touched.
    pub pruned_params: usize,
    /// Tuples the sequential scan touches, counted over the workers'
    /// tallied ranges: the indices up to the lowest perfectly fitting one,
    /// else all `n^ℓ`. A function of the instance alone, unlike the two
    /// counters above.
    pub touched_params: usize,
}

/// Exhaustive ERM over all parameter tuples `w̄ ∈ V(G)^ℓ` (Algorithm 1).
/// Runs in `O(n^ℓ · m · type-cost)` total work, parallelised over tuples;
/// stops early on a perfect fit. Equivalent to
/// [`brute_force_erm_with`] under [`BruteForceOpts::default`].
pub fn brute_force_erm(
    inst: &ErmInstance<'_>,
    mode: TypeMode,
    arena: &Arc<Mutex<TypeArena>>,
) -> BruteForceResult {
    brute_force_erm_with(inst, mode, arena, &BruteForceOpts::default())
}

/// [`brute_force_erm`] with explicit engine knobs.
pub fn brute_force_erm_with(
    inst: &ErmInstance<'_>,
    mode: TypeMode,
    arena: &Arc<Mutex<TypeArena>>,
    opts: &BruteForceOpts,
) -> BruteForceResult {
    match opts.threads {
        None => sweep(inst, mode, arena, opts),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("building a thread pool cannot fail")
            .install(|| sweep(inst, mode, arena, opts)),
    }
}

/// Per-worker sweep state: a private arena plus the worker's running
/// champion and work counters.
struct Worker {
    arena: TypeArena,
    params: Vec<V>,
    /// Best `(misclassification count, tuple index)` seen by this worker.
    best: Option<(usize, usize)>,
    evaluated: usize,
    pruned: usize,
    /// The indices whose tuples this worker tallied, as ascending runs.
    tallied: Vec<Range<usize>>,
    /// Folded per-block span measurements (empty when capture is off).
    stats: LocalStats,
}

fn sweep(
    inst: &ErmInstance<'_>,
    mode: TypeMode,
    arena: &Arc<Mutex<TypeArena>>,
    opts: &BruteForceOpts,
) -> BruteForceResult {
    let g = inst.graph;
    let n = g.num_vertices();
    let ell = inst.ell;
    let q = inst.q;
    let examples = &inst.examples;
    let total = n
        .checked_pow(u32::try_from(ell).expect("ℓ overflows u32"))
        .expect("parameter space n^ℓ overflows usize");
    assert!(total > 0, "parameter enumeration is never empty");
    let vocab = Arc::clone(arena.lock().vocab());
    let block = opts
        .block_size
        .unwrap_or_else(|| rayon::sweep::default_block_size(total));
    let prune = opts.prune;

    // Best completed misclassification count across all workers (an upper
    // bound on the optimum at all times), and the smallest index known to
    // fit perfectly (`usize::MAX` = none yet).
    let best_bound = AtomicUsize::new(usize::MAX);
    let perfect = AtomicUsize::new(usize::MAX);

    let sweep_span = folearn_obs::span("erm.sweep");
    folearn_obs::meta("total_params", Json::int(total));
    folearn_obs::meta("block", Json::int(block));
    folearn_obs::meta("prune", Json::Bool(prune));

    if total == 1 {
        // One tuple (ℓ = 0, or a one-vertex graph): nothing to schedule
        // or prune against, so fit it once in the shared arena instead of
        // typing every example in a private arena first. The shared arena
        // sees exactly the final fit either way.
        let params = vec![V(0); ell];
        let (hypothesis, wrong) = fit_with_params_counted(g, examples, &params, q, mode, arena);
        folearn_obs::count(Counter::EvaluatedParams, 1);
        drop(sweep_span);
        return BruteForceResult {
            hypothesis,
            error: error_rate(wrong, examples.len()),
            evaluated_params: 1,
            pruned_params: 0,
            touched_params: 1,
        };
    }

    let states = rayon::sweep::worker_sweep(
        total,
        block,
        |_| Worker {
            arena: TypeArena::new(Arc::clone(&vocab)),
            params: vec![V(0); ell],
            best: None,
            evaluated: 0,
            pruned: 0,
            tallied: Vec::new(),
            stats: LocalStats::new(),
        },
        |w, range| {
            // One detached span per dispatched block: finished on the
            // worker thread, folded into the worker's `Send` stats, and
            // re-attached under `erm.sweep` by the coordinator below.
            // Capture off: one relaxed load here and two no-op counts.
            let block_span = folearn_obs::span("erm.block");
            let (ev0, pr0) = (w.evaluated, w.pruned);
            let mut flow = ControlFlow::Continue(());
            for idx in range {
                if idx > perfect.load(Ordering::Relaxed) {
                    // Some index ≤ idx fits perfectly; this worker only
                    // gets higher indices from here on.
                    flow = ControlFlow::Break(());
                    break;
                }
                decode_param_tuple(idx, n, &mut w.params);
                let bound = if prune {
                    best_bound.load(Ordering::Relaxed)
                } else {
                    usize::MAX
                };
                let tally = misclassifications_bounded(
                    g,
                    examples,
                    &w.params,
                    q,
                    mode,
                    &mut w.arena,
                    bound,
                );
                match w.tallied.last_mut() {
                    Some(run) if run.end == idx => run.end += 1,
                    _ => w.tallied.push(idx..idx + 1),
                }
                match tally {
                    Some(wrong) => {
                        w.evaluated += 1;
                        if w.best.is_none_or(|b| (wrong, idx) < b) {
                            w.best = Some((wrong, idx));
                        }
                        best_bound.fetch_min(wrong, Ordering::Relaxed);
                        if wrong == 0 {
                            perfect.fetch_min(idx, Ordering::Relaxed);
                            flow = ControlFlow::Break(());
                            break;
                        }
                    }
                    None => w.pruned += 1,
                }
            }
            folearn_obs::count(Counter::EvaluatedParams, (w.evaluated - ev0) as u64);
            folearn_obs::count(Counter::PrunedParams, (w.pruned - pr0) as u64);
            w.stats.absorb(block_span.finish());
            flow
        },
    );

    let workers = states.len();
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    let mut best: Option<(usize, usize)> = None;
    let mut tallied: Vec<Range<usize>> = Vec::new();
    for (wid, w) in states.into_iter().enumerate() {
        evaluated += w.evaluated;
        pruned += w.pruned;
        tallied.extend(w.tallied);
        if let Some(b) = w.best {
            if best.is_none_or(|cur| b < cur) {
                best = Some(b);
            }
        }
        if let Some(mut rec) = w.stats.into_record("erm.worker") {
            rec.meta.push(("worker".to_string(), Json::int(wid)));
            folearn_obs::adopt(rec);
        }
        // `w.arena` drops here: counts never depended on its type ids, and
        // the final fit below re-derives everything in the shared arena,
        // so the hypothesis is bit-identical to a sequential run.
    }
    folearn_obs::meta("workers", Json::int(workers));
    drop(sweep_span);
    let (wrong, idx) = best.expect("the optimal tuple is never pruned");
    // The winner is the minimal `(count, index)`, so a perfect fit's index
    // is the lowest perfect one: the sequential scan stops there.
    let scanned = if wrong == 0 { idx + 1 } else { total };
    let touched = tallied
        .iter()
        .map(|r| r.end.min(scanned).saturating_sub(r.start))
        .sum();
    let mut params = vec![V(0); ell];
    decode_param_tuple(idx, n, &mut params);
    let (hypothesis, wrong2) = fit_with_params_counted(g, examples, &params, q, mode, arena);
    debug_assert_eq!(
        wrong, wrong2,
        "sweep and final fit disagree on the misclassification count"
    );
    BruteForceResult {
        hypothesis,
        error: error_rate(wrong, examples.len()),
        evaluated_params: evaluated,
        pruned_params: pruned,
        touched_params: touched,
    }
}

/// Reference implementation: the plain sequential scan of [`ParamTuples`]
/// with no pruning, kept verbatim for differential testing of the
/// parallel engine.
pub fn brute_force_erm_sequential(
    inst: &ErmInstance<'_>,
    mode: TypeMode,
    arena: &Arc<Mutex<TypeArena>>,
) -> BruteForceResult {
    let g = inst.graph;
    let mut best: Option<(usize, Vec<V>)> = None;
    let mut evaluated = 0usize;
    {
        let mut shared = arena.lock();
        for params in ParamTuples::new(g.num_vertices(), inst.ell) {
            evaluated += 1;
            let wrong = misclassifications_bounded(
                g,
                &inst.examples,
                &params,
                inst.q,
                mode,
                &mut shared,
                usize::MAX,
            )
            .expect("an unbounded tally never aborts");
            if best.as_ref().is_none_or(|(b, _)| wrong < *b) {
                let stop = wrong == 0;
                best = Some((wrong, params));
                if stop {
                    break;
                }
            }
        }
    }
    let (wrong, params) = best.expect("parameter enumeration is never empty");
    let (hypothesis, wrong2) =
        fit_with_params_counted(g, &inst.examples, &params, inst.q, mode, arena);
    debug_assert_eq!(wrong, wrong2);
    BruteForceResult {
        hypothesis,
        error: error_rate(wrong, inst.examples.len()),
        evaluated_params: evaluated,
        pruned_params: 0,
        touched_params: evaluated,
    }
}

/// The exact class optimum `ε* = min_{h ∈ H_{k,ℓ,q}(G)} err_Λ(h)`,
/// used as ground truth when validating approximate learners.
pub fn optimal_error(inst: &ErmInstance<'_>, arena: &Arc<Mutex<TypeArena>>) -> f64 {
    brute_force_erm(inst, TypeMode::Global, arena).error
}

/// Write the `idx`-th parameter tuple (odometer order, last position
/// fastest — the digits of `idx` base `n`, most-significant first) into
/// `out`.
fn decode_param_tuple(mut idx: usize, n: usize, out: &mut [V]) {
    for slot in out.iter_mut().rev() {
        *slot = V((idx % n) as u32);
        idx /= n;
    }
    debug_assert_eq!(idx, 0, "tuple index out of range");
}

/// Iterator over all `ℓ`-tuples of vertices (odometer order). Yields the
/// empty tuple exactly once when `ℓ = 0`.
pub struct ParamTuples {
    n: usize,
    current: Vec<u32>,
    done: bool,
}

impl ParamTuples {
    /// All `ℓ`-tuples over `0..n`.
    pub fn new(n: usize, ell: usize) -> Self {
        Self {
            n,
            current: vec![0; ell],
            done: n == 0 && ell > 0,
        }
    }
}

impl Iterator for ParamTuples {
    type Item = Vec<V>;

    fn next(&mut self) -> Option<Vec<V>> {
        if self.done {
            return None;
        }
        let out: Vec<V> = self.current.iter().map(|&i| V(i)).collect();
        // Advance the odometer.
        let mut pos = self.current.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.current[pos] += 1;
            if (self.current[pos] as usize) < self.n {
                break;
            }
            self.current[pos] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, ColorId, Vocabulary};

    use crate::fit::optimal_error_given_params;
    use crate::problem::TrainingSequence;

    use super::*;

    fn arena_for(g: &folearn_graph::Graph) -> Arc<Mutex<TypeArena>> {
        Arc::new(Mutex::new(TypeArena::new(Arc::clone(g.vocab()))))
    }

    #[test]
    fn param_tuples_enumerate_all() {
        let all: Vec<_> = ParamTuples::new(3, 2).collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0], vec![V(0), V(0)]);
        assert_eq!(all[8], vec![V(2), V(2)]);
        let empty: Vec<_> = ParamTuples::new(5, 0).collect();
        assert_eq!(empty, vec![Vec::<V>::new()]);
    }

    #[test]
    fn decode_matches_iterator_order() {
        let mut out = vec![V(0); 2];
        for (idx, tuple) in ParamTuples::new(3, 2).enumerate() {
            decode_param_tuple(idx, 3, &mut out);
            assert_eq!(out, tuple, "at index {idx}");
        }
        decode_param_tuple(0, 5, &mut []);
    }

    #[test]
    fn finds_needed_parameter() {
        // Target "dist(x, w) ≤ 1" for a hidden w: zero error requires
        // choosing w (or a type-equivalent vertex) as parameter.
        let g = generators::path(9, Vocabulary::empty());
        let w = V(4);
        let target = |t: &[V]| t[0] == w || g.has_edge(t[0], w);
        let examples = TrainingSequence::label_all_tuples(&g, 1, target);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.0);
        let arena = arena_for(&g);
        let res = brute_force_erm(&inst, TypeMode::Global, &arena);
        assert_eq!(res.error, 0.0);
        for v in g.vertices() {
            assert_eq!(res.hypothesis.predict(&g, &[v]), target(&[v]));
        }
    }

    #[test]
    fn zero_params_cannot_point() {
        let g = generators::path(9, Vocabulary::empty());
        let w = V(4);
        let target = |t: &[V]| t[0] == w;
        let examples = TrainingSequence::label_all_tuples(&g, 1, target);
        let inst = ErmInstance::new(&g, examples, 1, 0, 1, 0.0);
        let arena = arena_for(&g);
        let res = brute_force_erm(&inst, TypeMode::Global, &arena);
        // V(4) shares its 1-type with other interior vertices, so some
        // error is unavoidable without parameters.
        assert!(res.error > 0.0);
    }

    #[test]
    fn early_exit_on_perfect_fit() {
        let g = generators::path(6, Vocabulary::empty());
        let examples = TrainingSequence::label_all_tuples(&g, 1, |_| true);
        let inst = ErmInstance::new(&g, examples, 1, 1, 0, 0.0);
        let arena = arena_for(&g);
        let opts = BruteForceOpts {
            threads: Some(1),
            ..BruteForceOpts::default()
        };
        let res = brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts);
        assert_eq!(res.error, 0.0);
        assert_eq!(res.evaluated_params, 1); // the very first tuple fits
        assert_eq!(res.pruned_params, 0);
    }

    #[test]
    fn pair_query_with_color() {
        // k = 2: learn "x0 and x1 are both red" exactly.
        let vocab = Vocabulary::new(["Red"]);
        let g = generators::periodically_colored(&generators::path(5, vocab), ColorId(0), 2);
        let target = |t: &[V]| g.has_color(t[0], ColorId(0)) && g.has_color(t[1], ColorId(0));
        let examples = TrainingSequence::label_all_tuples(&g, 2, target);
        let inst = ErmInstance::new(&g, examples, 2, 0, 0, 0.0);
        let arena = arena_for(&g);
        let res = brute_force_erm(&inst, TypeMode::Global, &arena);
        assert_eq!(res.error, 0.0);
        assert!(!res.hypothesis.predict(&g, &[V(0), V(1)]));
        assert!(res.hypothesis.predict(&g, &[V(0), V(2)]));
    }

    #[test]
    fn optimal_error_is_a_lower_bound() {
        let g = generators::random_tree(12, Vocabulary::empty(), 3);
        let examples = TrainingSequence::label_all_tuples(&g, 1, |t| t[0].0 % 3 == 0);
        let inst = ErmInstance::new(&g, examples.clone(), 1, 1, 1, 0.0);
        let arena = arena_for(&g);
        let eps_star = optimal_error(&inst, &arena);
        // Any fixed-parameter fit is at least as bad.
        let e0 = optimal_error_given_params(&g, &examples, &[V(0)], 1, TypeMode::Global, &arena);
        assert!(eps_star <= e0 + 1e-12);
    }

    /// Every engine configuration must agree with the sequential
    /// reference bit-for-bit: same error, same parameters, same
    /// positive-type classification on every vertex.
    #[test]
    fn parallel_matches_sequential_reference() {
        let g = generators::random_tree(14, Vocabulary::empty(), 5);
        let examples =
            TrainingSequence::label_all_tuples(&g, 1, |t| t[0].0 % 4 == 0 || t[0].0 == 7);
        let inst = ErmInstance::new(&g, examples, 1, 2, 1, 0.0);
        let reference = {
            let arena = arena_for(&g);
            brute_force_erm_sequential(&inst, TypeMode::Global, &arena)
        };
        for threads in [1, 2, 4, 7] {
            for prune in [false, true] {
                for block in [1, 3, 64] {
                    let arena = arena_for(&g);
                    let opts = BruteForceOpts {
                        threads: Some(threads),
                        prune,
                        block_size: Some(block),
                    };
                    let res = brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts);
                    assert_eq!(
                        res.error.to_bits(),
                        reference.error.to_bits(),
                        "threads={threads} prune={prune} block={block}"
                    );
                    assert_eq!(
                        res.hypothesis.params(),
                        reference.hypothesis.params(),
                        "threads={threads} prune={prune} block={block}"
                    );
                    for v in g.vertices() {
                        assert_eq!(
                            res.hypothesis.predict(&g, &[v]),
                            reference.hypothesis.predict(&g, &[v]),
                            "threads={threads} prune={prune} block={block} at {v}"
                        );
                    }
                }
            }
        }
    }

    /// The counted touched figure equals the sequential reference's
    /// evaluated count under every thread count and block size, with
    /// pruning on and off, on a realisable and an unrealisable sample.
    #[test]
    fn touched_params_counts_the_sequential_scan() {
        let g = generators::random_tree(13, Vocabulary::empty(), 7);
        let w = V(9);
        let realisable =
            TrainingSequence::label_all_tuples(&g, 1, |t| t[0] == w || g.has_edge(t[0], w));
        let mut unrealisable = realisable.clone();
        unrealisable.push(crate::problem::Example::new(vec![w], false));
        for (name, examples) in [("realisable", realisable), ("unrealisable", unrealisable)] {
            let inst = ErmInstance::new(&g, examples, 1, 2, 1, 0.0);
            let reference = brute_force_erm_sequential(&inst, TypeMode::Global, &arena_for(&g));
            let total = g.num_vertices().pow(2);
            if name == "realisable" {
                assert!(reference.error == 0.0 && reference.evaluated_params < total);
            } else {
                assert!(reference.error > 0.0 && reference.evaluated_params == total);
            }
            for threads in 1..=4 {
                for block in [1, 3, 64] {
                    for prune in [false, true] {
                        let opts = BruteForceOpts {
                            threads: Some(threads),
                            prune,
                            block_size: Some(block),
                        };
                        let res =
                            brute_force_erm_with(&inst, TypeMode::Global, &arena_for(&g), &opts);
                        assert_eq!(
                            res.touched_params, reference.evaluated_params,
                            "{name} threads={threads} block={block} prune={prune}"
                        );
                    }
                }
            }
        }
    }

    /// ℓ = 0 holds one tuple, fitted once in the shared arena: the
    /// result, the work counts and every interned type must match the
    /// sequential reference, on a realisable and an unrealisable sample.
    #[test]
    fn single_tuple_fit_matches_sequential_reference() {
        let g = generators::periodically_colored(
            &generators::path(9, Vocabulary::new(["Red"])),
            ColorId(0),
            3,
        );
        let realisable =
            TrainingSequence::label_all_tuples(&g, 1, |t| g.has_color(t[0], ColorId(0)));
        let mut unrealisable = realisable.clone();
        unrealisable.push(crate::problem::Example::new(vec![V(0)], false));
        for (name, examples) in [("realisable", realisable), ("unrealisable", unrealisable)] {
            for q in [0, 1, 2] {
                let inst = ErmInstance::new(&g, examples.clone(), 1, 0, q, 0.0);
                let reference_arena = arena_for(&g);
                let reference =
                    brute_force_erm_sequential(&inst, TypeMode::Global, &reference_arena);
                for threads in [1, 3] {
                    let arena = arena_for(&g);
                    let opts = BruteForceOpts {
                        threads: Some(threads),
                        ..BruteForceOpts::default()
                    };
                    let res = brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts);
                    let at = format!("{name} q={q} threads={threads}");
                    assert_eq!(res.error.to_bits(), reference.error.to_bits(), "{at}");
                    assert_eq!(
                        res.hypothesis.params(),
                        reference.hypothesis.params(),
                        "{at}"
                    );
                    assert_eq!(
                        res.hypothesis.positive_types(),
                        reference.hypothesis.positive_types(),
                        "{at}"
                    );
                    assert_eq!(
                        (res.evaluated_params, res.pruned_params, res.touched_params),
                        (1, 0, 1),
                        "{at}"
                    );
                    assert_eq!(reference.touched_params, 1, "{at}");
                    let nodes = |a: &Arc<Mutex<TypeArena>>| {
                        a.lock().iter().map(|(_, n)| n.clone()).collect::<Vec<_>>()
                    };
                    assert_eq!(nodes(&arena), nodes(&reference_arena), "{at}");
                }
            }
        }
    }

    #[test]
    fn pruning_reduces_work_not_quality() {
        // Target "x = w" for hidden w = V(6), plus one conflicting label
        // on V(0) so no tuple fits perfectly (the sweep cannot
        // short-circuit): w = 6 errs once, every other choice errs twice.
        let g = generators::path(12, Vocabulary::empty());
        let mut pairs: Vec<(Vec<V>, bool)> = g.vertices().map(|v| (vec![v], v == V(6))).collect();
        pairs.push((vec![V(0)], true));
        let examples = TrainingSequence::from_pairs(pairs);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.0);
        let one = |prune| {
            let arena = arena_for(&g);
            let opts = BruteForceOpts {
                threads: Some(1),
                prune,
                block_size: None,
            };
            brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts)
        };
        let full = one(false);
        let pruned = one(true);
        assert!(
            full.error > 0.0,
            "the conflicting labels forbid a perfect fit"
        );
        assert_eq!(full.error, pruned.error);
        assert_eq!(full.hypothesis.params(), pruned.hypothesis.params());
        assert_eq!(full.pruned_params, 0);
        assert_eq!(full.evaluated_params, 12); // no short-circuit: full scan
        assert_eq!(
            pruned.evaluated_params + pruned.pruned_params,
            full.evaluated_params,
            "pruning must not change which tuples are touched"
        );
        assert!(
            pruned.pruned_params > 0,
            "tuples past w = 6 are strictly worse than the bound and must abort"
        );
    }
}
