//! The VM cross-check of learned hypotheses. The learners tally *types*
//! and never evaluate a formula, so this suite is what ties a solver's
//! answer to the formula it names: for every solver, the materialised
//! hypothesis (`report.hypothesis.to_formula()`) re-evaluated on every
//! training example must reproduce `report.error` bit-for-bit, both on
//! the bytecode VM and on the tree-walking evaluator.
//!
//! Inputs: random trees, paths and degree-≤3 graphs of at most 16
//! vertices with a random colour, random labelled samples of arity
//! k ∈ {1, 2}, ℓ ∈ {0, 1, 2} and q ∈ {0, 1, 2}. Every case runs brute
//! force in all four type modes and the nowhere-dense learner; the
//! local-access learner joins when ℓ ≤ 1, the only case it supports.
//! The nowhere-dense learner classifies by radius-1 local types: its
//! hypotheses carry up to `ℓ·s` parameters, and a wider final radius
//! makes the tree walker's re-evaluation of the relativised formula
//! cost seconds per case.

use proptest::prelude::*;

use folearn::ndlearner::{FinalRule, NdConfig, SearchMode};
use folearn::{
    shared_arena, solve_fo_erm, BruteForceOpts, ErmInstance, SolveReport, Solver, TrainingSequence,
    TypeMode,
};
use folearn_graph::splitter::GraphClass;
use folearn_graph::{generators, Graph, Vocabulary, V};
use folearn_logic::vm::{self, Evaluator, Program, VmGraph};
use folearn_logic::{eval, Var};

/// The training error of the materialised hypothesis, recomputed on the
/// VM and on the tree walker, in that order.
///
/// The formula is over `x0 … x{k−1}` (the example tuple) followed by the
/// hypothesis's parameter variables `x{k} … x{k+ℓ−1}`. `k = 1` uses one
/// batched VM run (one lane per vertex); higher arities bind each tuple
/// through the environment of a single-shot program.
fn recomputed_errors(inst: &ErmInstance<'_>, report: &SolveReport) -> (f64, f64) {
    let phi = report.hypothesis.to_formula();
    let params = report.hypothesis.params();
    let vg = VmGraph::new(inst.graph);
    let k = inst.k;
    let param_bindings = |base: usize| -> Vec<(Var, V)> {
        params
            .iter()
            .enumerate()
            .map(|(j, &w)| ((base + j) as Var, w))
            .collect()
    };
    let vm_verdicts: Vec<bool> = if k == 1 {
        let assigned: Vec<Var> = (1..=params.len()).map(|j| j as Var).collect();
        let prog = Program::compile(&phi, 0, &assigned);
        let mut ev = Evaluator::new(&prog, &vg);
        let verdicts = ev.run(&param_bindings(1)).to_vec();
        inst.examples
            .iter()
            .map(|e| vm::get_bit(&verdicts, e.tuple[0].index()))
            .collect()
    } else {
        let assigned: Vec<Var> = (0..k + params.len()).map(|j| j as Var).collect();
        let prog = Program::compile_single(&phi, &assigned);
        let mut ev = Evaluator::new(&prog, &vg);
        inst.examples
            .iter()
            .map(|e| {
                let mut bindings: Vec<(Var, V)> = e
                    .tuple
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as Var, v))
                    .collect();
                bindings.extend(param_bindings(k));
                ev.run_bool(&bindings)
            })
            .collect()
    };
    let tree_verdicts: Vec<bool> = inst
        .examples
        .iter()
        .map(|e| {
            let tuple: Vec<V> = e.tuple.iter().chain(params).copied().collect();
            eval::satisfies(inst.graph, &phi, &tuple)
        })
        .collect();
    let error_of = |verdicts: &[bool]| {
        let wrong = inst
            .examples
            .iter()
            .zip(verdicts)
            .filter(|(e, &v)| v != e.label)
            .count();
        if inst.examples.is_empty() {
            0.0
        } else {
            wrong as f64 / inst.examples.len() as f64
        }
    };
    (error_of(&vm_verdicts), error_of(&tree_verdicts))
}

/// A random tree, path or degree-≤3 graph on `n` vertices, with one
/// colour painted at random; returns the splitter class it belongs to.
fn structure(kind: u32, n: usize, seed: u64) -> (Graph, GraphClass) {
    let vocab = Vocabulary::new(["Red"]);
    let (g, class) = match kind {
        0 => (generators::random_tree(n, vocab, seed), GraphClass::Forest),
        1 => (generators::path(n, vocab), GraphClass::Forest),
        _ => (
            generators::bounded_degree_random(n, 3, 0.9, vocab, seed),
            GraphClass::BoundedDegree(3),
        ),
    };
    (generators::randomly_colored(&g, 0.4, seed ^ 0x5eed), class)
}

/// `m` examples of arity `k`, tuple entries and labels drawn from
/// `seed` (a splitmix64 stream): repeats and conflicting labels occur.
fn sample(n: usize, k: usize, m: usize, seed: u64) -> TrainingSequence {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    TrainingSequence::from_pairs((0..m).map(|_| {
        let tuple: Vec<V> = (0..k).map(|_| V((next() % n as u64) as u32)).collect();
        (tuple, next() % 2 == 0)
    }))
}

fn solvers(class: GraphClass, ell: usize) -> Vec<Solver> {
    let brute = |mode| Solver::BruteForce {
        mode,
        opts: BruteForceOpts {
            threads: Some(1),
            ..BruteForceOpts::default()
        },
    };
    let mut out = vec![
        brute(TypeMode::Global),
        brute(TypeMode::Local { r: 1 }),
        brute(TypeMode::GlobalCounting { cap: 2 }),
        brute(TypeMode::LocalCounting { r: 1, cap: 2 }),
        Solver::NowhereDense(NdConfig {
            class,
            search: SearchMode::Exhaustive,
            final_rule: FinalRule::Local(1),
            locality_radius: Some(1),
            max_rounds: Some(2),
            max_branches: 16,
        }),
    ];
    if ell <= 1 {
        out.push(Solver::LocalAccess {
            param_radius: 1,
            type_radius: 1,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_solver_error_is_reproduced_by_the_vm_and_the_tree_walker(
        shape in (0u32..3, 2usize..17, 0u64..1_000_000),
        params in (1usize..3, 0usize..3, 0usize..3),
        m in 1usize..9,
    ) {
        let (kind, n, seed) = shape;
        let (k, ell, q) = params;
        let (g, class) = structure(kind, n, seed);
        let inst = ErmInstance::new(&g, sample(n, k, m, seed), k, ell, q, 0.0);
        for solver in solvers(class, ell) {
            let arena = shared_arena(&g);
            let report = solve_fo_erm(&inst, &solver, &arena);
            let (vm_error, tree_error) = recomputed_errors(&inst, &report);
            prop_assert_eq!(
                vm_error.to_bits(),
                report.error.to_bits(),
                "{}: vm error {} vs solver error {} (kind {}, n {}, k {}, ℓ {}, q {})",
                report.solver_name, vm_error, report.error, kind, n, k, ell, q
            );
            prop_assert_eq!(
                tree_error.to_bits(),
                report.error.to_bits(),
                "{}: tree-walker error {} vs solver error {} (kind {}, n {}, k {}, ℓ {}, q {})",
                report.solver_name, tree_error, report.error, kind, n, k, ell, q
            );
        }
    }
}
