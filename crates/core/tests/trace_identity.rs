//! Acceptance gate for the tracing layer: with capture enabled, every
//! solver must return bit-identical results to an untraced run, and the
//! run must leave a well-formed span tree behind.
//!
//! This test runs as its own process, so capture starts disabled here no
//! matter what the unit tests of other crates do.

use folearn::bruteforce::BruteForceOpts;
use folearn::ndlearner::NdConfig;
use folearn::problem::{ErmInstance, TrainingSequence};
use folearn::{shared_arena, solve_fo_erm, SolveReport, Solver, TypeMode};
use folearn_graph::{generators, Vocabulary, V};
use folearn_obs::Counter;

fn solvers() -> Vec<Solver> {
    vec![
        // Deterministic work accounting: the whole report must round-trip.
        Solver::BruteForce {
            mode: TypeMode::Global,
            opts: BruteForceOpts {
                threads: Some(1),
                prune: true,
                block_size: None,
            },
        },
        // Parallel sweep: counters are scheduling-dependent (see the
        // bruteforce module docs), so only the learned outcome is compared.
        Solver::BruteForce {
            mode: TypeMode::Global,
            opts: BruteForceOpts {
                threads: Some(3),
                prune: true,
                block_size: Some(3),
            },
        },
        Solver::NowhereDense(NdConfig::default()),
        Solver::LocalAccess {
            param_radius: 2,
            type_radius: 1,
        },
    ]
}

fn run_all() -> Vec<SolveReport> {
    let g = generators::random_tree(18, Vocabulary::empty(), 5);
    let w = V(9);
    let target = |t: &[V]| t[0] == w || g.has_edge(t[0], w);
    let examples = TrainingSequence::label_all_tuples(&g, 1, target);
    let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.2);
    let arena = shared_arena(&g);
    solvers()
        .iter()
        .map(|s| solve_fo_erm(&inst, s, &arena))
        .collect()
}

#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    assert!(!folearn_obs::enabled(), "capture must start disabled");
    let untraced = run_all();
    assert!(
        folearn_obs::take_thread_roots().is_empty(),
        "a disabled run must capture nothing"
    );

    folearn_obs::set_enabled(true);
    let traced = run_all();
    let roots = folearn_obs::take_thread_roots();

    for (i, (t, u)) in traced.iter().zip(&untraced).enumerate() {
        assert_eq!(t.solver_name, u.solver_name);
        assert_eq!(
            t.error.to_bits(),
            u.error.to_bits(),
            "{}: tracing changed the training error",
            t.solver_name
        );
        assert_eq!(
            t.hypothesis.params(),
            u.hypothesis.params(),
            "{}: tracing changed the learned parameters",
            t.solver_name
        );
        if i != 1 {
            assert_eq!(
                t.to_json().render(),
                u.to_json().render(),
                "{}: tracing changed the report rendering",
                t.solver_name
            );
        }
    }

    // One `solve` root per solver run, each carrying the learner's spans.
    assert_eq!(roots.len(), untraced.len());
    for (i, brute) in roots.iter().take(2).enumerate() {
        assert_eq!(brute.name, "solve");
        let sweep = brute.find("erm.sweep").expect("brute force records a sweep");
        assert_eq!(
            sweep.total(Counter::EvaluatedParams) as usize,
            traced[i].evaluated_params,
            "span counters must agree with the report's work accounting"
        );
        assert_eq!(
            sweep.total(Counter::PrunedParams) as usize,
            traced[i].pruned_params,
        );
    }
    assert!(
        roots[2].find("nd.learn").is_some(),
        "the ND learner records a span"
    );

    // ℓ = 0 skips the worker sweep but still records one `erm.sweep`
    // span that counts its single tuple once.
    let g = generators::random_tree(18, Vocabulary::empty(), 5);
    let examples = TrainingSequence::label_all_tuples(&g, 1, |t| t[0] == V(9));
    let inst = ErmInstance::new(&g, examples, 1, 0, 1, 0.2);
    let report = solve_fo_erm(&inst, &solvers()[1], &shared_arena(&g));
    let roots = folearn_obs::take_thread_roots();
    assert_eq!(roots.len(), 1);
    let sweep = roots[0].find("erm.sweep").expect("ℓ = 0 records a sweep");
    assert_eq!(sweep.total(Counter::EvaluatedParams), 1);
    assert_eq!(sweep.total(Counter::PrunedParams), 0);
    assert_eq!((report.evaluated_params, report.pruned_params), (1, 0));
}
