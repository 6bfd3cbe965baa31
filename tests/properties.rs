//! Property-based tests (proptest) for the workspace's core invariants.
//!
//! * naive vs type-based model checking agree on random formulas/graphs;
//! * the type arena agrees with the Ehrenfeucht–Fraïssé game;
//! * Gaifman locality (Fact 5) holds at radius `r(q)`;
//! * Lemma 3's covering invariants hold on random graphs;
//! * Hintikka formulas characterise exactly their type;
//! * the parser round-trips the printer;
//! * the Forest splitter wins within its round bound on random trees;
//! * type-majority fitting is optimal among type-set hypotheses.

use std::sync::Arc;

use proptest::prelude::*;

use folearn_suite::core::bruteforce::{
    brute_force_erm_sequential, brute_force_erm_with, BruteForceOpts,
};
use folearn_suite::core::covering::{verify_covering, vitali_cover};
use folearn_suite::core::fit::{fit_with_params, TypeMode};
use folearn_suite::core::problem::{ErmInstance, TrainingSequence};
use folearn_suite::core::shared_arena;
use folearn_suite::core::{solve_fo_erm, Solver};
use folearn_suite::graph::splitter::{
    play_game, ForestSplitter, MaxBallConnector, RandomConnector, SplitterStrategy,
};
use folearn_suite::graph::{generators, Graph, GraphBuilder, Vocabulary, V};
use folearn_suite::logic::random::{random_formula, RandomFormulaConfig};
use folearn_suite::logic::{eval, parser};
use folearn_suite::types::ef::duplicator_wins;
use folearn_suite::types::hintikka::hintikka;
use folearn_suite::types::satisfies::satisfies_via_types;
use folearn_suite::types::{compute, gaifman_radius, local_type, TypeArena};

/// A random coloured graph from (n, edge list, colour mask) inputs.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..8, proptest::collection::vec((0u32..8, 0u32..8), 0..14), 0u64..256)
        .prop_map(|(n, edges, mask)| {
            let vocab = Vocabulary::new(["Red"]);
            let mut b = GraphBuilder::with_vertices(vocab, n);
            for (u, v) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(V(u), V(v));
                }
            }
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    b.set_color(V(i as u32), folearn_suite::graph::ColorId(0));
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn naive_and_type_based_eval_agree(g in arb_graph(), seed in 0u64..500) {
        let cfg = RandomFormulaConfig {
            free_vars: 1,
            quantifier_rank: 2,
            max_fanout: 3,
            bool_depth: 2,
            counting_cap: None,
        };
        let phi = random_formula(g.vocab(), &cfg, seed);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        for v in g.vertices() {
            let naive = eval::satisfies(&g, &phi, &[v]);
            let typed = satisfies_via_types(&g, &mut arena, &phi, &[v]);
            prop_assert_eq!(naive, typed, "formula {} at {}", phi, v);
        }
    }

    #[test]
    fn arena_agrees_with_ef_game(g in arb_graph(), q in 0usize..3) {
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let verts: Vec<V> = g.vertices().collect();
        for &u in verts.iter().take(4) {
            for &v in verts.iter().take(4) {
                let types_equal = compute::type_of(&g, &mut arena, &[u], q)
                    == compute::type_of(&g, &mut arena, &[v], q);
                let ef = duplicator_wins(&g, &[u], &g, &[v], q);
                prop_assert_eq!(types_equal, ef, "q={} u={} v={}", q, u, v);
            }
        }
    }

    #[test]
    fn gaifman_locality_fact5(g in arb_graph()) {
        let q = 1;
        let r = gaifman_radius(q);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let verts: Vec<V> = g.vertices().collect();
        for &u in &verts {
            for &v in &verts {
                let lu = local_type(&g, &mut arena, &[u], q, r);
                let lv = local_type(&g, &mut arena, &[v], q, r);
                if lu == lv {
                    let tu = compute::type_of(&g, &mut arena, &[u], q);
                    let tv = compute::type_of(&g, &mut arena, &[v], q);
                    prop_assert_eq!(tu, tv, "Fact 5 violated at {}, {}", u, v);
                }
            }
        }
    }

    #[test]
    fn lemma3_invariants_hold(g in arb_graph(), picks in proptest::collection::vec(0u32..8, 1..5), r in 1usize..4) {
        let x: Vec<V> = picks
            .into_iter()
            .map(|p| V(p % g.num_vertices() as u32))
            .collect();
        let c = vitali_cover(&g, &x, r);
        prop_assert!(verify_covering(&g, &x, r, &c));
        prop_assert!(c.steps <= x.len());
        // R = 3^steps · r exactly.
        prop_assert_eq!(c.radius, 3usize.pow(c.steps as u32) * r);
    }

    #[test]
    fn hintikka_characterises_its_type(g in arb_graph(), q in 0usize..2) {
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let types: Vec<_> = g
            .vertices()
            .map(|v| compute::type_of(&g, &mut arena, &[v], q))
            .collect();
        for (v, &tv) in g.vertices().zip(&types).take(3) {
            let hin = hintikka(&arena, tv);
            for (u, &tu) in g.vertices().zip(&types) {
                prop_assert_eq!(
                    eval::satisfies(&g, &hin, &[u]),
                    tu == tv,
                    "hintikka of {} at {} (q={})", v, u, q
                );
            }
        }
    }

    #[test]
    fn printer_parser_round_trip(seed in 0u64..2000) {
        let vocab = Vocabulary::new(["Red", "Blue"]);
        let cfg = RandomFormulaConfig {
            free_vars: 2,
            quantifier_rank: 2,
            max_fanout: 3,
            bool_depth: 2,
            counting_cap: None,
        };
        let phi = random_formula(&vocab, &cfg, seed);
        let printed = parser::render(&phi, &vocab);
        let reparsed = parser::parse(&printed, &vocab);
        prop_assert!(reparsed.is_ok(), "unparseable: {}", printed);
        prop_assert_eq!(reparsed.unwrap(), phi);
    }

    #[test]
    fn forest_splitter_wins_within_bound(n in 2usize..60, seed in 0u64..50, r in 1usize..4) {
        let g = generators::random_tree(n, Vocabulary::empty(), seed);
        let mut s = ForestSplitter;
        let bound = s.round_bound(r).unwrap();
        let mut c = RandomConnector::new(seed);
        let result = play_game(&g, r, &mut s, &mut c, bound + 3);
        prop_assert!(result.splitter_won, "splitter lost within {} rounds", bound + 3);
        prop_assert!(result.rounds <= bound, "rounds {} > bound {}", result.rounds, bound);
    }

    #[test]
    fn fit_error_is_minimal_over_type_sets(g in arb_graph(), labels in 0u64..256) {
        // Compare the majority fit against every subset of realised types
        // (exact minimisation for small instances).
        let examples = TrainingSequence::from_pairs(
            g.vertices()
                .enumerate()
                .map(|(i, v)| (vec![v], labels >> i & 1 == 1)),
        );
        let arena = shared_arena(&g);
        let q = 1;
        let (_, fit_err) = fit_with_params(&g, &examples, &[], q, TypeMode::Global, &arena);
        // Enumerate all type subsets.
        let types: Vec<_> = {
            let mut a = arena.lock();
            g.vertices()
                .map(|v| compute::type_of(&g, &mut a, &[v], q))
                .collect()
        };
        let mut unique = types.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assume!(unique.len() <= 12);
        let mut best = f64::INFINITY;
        for mask in 0u32..(1u32 << unique.len()) {
            let positive: Vec<_> = unique
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t)
                .collect();
            let err = examples.error_of(|t| {
                let idx = t[0].index();
                positive.contains(&types[idx])
            });
            best = best.min(err);
        }
        prop_assert!((fit_err - best).abs() < 1e-12, "fit {} vs best {}", fit_err, best);
    }

    #[test]
    fn parallel_erm_bit_identical_to_sequential(
        g in arb_graph(), labels in 0u64..256, ell in 0usize..3, threads in 1usize..5
    ) {
        // The parallel sweep must return the same (error, hypothesis) as
        // the sequential reference scan for any thread count / block size.
        let examples = TrainingSequence::from_pairs(
            g.vertices()
                .enumerate()
                .map(|(i, v)| (vec![v], labels >> i & 1 == 1)),
        );
        let inst = ErmInstance::new(&g, examples, 1, ell, 1, 0.0);
        let seq = {
            let arena = shared_arena(&g);
            brute_force_erm_sequential(&inst, TypeMode::Global, &arena)
        };
        let arena = shared_arena(&g);
        let opts = BruteForceOpts {
            threads: Some(threads),
            prune: true,
            block_size: Some(2),
        };
        let par = brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts);
        prop_assert_eq!(par.error.to_bits(), seq.error.to_bits(),
            "errors differ: {} vs {}", par.error, seq.error);
        prop_assert_eq!(par.hypothesis.params(), seq.hypothesis.params());
        for v in g.vertices() {
            prop_assert_eq!(
                par.hypothesis.predict(&g, &[v]),
                seq.hypothesis.predict(&g, &[v]),
                "predictions diverge at {}", v
            );
        }
    }

    #[test]
    fn reported_work_is_the_sequential_touched_count(
        g in arb_graph(), labels in 0u64..256, ell in 0usize..3,
        threads in 1usize..5, prune in 0u32..2, block in 1usize..4
    ) {
        // The work figure a solve reports (and a daemon replies with and
        // caches) must not depend on scheduling: it is exactly the tuple
        // count of the sequential reference scan, for any thread count,
        // block size or pruning setting.
        let examples = TrainingSequence::from_pairs(
            g.vertices()
                .enumerate()
                .map(|(i, v)| (vec![v], labels >> i & 1 == 1)),
        );
        let inst = ErmInstance::new(&g, examples, 1, ell, 1, 0.0);
        let seq = brute_force_erm_sequential(&inst, TypeMode::Global, &shared_arena(&g));
        let opts = BruteForceOpts {
            threads: Some(threads),
            prune: prune == 1,
            block_size: Some(block),
        };
        let par = brute_force_erm_with(&inst, TypeMode::Global, &shared_arena(&g), &opts);
        prop_assert_eq!(seq.touched_params, seq.evaluated_params);
        prop_assert_eq!(par.touched_params, seq.evaluated_params);
        let solver = Solver::BruteForce { mode: TypeMode::Global, opts };
        let report = solve_fo_erm(&inst, &solver, &shared_arena(&g));
        prop_assert_eq!(report.work, seq.evaluated_params);
    }

    #[test]
    fn pruning_never_changes_the_optimum(
        g in arb_graph(), labels in 0u64..256, ell in 0usize..3
    ) {
        let examples = TrainingSequence::from_pairs(
            g.vertices()
                .enumerate()
                .map(|(i, v)| (vec![v], labels >> i & 1 == 1)),
        );
        let inst = ErmInstance::new(&g, examples, 1, ell, 1, 0.0);
        let run = |prune: bool| {
            let arena = shared_arena(&g);
            let opts = BruteForceOpts {
                threads: Some(1),
                prune,
                block_size: None,
            };
            brute_force_erm_with(&inst, TypeMode::Global, &arena, &opts)
        };
        let full = run(false);
        let pruned = run(true);
        prop_assert_eq!(full.error.to_bits(), pruned.error.to_bits());
        prop_assert_eq!(full.hypothesis.params(), pruned.hypothesis.params());
        prop_assert_eq!(full.pruned_params, 0);
        // Pruning abandons tallies early but touches the same tuples.
        prop_assert_eq!(
            pruned.evaluated_params + pruned.pruned_params,
            full.evaluated_params
        );
    }

    #[test]
    fn counting_eval_agrees_across_code_paths(g in arb_graph(), seed in 0u64..300) {
        // Naive evaluation vs counting-type-based evaluation of FO+C
        // formulas (counting quantifiers up to cap 3).
        let cap = 3u32;
        let cfg = RandomFormulaConfig {
            free_vars: 1,
            quantifier_rank: 2,
            max_fanout: 3,
            bool_depth: 2,
            counting_cap: Some(cap),
        };
        let phi = random_formula(g.vocab(), &cfg, seed);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        for v in g.vertices() {
            let naive = eval::satisfies(&g, &phi, &[v]);
            let tid = folearn_suite::types::compute::counting_type_of(
                &g, &mut arena, &[v], phi.quantifier_rank(), cap,
            );
            let typed = folearn_suite::types::satisfies::type_satisfies(&arena, tid, &phi);
            prop_assert_eq!(naive, typed, "formula {} at {}", phi, v);
        }
    }

    #[test]
    fn counting_parser_round_trip(seed in 0u64..1000) {
        let vocab = Vocabulary::new(["Red"]);
        let cfg = RandomFormulaConfig {
            free_vars: 1,
            quantifier_rank: 2,
            max_fanout: 3,
            bool_depth: 2,
            counting_cap: Some(4),
        };
        let phi = random_formula(&vocab, &cfg, seed);
        let printed = parser::render(&phi, &vocab);
        let reparsed = parser::parse(&printed, &vocab);
        prop_assert!(reparsed.is_ok(), "unparseable: {}", printed);
        prop_assert_eq!(reparsed.unwrap(), phi);
    }

    #[test]
    fn counting_hintikka_characterises(g in arb_graph(), cap in 2u32..4) {
        // FO+C Hintikka formulas characterise exactly their counting type.
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let types: Vec<_> = g
            .vertices()
            .map(|v| folearn_suite::types::compute::counting_type_of(&g, &mut arena, &[v], 1, cap))
            .collect();
        for (v, &tv) in g.vertices().zip(&types).take(3) {
            let hin = hintikka(&arena, tv);
            for (u, &tu) in g.vertices().zip(&types) {
                prop_assert_eq!(
                    eval::satisfies(&g, &hin, &[u]),
                    tu == tv,
                    "counting hintikka of {} at {} (cap={})", v, u, cap
                );
            }
        }
    }

    #[test]
    fn wcol_invariants(g in arb_graph(), r in 0usize..4) {
        use folearn_suite::graph::wcol::{degeneracy_order, weak_reach_sets};
        let order = degeneracy_order(&g);
        prop_assert_eq!(order.len(), g.num_vertices());
        let wr = weak_reach_sets(&g, &order, r);
        let pos: std::collections::HashMap<V, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for v in g.vertices() {
            // v always weakly reaches itself; everything reached is ≤ v in
            // the order and within distance r.
            prop_assert!(wr[v.index()].contains(&v));
            for &u in &wr[v.index()] {
                prop_assert!(pos[&u] <= pos[&v]);
                let d = folearn_suite::graph::bfs::distance(&g, u, v);
                prop_assert!(d.is_some_and(|d| d <= r), "u={} v={} r={}", u, v, r);
            }
        }
    }

    #[test]
    fn wl_refines_counting_one_types(g in arb_graph(), cap in 1u32..4) {
        // Same 1-WL colour after one round ⇒ same counting 1-type at any
        // cap (WL sees the full neighbour multiset; counting types see it
        // capped).
        use folearn_suite::graph::wl::color_refinement;
        let wl = color_refinement(&g, 1);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let types: Vec<_> = g
            .vertices()
            .map(|v| folearn_suite::types::compute::counting_type_of(&g, &mut arena, &[v], 1, cap))
            .collect();
        for u in g.vertices() {
            for v in g.vertices() {
                if wl.same_class(u, v) {
                    prop_assert_eq!(
                        types[u.index()], types[v.index()],
                        "WL-equal {} {} but counting types differ (cap={})", u, v, cap
                    );
                }
            }
        }
    }

    #[test]
    fn dfa_minimization_preserves_language(
        seed in 0u64..500, states in 2usize..6, sigma in 1usize..4
    ) {
        use folearn_suite::strings::Dfa;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let delta: Vec<Vec<u32>> = (0..states)
            .map(|_| (0..sigma).map(|_| rng.random_range(0..states as u32)).collect())
            .collect();
        let accepting: Vec<bool> = (0..states).map(|_| rng.random_bool(0.5)).collect();
        let d = Dfa::new(delta, accepting, 0);
        let m = d.minimize();
        prop_assert!(m.num_states() <= d.num_states());
        prop_assert!(m.equivalent(&d));
        // Spot-check on random words too.
        for _ in 0..20 {
            let len = rng.random_range(0..12);
            let w: Vec<u8> = (0..len).map(|_| rng.random_range(0..sigma as u8)).collect();
            prop_assert_eq!(d.accepts(&w), m.accepts(&w));
        }
    }

    #[test]
    fn preprocessed_queries_match_naive(seed in 0u64..300, n in 1usize..50) {
        use folearn_suite::strings::query::standard_class;
        use folearn_suite::strings::Word;
        let w = Word::random(n, 2, seed);
        for q in standard_class(2) {
            let pre = q.preprocess(&w);
            for i in 0..w.len() {
                prop_assert_eq!(
                    pre.classify(i),
                    q.classify_naive(&w, i),
                    "{} at {} on {}", q.name, i, w
                );
            }
        }
    }

    #[test]
    fn splitter_game_on_trees_max_ball_connector(n in 3usize..40, r in 1usize..3) {
        let g = generators::random_tree(n, Vocabulary::empty(), 99);
        let mut s = ForestSplitter;
        let bound = s.round_bound(r).unwrap();
        let mut c = MaxBallConnector;
        let result = play_game(&g, r, &mut s, &mut c, bound + 3);
        prop_assert!(result.splitter_won);
        prop_assert!(result.rounds <= bound);
    }
}
