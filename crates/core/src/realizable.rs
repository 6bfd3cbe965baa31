//! The realisable `k = 1` learner — Proposition 12 / Algorithm 2.
//!
//! Under the promise that some `h_{φ,w̄} ∈ H_{1,ℓ,q}(G)` is consistent
//! with the training data, Algorithm 2 finds a consistent hypothesis with
//! `O(|Φ'| · ℓ · n)` model-checking calls instead of `n^ℓ` brute force:
//! for each candidate formula it grows the parameter tuple one entry at a
//! time, keeping a prefix only if a model-checking query certifies that it
//! *extends* to a fully consistent parameter setting.
//!
//! The certificate is the paper's sentence (over `G` expanded with unary
//! relations `P_+`/`P_-` marking the positive/negative examples):
//!
//! ```text
//! ∃y_{i+1} … ∃y_ℓ ∀x ((P_+ x → φ_i) ∧ (P_- x → ¬φ_i))
//! ```
//!
//! The paper additionally encodes the already-fixed prefix `w_1 … w_i`
//! via singleton colours `S_j` so the query is a *sentence*; we bind the
//! prefix directly in the evaluator's assignment, which is semantically
//! identical (the colour-guarded sentence builder is exercised in tests
//! via [`feasibility_sentence`]). Every query goes to the tree-walking
//! evaluator (`folearn_logic::eval`), one candidate vertex at a time, and
//! [`RealizableResult::mc_calls`] counts those queries.
//!
//! The candidate set `Φ'` is the finite normal-form family of the paper;
//! callers pass the finite candidate family to search (see DESIGN.md §4 on
//! why we never enumerate all normal-form formulas).

use folearn_graph::{ops, Graph, V};
use folearn_logic::eval::{eval, Assignment};
use folearn_logic::transform::bind_params_with_colors;
use folearn_logic::{Formula, Var};

use crate::problem::TrainingSequence;

/// Names used for the example-marker colours.
pub const POS_COLOR: &str = "__lambda_pos";
/// Negative-example marker colour name.
pub const NEG_COLOR: &str = "__lambda_neg";

/// Result of the realisable search.
#[derive(Debug, Clone)]
pub struct RealizableResult {
    /// The consistent candidate formula `φ(x_0; x_1 … x_ℓ)`.
    pub formula: Formula,
    /// The parameter assignment `w̄` (for variables `x_1 … x_ℓ`).
    pub params: Vec<V>,
    /// Model-checking calls performed.
    pub mc_calls: usize,
}

/// Run Algorithm 2: find a candidate formula and parameters consistent
/// with all examples, or `None` when no candidate admits any (the promise
/// is violated or `Φ'` is too small).
///
/// Candidates use variable `x0` for the instance and `x1 … xℓ` for the
/// parameters.
///
/// # Panics
/// Panics if the examples are not unary.
pub fn realizable_k1(
    g: &Graph,
    examples: &TrainingSequence,
    candidates: &[Formula],
    ell: usize,
) -> Option<RealizableResult> {
    assert!(
        examples.is_empty() || examples.arity() == 1,
        "Proposition 12 is the k = 1 case"
    );
    let marked = mark_examples(g, examples);
    let pos = marked.vocab().color_by_name(POS_COLOR).expect("just added");
    let neg = marked.vocab().color_by_name(NEG_COLOR).expect("just added");
    let mut mc_calls = 0usize;

    for phi in candidates {
        // consistency(x0) = (P_+ x0 → φ) ∧ (P_- x0 → ¬φ)
        let consistency = Formula::and([
            Formula::Color(pos, 0).implies(phi.clone()),
            Formula::Color(neg, 0).implies(phi.clone().not()),
        ]);
        let all_consistent = Formula::forall(0, consistency);
        let Some(params) = prefix_search(&marked, &all_consistent, ell, &mut mc_calls) else {
            continue;
        };

        // Final sanity: the hypothesis really is consistent.
        let mut scratch = Assignment::new();
        let err = examples.error_of(|t| {
            scratch.reset_to_tuple(t);
            for (j, &w) in params.iter().enumerate() {
                scratch.set((j + 1) as Var, w);
            }
            eval(g, phi, &mut scratch)
        });
        if err == 0.0 {
            return Some(RealizableResult {
                formula: phi.clone(),
                params,
                mc_calls,
            });
        }
    }
    None
}

/// Grow the parameter prefix with per-vertex model-checking queries;
/// returns the full parameter tuple or `None` on a dead end.
fn prefix_search(
    marked: &Graph,
    all_consistent: &Formula,
    ell: usize,
    mc_calls: &mut usize,
) -> Option<Vec<V>> {
    let mut assignment = Assignment::new();
    let mut params: Vec<V> = Vec::with_capacity(ell);
    for i in 1..=ell {
        // Try to fix x_i := u such that the remainder stays feasible. The
        // feasibility formula depends only on the level, so build it once.
        let mut check = all_consistent.clone();
        for j in (i + 1)..=ell {
            check = Formula::exists(j as Var, check);
        }
        let mut found = false;
        for u in marked.vertices() {
            assignment.set(i as Var, u);
            *mc_calls += 1;
            if eval(marked, &check, &mut assignment) {
                params.push(u);
                found = true;
                break;
            }
        }
        if !found {
            return None;
        }
    }
    // ℓ = 0 case: still must verify the candidate itself.
    if ell == 0 {
        *mc_calls += 1;
        if !eval(marked, all_consistent, &mut assignment) {
            return None;
        }
    }
    Some(params)
}

/// The paper's literal colour-guarded feasibility *sentence* for a fixed
/// prefix length `i`: `∃y_{i+1} … ∃y_ℓ ∀x ((P_+x → φ_i) ∧ (P_-x → ¬φ_i))`
/// with `φ_i = ∃y_1 … ∃y_i (⋀_j S_j y_j ∧ φ)`. Requires the graph to carry
/// singleton colours `S_1 … S_i` for the prefix; used to cross-check the
/// direct-binding implementation.
pub fn feasibility_sentence(
    phi: &Formula,
    ell: usize,
    prefix_len: usize,
    s_colors: &[folearn_graph::ColorId],
    pos: folearn_graph::ColorId,
    neg: folearn_graph::ColorId,
) -> Formula {
    assert!(prefix_len <= ell && s_colors.len() >= prefix_len);
    let guarded: Vec<(Var, folearn_graph::ColorId)> = (1..=prefix_len)
        .map(|j| (j as Var, s_colors[j - 1]))
        .collect();
    let phi_i = bind_params_with_colors(phi, &guarded);
    let consistency = Formula::and([
        Formula::Color(pos, 0).implies(phi_i.clone()),
        Formula::Color(neg, 0).implies(phi_i.not()),
    ]);
    let mut out = Formula::forall(0, consistency);
    for j in ((prefix_len + 1)..=ell).rev() {
        out = Formula::exists(j as Var, out);
    }
    out
}

/// Expand `g` with the `P_+`/`P_-` marker colours for a unary training
/// sequence.
pub fn mark_examples(g: &Graph, examples: &TrainingSequence) -> Graph {
    let pos: Vec<V> = examples.positives().map(|e| e.tuple[0]).collect();
    let neg: Vec<V> = examples.negatives().map(|e| e.tuple[0]).collect();
    ops::expand_colors(g, &[(POS_COLOR, pos), (NEG_COLOR, neg)])
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, ColorId, Vocabulary};
    use folearn_logic::eval::models;
    use folearn_logic::parse;

    use crate::problem::Example;

    use super::*;

    fn red_path(n: usize, stride: usize) -> Graph {
        let g = generators::path(n, Vocabulary::new(["Red"]));
        generators::periodically_colored(&g, ColorId(0), stride)
    }

    #[test]
    fn learns_parameter_free_target() {
        let g = red_path(8, 3);
        let vocab = g.vocab().as_ref().clone();
        let target = parse("exists x9. E(x0, x9) & Red(x9)", &vocab).unwrap();
        let examples = TrainingSequence::label_all_tuples(&g, 1, |t| {
            folearn_logic::eval::satisfies(&g, &target, t)
        });
        let candidates = vec![
            parse("Red(x0)", &vocab).unwrap(),
            target.clone(),
            parse("true", &vocab).unwrap(),
        ];
        let res = realizable_k1(&g, &examples, &candidates, 0).expect("realisable");
        assert_eq!(res.params, Vec::<V>::new());
        let err = examples.error_of(|t| {
            folearn_logic::eval::satisfies(&g, &res.formula, t)
        });
        assert_eq!(err, 0.0);
    }

    #[test]
    fn learns_parametric_target() {
        // Target: "x0 is adjacent to the hidden centre w" with w = V(5).
        let g = generators::star(9, Vocabulary::empty());
        let w = V(0); // the star centre
        let examples = TrainingSequence::label_all_tuples(&g, 1, |t| g.has_edge(t[0], w));
        let vocab = g.vocab().as_ref().clone();
        let candidates = vec![
            parse("E(x0, x1)", &vocab).unwrap(), // φ(x0; y1) = E(x0, y1)
        ];
        let res = realizable_k1(&g, &examples, &candidates, 1).expect("realisable");
        assert_eq!(res.params.len(), 1);
        assert_eq!(res.params[0], w);
    }

    #[test]
    fn two_parameters() {
        // Target: x0 = w1 ∨ x0 = w2 on a path.
        let g = generators::path(8, Vocabulary::empty());
        let (w1, w2) = (V(2), V(6));
        let examples =
            TrainingSequence::label_all_tuples(&g, 1, |t| t[0] == w1 || t[0] == w2);
        let vocab = g.vocab().as_ref().clone();
        let candidates = vec![parse("x0 = x1 | x0 = x2", &vocab).unwrap()];
        let res = realizable_k1(&g, &examples, &candidates, 2).expect("realisable");
        let set: std::collections::BTreeSet<V> = res.params.iter().copied().collect();
        assert_eq!(set, [w1, w2].into_iter().collect());
    }

    #[test]
    fn unrealisable_returns_none() {
        let g = generators::clique(4, Vocabulary::empty());
        // Inconsistent labels on symmetric vertices, candidate too weak.
        let examples = TrainingSequence::from_pairs([
            (vec![V(0)], true),
            (vec![V(1)], false),
        ]);
        let vocab = g.vocab().as_ref().clone();
        let candidates = vec![parse("true", &vocab).unwrap()];
        assert!(realizable_k1(&g, &examples, &candidates, 0).is_none());
    }

    #[test]
    fn prefix_search_prunes_dead_prefixes() {
        // mc_calls must stay O(|Φ'| · ℓ · n), far below n^ℓ.
        let g = generators::path(12, Vocabulary::empty());
        let (w1, w2) = (V(3), V(9));
        let examples =
            TrainingSequence::label_all_tuples(&g, 1, |t| t[0] == w1 || t[0] == w2);
        let vocab = g.vocab().as_ref().clone();
        let candidates = vec![parse("x0 = x1 | x0 = x2", &vocab).unwrap()];
        let res = realizable_k1(&g, &examples, &candidates, 2).expect("realisable");
        let n = g.num_vertices();
        assert!(res.mc_calls <= 2 * n, "mc_calls = {}", res.mc_calls);
    }

    #[test]
    fn colour_guarded_sentence_matches_direct_binding() {
        let g = red_path(7, 2);
        let examples = TrainingSequence::from_pairs([
            (vec![V(0)], true),
            (vec![V(1)], false),
            (vec![V(2)], true),
        ]);
        let marked = mark_examples(&g, &examples);
        let pos = marked.vocab().color_by_name(POS_COLOR).unwrap();
        let neg = marked.vocab().color_by_name(NEG_COLOR).unwrap();
        let vocab = g.vocab().as_ref().clone();
        // φ(x0; y1) = "x0 red or adjacent to y1".
        let phi = parse("Red(x0) | E(x0, x1)", &vocab).unwrap();
        for w in marked.vertices().take(4) {
            // Direct binding.
            let mut a = Assignment::new();
            a.set(1, w);
            let consistency = Formula::and([
                Formula::Color(pos, 0).implies(phi.clone()),
                Formula::Color(neg, 0).implies(phi.clone().not()),
            ]);
            let direct = eval(&marked, &Formula::forall(0, consistency), &mut a);
            // Colour-guarded sentence.
            let with_s = ops::expand_colors(&marked, &[("S1", vec![w])]);
            let s1 = with_s.vocab().color_by_name("S1").unwrap();
            let sentence = feasibility_sentence(&phi, 1, 1, &[s1], pos, neg);
            assert_eq!(models(&with_s, &sentence), direct, "w={w}");
        }
    }

    #[test]
    fn works_with_explicit_examples() {
        let g = red_path(10, 4);
        let mut examples = TrainingSequence::new();
        for v in [0u32, 4, 8] {
            examples.push(Example::new(vec![V(v)], true));
        }
        for v in [1u32, 2, 3, 5] {
            examples.push(Example::new(vec![V(v)], false));
        }
        let vocab = g.vocab().as_ref().clone();
        let candidates = vec![parse("Red(x0)", &vocab).unwrap()];
        let res = realizable_k1(&g, &examples, &candidates, 0).expect("realisable");
        assert_eq!(res.formula, candidates[0]);
    }
}
