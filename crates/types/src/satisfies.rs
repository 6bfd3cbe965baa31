//! Type-based model checking.
//!
//! Section 2 of the paper: for every `FO[τ, q]`-formula `φ(x_1 … x_k)`
//! there is a set `Φ` of `k`-variable `q`-types with
//! `G ⊨ φ(v̄) ⟺ tp_q(G, v̄) ∈ Φ`. Equivalently, a `q`-type *decides*
//! every formula of quantifier rank `≤ q` — which this module makes
//! executable: [`type_satisfies`] evaluates a formula against a stored
//! type, never touching the graph the type came from.
//!
//! This yields a second, independent model-checking algorithm (compute the
//! type, then evaluate on it), cross-checked against the naive evaluator
//! in the test suites, and it is how learned type-set hypotheses classify.

use folearn_graph::V;
use folearn_logic::{Formula, Var};

use crate::arena::{TypeArena, TypeId};

/// Evaluate `φ` on a type. Free variable `x_i` of `φ` denotes position `i`
/// of the typed tuple.
///
/// # Panics
/// Panics if `φ`'s quantifier rank exceeds the type's rank, a free
/// variable is out of the tuple's arity, or a colour atom lies outside the
/// arena's vocabulary.
pub fn type_satisfies(arena: &TypeArena, tid: TypeId, phi: &Formula) -> bool {
    let node = arena.node(tid);
    assert!(
        phi.quantifier_rank() <= node.rank as usize,
        "formula rank {} exceeds type rank {}",
        phi.quantifier_rank(),
        node.rank
    );
    let arity = node.arity as usize;
    let mut map: Vec<Option<usize>> = (0..arity).map(Some).collect();
    go(arena, tid, phi, &mut map)
}

fn slot(map: &[Option<usize>], var: Var) -> usize {
    map.get(var as usize)
        .copied()
        .flatten()
        .unwrap_or_else(|| panic!("variable x{var} not bound to a tuple position"))
}

fn go(arena: &TypeArena, tid: TypeId, phi: &Formula, map: &mut Vec<Option<usize>>) -> bool {
    let node = arena.node(tid);
    let w = arena.vocab().words_per_vertex();
    match phi {
        Formula::Bool(b) => *b,
        Formula::Eq(a, b) => node.atomic.entries_equal(slot(map, *a), slot(map, *b)),
        Formula::Edge(a, b) => node
            .atomic
            .entries_adjacent(slot(map, *a), slot(map, *b)),
        Formula::Color(c, v) => {
            assert!(
                c.index() < arena.vocab().num_colors(),
                "colour {c} outside the arena's vocabulary"
            );
            node.atomic.entry_has_color(slot(map, *v), c.index(), w)
        }
        Formula::Not(f) => !go(arena, tid, f, map),
        Formula::And(fs) => fs.iter().all(|f| go(arena, tid, f, map)),
        Formula::Or(fs) => fs.iter().any(|f| go(arena, tid, f, map)),
        Formula::Exists(var, body) => quantify(arena, tid, *var, body, map, Quantifier::Exists),
        Formula::Forall(var, body) => quantify(arena, tid, *var, body, map, Quantifier::Forall),
        Formula::CountingExists(t, var, body) => {
            quantify(arena, tid, *var, body, map, Quantifier::AtLeast(*t))
        }
    }
}

enum Quantifier {
    Exists,
    Forall,
    AtLeast(u32),
}

fn quantify(
    arena: &TypeArena,
    tid: TypeId,
    var: Var,
    body: &Formula,
    map: &mut Vec<Option<usize>>,
    quantifier: Quantifier,
) -> bool {
    let node = arena.node(tid);
    assert!(
        node.rank >= 1,
        "quantifier encountered but type rank is exhausted"
    );
    if let Quantifier::AtLeast(t) = quantifier {
        assert!(
            t <= node.cap,
            "counting threshold {t} exceeds the type's counting cap {}",
            node.cap
        );
    }
    let new_pos = node.arity as usize;
    let idx = var as usize;
    if idx >= map.len() {
        map.resize(idx + 1, None);
    }
    let saved = map[idx];
    map[idx] = Some(new_pos);
    let children = node.children.clone(); // ids + capped counts; cheap
    let result = match quantifier {
        Quantifier::Exists => children.iter().any(|&(c, _)| go(arena, c, body, map)),
        Quantifier::Forall => children.iter().all(|&(c, _)| go(arena, c, body, map)),
        Quantifier::AtLeast(t) => {
            let mut total: u64 = 0;
            for &(c, count) in children.iter() {
                if go(arena, c, body, map) {
                    total += u64::from(count);
                    if total >= u64::from(t) {
                        break;
                    }
                }
            }
            total >= u64::from(t)
        }
    };
    map[idx] = saved;
    result
}

/// The set `Φ_φ` restricted to the given types: which of `candidates`
/// satisfy `φ`. With `candidates` = all realised `q`-types of arity `k`,
/// this is exactly the paper's `Φ` from Section 2.
pub fn formula_type_set(
    arena: &TypeArena,
    candidates: &[TypeId],
    phi: &Formula,
) -> Vec<TypeId> {
    candidates
        .iter()
        .copied()
        .filter(|&t| type_satisfies(arena, t, phi))
        .collect()
}

/// Model-check via types: compute `tp_q(G, v̄)` for `q = qr(φ)` and
/// evaluate on the type. Agrees with `folearn_logic::eval::satisfies`
/// (property-tested) while exercising a completely different code path.
pub fn satisfies_via_types(
    g: &folearn_graph::Graph,
    arena: &mut TypeArena,
    phi: &Formula,
    tuple: &[V],
) -> bool {
    let q = phi.quantifier_rank();
    let tid = crate::compute::type_of(g, arena, tuple, q);
    type_satisfies(arena, tid, phi)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use folearn_graph::{generators, ColorId, Vocabulary};
    use folearn_logic::eval;
    use folearn_logic::parser::parse;

    use crate::compute::type_of;

    use super::*;

    fn colored_path() -> folearn_graph::Graph {
        let g = generators::path(6, Vocabulary::new(["Red"]));
        generators::periodically_colored(&g, ColorId(0), 3)
    }

    #[test]
    fn agrees_with_naive_eval_on_samples() {
        let g = colored_path();
        let vocab = g.vocab().as_ref().clone();
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let formulas = [
            "Red(x0)",
            "exists x1. E(x0, x1) & Red(x1)",
            "forall x1. E(x0, x1) -> !Red(x1)",
            "exists x1. exists x2. E(x0, x1) & E(x1, x2) & x2 != x0",
            "exists x1. x1 != x0 & !E(x0, x1)",
        ];
        for f in formulas {
            let phi = parse(f, &vocab).unwrap();
            for v in g.vertices() {
                let naive = eval::satisfies(&g, &phi, &[v]);
                let typed = satisfies_via_types(&g, &mut arena, &phi, &[v]);
                assert_eq!(naive, typed, "formula {f} at {v}");
            }
        }
    }

    #[test]
    fn sentences_on_empty_tuple_types() {
        let g = colored_path();
        let vocab = g.vocab().as_ref().clone();
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let phi = parse("exists x0. Red(x0) & exists x1. E(x0, x1)", &vocab).unwrap();
        assert_eq!(
            satisfies_via_types(&g, &mut arena, &phi, &[]),
            eval::models(&g, &phi)
        );
    }

    #[test]
    fn variable_shadowing() {
        let g = colored_path();
        let vocab = g.vocab().as_ref().clone();
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        // Inner ∃x0 shadows the free x0, then the outer conjunct uses the
        // original binding again.
        let phi = parse("(exists x0. Red(x0)) & !Red(x0)", &vocab).unwrap();
        for v in g.vertices() {
            assert_eq!(
                satisfies_via_types(&g, &mut arena, &phi, &[v]),
                eval::satisfies(&g, &phi, &[v]),
                "at {v}"
            );
        }
    }

    #[test]
    fn formula_type_set_partitions() {
        let g = colored_path();
        let vocab = g.vocab().as_ref().clone();
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let phi = parse("exists x1. E(x0, x1) & Red(x1)", &vocab).unwrap();
        let q = phi.quantifier_rank();
        let all: Vec<TypeId> = g
            .vertices()
            .map(|v| type_of(&g, &mut arena, &[v], q))
            .collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        let positive = formula_type_set(&arena, &unique, &phi);
        for (v, t) in g.vertices().zip(&all) {
            assert_eq!(
                positive.contains(t),
                eval::satisfies(&g, &phi, &[v]),
                "at {v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds type rank")]
    fn rank_overflow_panics() {
        let g = colored_path();
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let tid = type_of(&g, &mut arena, &[V(0)], 0);
        let phi = Formula::exists(1, Formula::Edge(0, 1));
        type_satisfies(&arena, tid, &phi);
    }
}
