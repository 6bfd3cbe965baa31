//! Computing `tp_q(G, v̄)` by memoised back-and-forth recursion.

use std::collections::HashMap;

use folearn_graph::{Graph, VertexClasses, V};

use crate::arena::{TypeArena, TypeId, TypeNode};
use crate::atomic::AtomicType;

/// A type computation session for one graph.
///
/// The computer memoises `(tuple, rank) → TypeId` for `rank ≥ 1` within
/// the graph (rank 0 is one lookup in the arena's atomic index), and
/// interns results into a shared [`TypeArena`], so types computed for
/// different graphs (in different sessions over the same arena) remain
/// comparable by id.
///
/// The *counting cap* generalises the recursion to first-order logic with
/// counting (FO+C): children record how many one-point extensions realise
/// each child type, saturating at the cap. Cap 1 is classical FO — two
/// tuples get equal type ids iff they satisfy the same `FO[τ,q]` formulas;
/// cap `t` decides all counting quantifiers `∃^{≥i}` with `i ≤ t` as well.
///
/// The cost of `type_of(v̄, q)` is `O(kΔ + c)` interned atomic types at
/// `q = 1` and `O(n^{q−2}·(kΔ² + r)·(kΔ + c))` for `q ≥ 2`, for tuples of
/// arity `k`, maximum degree `Δ`, `c` colour classes and `r` classes of
/// one round of colour refinement. A vertex `u` outside `N[v̄]` gives
/// `v̄u` an atomic type fixed by `u`'s colour set alone, so the last
/// quantifier level interns one child per near vertex and one per colour
/// class of the far ones; a vertex `w` outside `N_2[v̄]` gives `v̄w` a
/// 1-type fixed by `w`'s refinement class, so the level above it computes
/// one child per vertex of `N_2[v̄]` and one per refinement class of the
/// far ones. The remaining `n^{q−2}` is the finite-but-XP blow-up the
/// paper's Section 2 normal form hides; all learner entry points confine
/// it to bounded neighbourhoods or bounded `q`. Each interned atomic type
/// goes through [`TypeArena::intern_atomic`]: for arity ≤ 8 over ≤ 8
/// colours, one seen before costs a hash of three words and allocates
/// nothing.
pub struct TypeComputer<'g, 'a> {
    graph: &'g Graph,
    arena: &'a mut TypeArena,
    cap: u32,
    memo: HashMap<(Vec<V>, u16), TypeId>,
}

impl<'g, 'a> TypeComputer<'g, 'a> {
    /// Start a classical FO session (counting cap 1) for `graph`.
    ///
    /// # Panics
    /// Panics if the graph's vocabulary differs from the arena's.
    pub fn new(graph: &'g Graph, arena: &'a mut TypeArena) -> Self {
        Self::with_cap(graph, arena, 1)
    }

    /// Start a counting session: child multiplicities saturate at `cap`.
    ///
    /// # Panics
    /// Panics if `cap == 0` or the vocabularies differ.
    pub fn with_cap(graph: &'g Graph, arena: &'a mut TypeArena, cap: u32) -> Self {
        assert!(cap >= 1, "the counting cap must be at least 1");
        assert_eq!(
            graph.vocab().as_ref(),
            arena.vocab().as_ref(),
            "graph and arena must share a vocabulary"
        );
        Self {
            graph,
            arena,
            cap,
            memo: HashMap::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Compute `tp_q(G, v̄)` (with this session's counting cap).
    pub fn type_of(&mut self, tuple: &[V], q: usize) -> TypeId {
        if q == 0 {
            return self.atomic_node(tuple);
        }
        let rank = u16::try_from(q).expect("quantifier rank too large");
        let key = (tuple.to_vec(), rank);
        if let Some(&id) = self.memo.get(&key) {
            return id;
        }
        let id = self.compute(tuple, rank);
        self.memo.insert(key, id);
        id
    }

    fn compute(&mut self, tuple: &[V], rank: u16) -> TypeId {
        let mut ext = Vec::with_capacity(tuple.len() + 1);
        ext.extend_from_slice(tuple);
        ext.push(V(0));
        let witnesses = match rank {
            1 => self.rank_one_witnesses(tuple),
            2 => self.rank_two_witnesses(tuple),
            _ => self.graph.vertices().map(|u| (u, 1)).collect(),
        };
        let mut kids: Vec<(TypeId, u32)> = Vec::with_capacity(witnesses.len());
        for (u, count) in witnesses {
            *ext.last_mut().unwrap() = u;
            let child = if rank == 1 {
                self.atomic_node(&ext)
            } else {
                self.type_of(&ext, (rank - 1) as usize)
            };
            kids.push((child, count.min(self.cap)));
        }
        kids.sort_unstable();
        let cap = self.cap;
        kids.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = (kept.1 + next.1).min(cap);
            }
            same
        });
        self.arena.intern(TypeNode {
            rank,
            cap,
            arity: tuple.len() as u16,
            atomic: AtomicType::of(self.graph, tuple),
            children: kids.into_boxed_slice(),
        })
    }

    /// Intern the rank-0 node of `tuple` through the arena's atomic
    /// index, bypassing the memo.
    fn atomic_node(&mut self, tuple: &[V]) -> TypeId {
        self.arena.intern_atomic(self.graph, tuple, self.cap)
    }

    /// The one-point extensions `v̄u` that stand for all of them at rank 1,
    /// each with how many vertices it stands for, in vertex order.
    ///
    /// Every near vertex (`u ∈ N[v̄]`) stands for itself. A far vertex is
    /// neither equal nor adjacent to any entry, so its extension's atomic
    /// type depends on its colour set alone: the first far vertex of each
    /// colour class stands for the whole far part of its class. Listing
    /// that first vertex in vertex order interns every new atomic type at
    /// the same point as a walk over all of `V` would, so arena ids match
    /// the per-vertex recursion exactly.
    fn rank_one_witnesses(&self, tuple: &[V]) -> Vec<(V, u32)> {
        let g = self.graph;
        let near = closed_neighbourhood(g, tuple.iter().map(|v| v.0));
        near_and_first_far(&near, g.color_classes())
    }

    /// The one-point extensions `v̄w` that stand for all of them at rank 2,
    /// each with how many vertices it stands for, in vertex order.
    ///
    /// Every vertex of `N_2[v̄]` stands for itself. A vertex `w` at
    /// distance at least 3 from `v̄` has `N[w] ∩ N[v̄] = ∅`, so `tp_1(v̄w)`
    /// is fixed by `v̄` and by `w`'s class after one round of colour
    /// refinement (its colour set and its neighbours' multiset of colour
    /// sets): the first far vertex of each refinement class stands for the
    /// whole far part of its class. A skipped `w` would intern only nodes
    /// that this first vertex interned before it, so arena ids match the
    /// per-vertex recursion exactly, as at rank 1.
    fn rank_two_witnesses(&self, tuple: &[V]) -> Vec<(V, u32)> {
        let g = self.graph;
        let near = closed_neighbourhood(g, tuple.iter().map(|v| v.0));
        let near2 = closed_neighbourhood(g, near.iter().copied());
        near_and_first_far(&near2, g.refinement_classes())
    }
}

/// `S ∪ N(S)` for the vertex set `S`, sorted and without repeats.
fn closed_neighbourhood(g: &Graph, set: impl Iterator<Item = u32> + Clone) -> Vec<u32> {
    let mut out: Vec<u32> = set.clone().collect();
    for v in set {
        out.extend_from_slice(g.neighbors(V(v)));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Each vertex of the sorted set `near` counted once, plus the first
/// member outside `near` of each class counted for all of its class's
/// members outside `near`; in vertex order.
fn near_and_first_far(near: &[u32], classes: &VertexClasses) -> Vec<(V, u32)> {
    let mut near_in_class = vec![0u32; classes.len()];
    for &u in near {
        near_in_class[classes.class(V(u))] += 1;
    }
    let mut witnesses: Vec<(V, u32)> = near.iter().map(|&u| (V(u), 1)).collect();
    for (c, &near_count) in near_in_class.iter().enumerate() {
        let members = classes.members(c);
        let far = members.len() as u32 - near_count;
        if far > 0 {
            let first = members
                .iter()
                .find(|u| near.binary_search(u).is_err())
                .expect("a class with far members has a first one");
            witnesses.push((V(*first), far));
        }
    }
    witnesses.sort_unstable();
    witnesses
}

/// Convenience: compute a single classical (cap 1) type with a throwaway
/// session.
///
/// ```
/// use std::sync::Arc;
/// use folearn_graph::{generators, Vocabulary, V};
/// use folearn_types::{TypeArena, compute::type_of};
///
/// let g = generators::path(7, Vocabulary::empty());
/// let mut arena = TypeArena::new(Arc::clone(g.vocab()));
/// // Endpoints share a 2-type; the midpoint has a different one.
/// assert_eq!(type_of(&g, &mut arena, &[V(0)], 2),
///            type_of(&g, &mut arena, &[V(6)], 2));
/// assert_ne!(type_of(&g, &mut arena, &[V(0)], 2),
///            type_of(&g, &mut arena, &[V(3)], 2));
/// ```
pub fn type_of(g: &Graph, arena: &mut TypeArena, tuple: &[V], q: usize) -> TypeId {
    TypeComputer::new(g, arena).type_of(tuple, q)
}

/// Convenience: compute a single counting type with a throwaway session.
pub fn counting_type_of(
    g: &Graph,
    arena: &mut TypeArena,
    tuple: &[V],
    q: usize,
    cap: u32,
) -> TypeId {
    TypeComputer::with_cap(g, arena, cap).type_of(tuple, q)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use folearn_graph::{generators, ops, ColorId, Vocabulary};

    use super::*;

    #[test]
    fn rank_zero_equals_atomic() {
        let g = generators::path(4, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let a = type_of(&g, &mut arena, &[V(0), V(1)], 0);
        let b = type_of(&g, &mut arena, &[V(1), V(2)], 0);
        assert_eq!(a, b);
    }

    #[test]
    fn rank_two_distinguishes_degree() {
        // One quantifier cannot count neighbours: on an uncoloured path
        // all vertices share one 1-type (each sees "equal / adjacent /
        // non-adjacent" extensions). Two quantifiers separate endpoints
        // (degree 1) from midpoints via ∃y∃z (E(x,y) ∧ E(x,z) ∧ y ≠ z).
        let g = generators::path(5, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let mut c = TypeComputer::new(&g, &mut arena);
        assert_eq!(c.type_of(&[V(0)], 1), c.type_of(&[V(2)], 1));
        assert_eq!(c.type_of(&[V(0)], 2), c.type_of(&[V(4)], 2));
        assert_ne!(c.type_of(&[V(0)], 2), c.type_of(&[V(2)], 2));
    }

    #[test]
    fn rank_two_sees_distance_two_from_the_end() {
        // tp_2 on a long path has exactly four unary classes: endpoints,
        // distance 1, distance 2, and everything deeper (the pair types of
        // (v, endpoint-side vertices) differ up to distance 2).
        let g = generators::path(9, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let mut c = TypeComputer::new(&g, &mut arena);
        assert_eq!(c.type_of(&[V(1)], 1), c.type_of(&[V(2)], 1));
        assert_ne!(c.type_of(&[V(1)], 2), c.type_of(&[V(2)], 2));
        assert_ne!(c.type_of(&[V(2)], 2), c.type_of(&[V(3)], 2));
        assert_eq!(c.type_of(&[V(3)], 2), c.type_of(&[V(4)], 2));
        assert_eq!(c.type_of(&[V(3)], 2), c.type_of(&[V(5)], 2));
    }

    #[test]
    fn rank_two_witnesses_do_not_grow_with_the_path() {
        // On an uncoloured path the midpoint's N_2 holds 5 vertices and one
        // refinement round leaves r = 2 classes (endpoints, inner
        // vertices), each with far members: 5 + 2 witnesses whatever n is.
        for n in [40usize, 400] {
            let g = generators::path(n, Vocabulary::empty());
            assert_eq!(g.refinement_classes().len(), 2);
            let mut arena = TypeArena::new(Arc::clone(g.vocab()));
            let c = TypeComputer::new(&g, &mut arena);
            let witnesses = c.rank_two_witnesses(&[V(n as u32 / 2)]);
            assert_eq!(witnesses.len(), 5 + 2, "n = {n}");
            let counted: u32 = witnesses.iter().map(|&(_, count)| count).sum();
            assert_eq!(counted as usize, n);
        }
    }

    #[test]
    fn counting_types_count_where_fo_cannot() {
        // With one quantifier, FO types cannot separate "one neighbour"
        // from "two neighbours" — counting types with cap 2 can.
        let g = generators::path(5, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let fo_end = type_of(&g, &mut arena, &[V(0)], 1);
        let fo_mid = type_of(&g, &mut arena, &[V(2)], 1);
        assert_eq!(fo_end, fo_mid);
        let c_end = counting_type_of(&g, &mut arena, &[V(0)], 1, 2);
        let c_mid = counting_type_of(&g, &mut arena, &[V(2)], 1, 2);
        assert_ne!(c_end, c_mid);
    }

    #[test]
    fn counting_cap_saturates() {
        // Stars with 5 and 9 leaves: identical counting 1-types at cap 3
        // (both have "≥3" leaf-neighbours), different at cap 7.
        let g5 = generators::star(6, Vocabulary::empty());
        let g9 = generators::star(10, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g5.vocab()));
        assert_eq!(
            counting_type_of(&g5, &mut arena, &[V(0)], 1, 3),
            counting_type_of(&g9, &mut arena, &[V(0)], 1, 3)
        );
        assert_ne!(
            counting_type_of(&g5, &mut arena, &[V(0)], 1, 7),
            counting_type_of(&g9, &mut arena, &[V(0)], 1, 7)
        );
    }

    #[test]
    fn cap_one_counting_equals_plain() {
        let g = generators::random_tree(12, Vocabulary::empty(), 4);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        for v in g.vertices() {
            assert_eq!(
                type_of(&g, &mut arena, &[v], 2),
                counting_type_of(&g, &mut arena, &[v], 2, 1)
            );
        }
    }

    #[test]
    fn types_comparable_across_graphs() {
        // The midpoint of a long path has the same 1-type in two paths of
        // different length (both see: a non-adjacent vertex, an adjacent
        // one, itself).
        let vocab = Vocabulary::empty();
        let g1 = generators::path(9, vocab.clone());
        let g2 = generators::path(13, vocab);
        let mut arena = TypeArena::new(Arc::clone(g1.vocab()));
        let a = type_of(&g1, &mut arena, &[V(4)], 1);
        let b = type_of(&g2, &mut arena, &[V(6)], 1);
        assert_eq!(a, b);
    }

    #[test]
    fn colors_affect_types() {
        let base = generators::path(4, Vocabulary::new(["Red"]));
        let g = generators::periodically_colored(&base, ColorId(0), 2);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let red = type_of(&g, &mut arena, &[V(0)], 0);
        let plain = type_of(&g, &mut arena, &[V(1)], 0);
        assert_ne!(red, plain);
    }

    #[test]
    fn isomorphism_invariance() {
        let g = generators::cycle(6, Vocabulary::empty());
        let perm: Vec<V> = vec![V(3), V(4), V(5), V(0), V(1), V(2)];
        let h = ops::permute(&g, &perm);
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        // New vertex i of h corresponds to old vertex perm[i].
        let tg = type_of(&g, &mut arena, &[perm[0], perm[1]], 2);
        let th = type_of(&h, &mut arena, &[V(0), V(1)], 2);
        assert_eq!(tg, th);
    }

    #[test]
    fn empty_tuple_sentence_types() {
        // tp_2((), P_3) ≠ tp_2((), P_1): sentences can tell them apart.
        let g1 = generators::path(3, Vocabulary::empty());
        let g2 = generators::path(1, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g1.vocab()));
        let a = type_of(&g1, &mut arena, &[], 2);
        let b = type_of(&g2, &mut arena, &[], 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "share a vocabulary")]
    fn vocab_mismatch_panics() {
        let g = generators::path(2, Vocabulary::new(["A"]));
        let mut arena = TypeArena::new(Arc::new(Vocabulary::empty()));
        TypeComputer::new(&g, &mut arena);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_panics() {
        let g = generators::path(2, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        TypeComputer::with_cap(&g, &mut arena, 0);
    }
}
