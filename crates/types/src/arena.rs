//! Hash-consed storage of `q`-types.
//!
//! The arena keeps two indexes. The node index maps every [`TypeNode`] to
//! its id; it is the only one that assigns ids, so interning order alone
//! fixes the numbering. The atomic index maps a rank-0 node's fixed-size
//! key — its counting cap and [`PackedAtomic`] — to the id the node index
//! gave it, so the rank-0 children that dominate type computation are
//! found by hashing three words, without building (and dropping) an
//! [`AtomicType`] and a [`TypeNode`]. A miss there builds the node and
//! interns it through the node index, so ids come out as if the atomic
//! index did not exist. Tuples too long or vocabularies too large to pack
//! take the node index directly.
//!
//! Both indexes keep the standard library's keyed hasher: the structures
//! typed here come from clients, and an unkeyed hash would let a client
//! choose structures whose types collide.

use std::collections::HashMap;
use std::sync::Arc;

use folearn_graph::{Graph, Vocabulary, V};

use crate::atomic::{AtomicType, PackedAtomic};

/// Identifier of a type within a [`TypeArena`]. Two tuples have the same
/// type (over the arena's vocabulary) iff their computed `TypeId`s are
/// equal — including tuples from *different graphs*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The id's index into the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A stored type: `tp_q(G, v̄)` for some graph and tuple.
///
/// `rank == 0` nodes carry only the atomic type; `rank ≥ 1` nodes also
/// carry the *set* (sorted, deduplicated) of `rank − 1` types of all
/// one-point extensions `v̄u`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TypeNode {
    /// Quantifier-rank budget `q` of this type.
    pub rank: u16,
    /// The counting cap the type was computed with (1 = classical FO).
    /// Types with different caps are distinct objects: they answer
    /// different families of quantifiers.
    pub cap: u32,
    /// Tuple arity `k`.
    pub arity: u16,
    /// The atomic type of the tuple.
    pub atomic: AtomicType,
    /// For `rank ≥ 1`: sorted child type ids (all of rank `rank − 1`,
    /// arity `arity + 1`), one per distinct `(rank−1)`-type of a one-point
    /// extension `v̄u`, *with multiplicities capped at the arena session's
    /// counting cap*. Plain first-order types use cap 1, so every count is
    /// 1 and the children form a set — the classical recursion. Counting
    /// types (cap `t`) record how many witnesses realise each child type,
    /// saturating at `t`, which is exactly the information counting
    /// quantifiers `∃^{≥i}` with `i ≤ t` can access (FO+C, the extension
    /// named in the paper's conclusion). Empty for `rank == 0`, and for
    /// `rank ≥ 1` types of the empty tuple in the *empty* graph (the
    /// `rank` field keeps those apart from rank-0 nodes).
    pub children: Box<[(TypeId, u32)]>,
}

/// A hash-consing arena of types over one fixed vocabulary.
///
/// The arena grows monotonically; `TypeId`s are never invalidated.
pub struct TypeArena {
    vocab: Arc<Vocabulary>,
    nodes: Vec<TypeNode>,
    index: HashMap<TypeNode, TypeId>,
    /// Rank-0 nodes interned through [`TypeArena::intern_atomic`], keyed by
    /// `(cap, packed atomic type)`.
    atomic_index: HashMap<(u32, PackedAtomic), TypeId>,
}

impl TypeArena {
    /// A fresh arena for types over `vocab`.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        Self {
            vocab,
            nodes: Vec::new(),
            index: HashMap::new(),
            atomic_index: HashMap::new(),
        }
    }

    /// The vocabulary the arena's types speak about.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// Number of distinct types interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Intern a node, returning its stable id.
    pub fn intern(&mut self, node: TypeNode) -> TypeId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = TypeId(u32::try_from(self.nodes.len()).expect("type arena overflow"));
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// Intern the rank-0 node of `tuple` in `g` at counting cap `cap`:
    /// the id [`TypeArena::intern`] gives that node, found without
    /// allocating when the atomic type packs and was seen before.
    ///
    /// `g` must speak the arena's vocabulary, as
    /// [`crate::compute::TypeComputer`] checks once per session.
    pub fn intern_atomic(&mut self, g: &Graph, tuple: &[V], cap: u32) -> TypeId {
        debug_assert!(Arc::ptr_eq(g.vocab(), &self.vocab) || g.vocab() == &self.vocab);
        let node = || TypeNode {
            rank: 0,
            cap,
            arity: tuple.len() as u16,
            atomic: AtomicType::of(g, tuple),
            children: Box::new([]),
        };
        let Some(packed) = PackedAtomic::of(g, tuple) else {
            return self.intern(node());
        };
        if let Some(&id) = self.atomic_index.get(&(cap, packed)) {
            return id;
        }
        let id = self.intern(node());
        self.atomic_index.insert((cap, packed), id);
        id
    }

    /// Access a stored node.
    ///
    /// # Panics
    /// Panics if the id is from a different arena (out of range).
    #[inline]
    pub fn node(&self, id: TypeId) -> &TypeNode {
        &self.nodes[id.index()]
    }

    /// Iterate over all `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &TypeNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (TypeId(i as u32), n))
    }

    /// Merge every node of `other` into `self`, returning the remap table:
    /// `remap[i.index()]` is the id in `self` of `other`'s node `i`.
    ///
    /// This is how per-worker arenas from a parallel sweep are folded back
    /// into a shared arena: each worker interns types privately (no lock
    /// contention), then the winner's arena is absorbed once at the end.
    /// Nodes are visited in id order, which works because children are
    /// always interned before their parents (child id < parent id) — the
    /// construction order of [`crate::compute::TypeComputer`] and the
    /// local-type helpers.
    ///
    /// # Panics
    /// Panics if the arenas speak different vocabularies.
    pub fn absorb(&mut self, other: &TypeArena) -> Vec<TypeId> {
        assert!(
            self.vocab == other.vocab,
            "absorb requires arenas over the same vocabulary"
        );
        let mut remap: Vec<TypeId> = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            let mut mapped = node.clone();
            for (child, _) in mapped.children.iter_mut() {
                *child = remap[child.index()];
            }
            // Children are canonically sorted by id, and relative id order
            // is arena-local, so the remapped list must be re-sorted to
            // match what direct interning into `self` would produce.
            mapped.children.sort_unstable();
            remap.push(self.intern(mapped));
        }
        remap
    }
}

impl std::fmt::Debug for TypeArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TypeArena({} types over {} colours)",
            self.nodes.len(),
            self.vocab.num_colors()
        )
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, Vocabulary, V};

    use crate::atomic::AtomicType;

    use super::*;

    #[test]
    fn interning_dedups() {
        let g = generators::path(4, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        let node = |t: &[V]| TypeNode {
            rank: 0,
            cap: 1,
            arity: t.len() as u16,
            atomic: AtomicType::of(&g, t),
            children: Box::new([]),
        };
        let a = arena.intern(node(&[V(0), V(1)]));
        let b = arena.intern(node(&[V(2), V(3)])); // same pattern
        let c = arena.intern(node(&[V(0), V(2)])); // non-adjacent
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.node(a).arity, 2);
    }

    #[test]
    fn absorb_remaps_children_and_dedups() {
        let g = generators::path(4, Vocabulary::empty());
        let leaf = |t: &[V]| TypeNode {
            rank: 0,
            cap: 1,
            arity: t.len() as u16,
            atomic: AtomicType::of(&g, t),
            children: Box::new([]),
        };
        // Shared arena already knows one leaf; the side arena interns the
        // two leaves in the opposite relative order, so absorbing must
        // both dedup and re-sort children by the new ids.
        let mut main = TypeArena::new(Arc::clone(g.vocab()));
        let pre = main.intern(leaf(&[V(0), V(2)]));
        let mut side = TypeArena::new(Arc::clone(g.vocab()));
        let s_leaf = side.intern(leaf(&[V(0), V(1)]));
        let s_other = side.intern(leaf(&[V(0), V(2)]));
        let s_parent = side.intern(TypeNode {
            rank: 1,
            cap: 1,
            arity: 1,
            atomic: AtomicType::of(&g, &[V(0)]),
            children: Box::new([(s_leaf, 1), (s_other, 1)]),
        });
        // Absorbing into an empty arena is the identity remap.
        let mut fresh = TypeArena::new(Arc::clone(g.vocab()));
        assert_eq!(fresh.absorb(&side), vec![TypeId(0), TypeId(1), TypeId(2)]);
        let remap = main.absorb(&side);
        assert_eq!(remap[s_other.index()], pre); // deduped against existing
        assert_eq!(remap[s_leaf.index()], TypeId(1));
        let parent = main.node(remap[s_parent.index()]);
        // Children now point at main-arena ids, re-sorted: `pre` (id 0)
        // sorts before the absorbed leaf (id 1), inverting the side order.
        assert_eq!(parent.children[0].0, pre);
        assert_eq!(parent.children[1].0, remap[s_leaf.index()]);
        assert_eq!(main.len(), 3);
    }

    #[test]
    fn iteration_matches_len() {
        let g = generators::path(3, Vocabulary::empty());
        let mut arena = TypeArena::new(Arc::clone(g.vocab()));
        arena.intern(TypeNode {
            rank: 0,
            cap: 1,
            arity: 1,
            atomic: AtomicType::of(&g, &[V(0)]),
            children: Box::new([]),
        });
        assert_eq!(arena.iter().count(), arena.len());
        assert!(!arena.is_empty());
    }
}
