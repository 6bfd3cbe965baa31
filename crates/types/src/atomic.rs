//! Atomic (quantifier-free) types of tuples.

use folearn_graph::{Graph, V};

/// The atomic type of a `k`-tuple `v̄`: everything a quantifier-free
/// formula can say about it — the equality pattern, the adjacency pattern,
/// and the colours of each entry.
///
/// Atomic types are canonical: two tuples (possibly in different graphs
/// over the same vocabulary) have equal `AtomicType`s iff they satisfy the
/// same quantifier-free formulas.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AtomicType {
    /// Tuple arity.
    pub k: u16,
    /// Equality partition in canonical form: `eq[i]` is the smallest index
    /// `j` with `v_j = v_i`.
    pub eq: Vec<u16>,
    /// Adjacency bits, row-major over pairs `i < j`: bit `p(i,j)` set iff
    /// `E(v_i, v_j)`.
    pub adj: Vec<u64>,
    /// Colour bitsets of the entries, concatenated: entry `i` occupies
    /// words `[i·w, (i+1)·w)` where `w` is the vocabulary's
    /// words-per-vertex.
    pub colors: Vec<u64>,
}

#[inline]
fn pair_index(i: usize, j: usize) -> usize {
    debug_assert!(i < j);
    j * (j - 1) / 2 + i
}

impl AtomicType {
    /// Compute the atomic type of `tuple` in `g`.
    pub fn of(g: &Graph, tuple: &[V]) -> Self {
        let k = tuple.len();
        let mut eq = Vec::with_capacity(k);
        for (i, &vi) in tuple.iter().enumerate() {
            let first = tuple[..i].iter().position(|&vj| vj == vi).unwrap_or(i);
            eq.push(first as u16);
        }
        let pairs = k * k.saturating_sub(1) / 2;
        let mut adj = vec![0u64; pairs.div_ceil(64).max(1)];
        for j in 1..k {
            for i in 0..j {
                if g.has_edge(tuple[i], tuple[j]) {
                    let p = pair_index(i, j);
                    adj[p / 64] |= 1u64 << (p % 64);
                }
            }
        }
        let w = g.words_per_vertex();
        let mut colors = Vec::with_capacity(k * w);
        for &v in tuple {
            colors.extend_from_slice(g.color_words(v));
        }
        Self {
            k: k as u16,
            eq,
            adj,
            colors,
        }
    }

    /// Whether entries `i` and `j` are equal.
    #[inline]
    pub fn entries_equal(&self, i: usize, j: usize) -> bool {
        self.eq[i] == self.eq[j]
    }

    /// Whether entries `i` and `j` are adjacent.
    #[inline]
    pub fn entries_adjacent(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let p = pair_index(a, b);
        self.adj[p / 64] >> (p % 64) & 1 == 1
    }

    /// Whether entry `i` has colour index `c` (given the words-per-vertex
    /// stride `w` the type was built with).
    #[inline]
    pub fn entry_has_color(&self, i: usize, c: usize, w: usize) -> bool {
        self.colors[i * w + c / 64] >> (c % 64) & 1 == 1
    }
}

/// The atomic type of a short tuple over a small vocabulary, packed into
/// two words: built without allocating, and equal for two tuples (over
/// one vocabulary) iff their [`AtomicType`]s are equal.
///
/// `shape` holds the arity in bits 0–3, the equality pattern in bits
/// 4–27 (three bits per entry: the smallest index of an equal entry) and
/// the adjacency bits in bits 28–55 (pair `p(i, j)` at bit `28 + p`, as
/// in [`AtomicType::adj`]). `colors` holds entry `i`'s colour set in byte
/// `i`. Exists only for arity at most [`PackedAtomic::MAX_ARITY`] and at
/// most [`PackedAtomic::MAX_COLORS`] colours.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PackedAtomic {
    shape: u64,
    colors: u64,
}

impl PackedAtomic {
    /// The largest arity that packs.
    pub const MAX_ARITY: usize = 8;
    /// The largest vocabulary that packs.
    pub const MAX_COLORS: usize = 8;

    /// Pack the atomic type of `tuple` in `g`, or `None` when the tuple
    /// or the vocabulary is too large.
    #[inline]
    pub fn of(g: &Graph, tuple: &[V]) -> Option<Self> {
        if tuple.len() > Self::MAX_ARITY || g.vocab().num_colors() > Self::MAX_COLORS {
            return None;
        }
        let mut shape = tuple.len() as u64;
        let mut colors = 0u64;
        for (j, &vj) in tuple.iter().enumerate() {
            let first = tuple[..j].iter().position(|&vi| vi == vj).unwrap_or(j);
            shape |= (first as u64) << (4 + 3 * j);
            for (i, &vi) in tuple[..j].iter().enumerate() {
                if g.has_edge(vi, vj) {
                    shape |= 1u64 << (28 + pair_index(i, j));
                }
            }
            colors |= g.color_words(vj)[0] << (8 * j);
        }
        Some(Self { shape, colors })
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, ColorId, Vocabulary};

    use super::*;

    fn colored_path() -> Graph {
        let g = generators::path(5, Vocabulary::new(["Red"]));
        generators::periodically_colored(&g, ColorId(0), 2)
    }

    #[test]
    fn equality_pattern_is_canonical() {
        let g = colored_path();
        let t = AtomicType::of(&g, &[V(1), V(2), V(1)]);
        assert_eq!(t.eq, vec![0, 1, 0]);
        assert!(t.entries_equal(0, 2));
        assert!(!t.entries_equal(0, 1));
    }

    #[test]
    fn adjacency_pattern() {
        let g = colored_path();
        let t = AtomicType::of(&g, &[V(0), V(1), V(3)]);
        assert!(t.entries_adjacent(0, 1));
        assert!(t.entries_adjacent(1, 0));
        assert!(!t.entries_adjacent(0, 2));
        assert!(!t.entries_adjacent(1, 1));
    }

    #[test]
    fn colors_recorded() {
        let g = colored_path();
        let t = AtomicType::of(&g, &[V(0), V(1)]);
        let w = g.words_per_vertex();
        assert!(t.entry_has_color(0, 0, w)); // V(0) is Red
        assert!(!t.entry_has_color(1, 0, w));
    }

    #[test]
    fn equal_patterns_equal_types() {
        let g = colored_path();
        // (0,1) and (2,3): Red-then-plain adjacent pairs.
        let a = AtomicType::of(&g, &[V(0), V(1)]);
        let b = AtomicType::of(&g, &[V(2), V(3)]);
        assert_eq!(a, b);
        // (1,2): plain-then-Red — different.
        let c = AtomicType::of(&g, &[V(1), V(2)]);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_tuple() {
        let g = colored_path();
        let t = AtomicType::of(&g, &[]);
        assert_eq!(t.k, 0);
        assert!(t.eq.is_empty());
    }

    #[test]
    fn cross_graph_comparability() {
        let vocab = Vocabulary::new(["Red"]);
        let g1 = generators::path(3, vocab.clone());
        let g2 = generators::path(10, vocab);
        let a = AtomicType::of(&g1, &[V(0), V(1)]);
        let b = AtomicType::of(&g2, &[V(4), V(5)]);
        assert_eq!(a, b);
    }

    #[test]
    fn pair_index_distinct() {
        let mut seen = std::collections::HashSet::new();
        for j in 1..8 {
            for i in 0..j {
                assert!(seen.insert(pair_index(i, j)));
            }
        }
        assert_eq!(seen.len(), 28);
        assert_eq!(*seen.iter().max().unwrap(), 27);
    }
}
