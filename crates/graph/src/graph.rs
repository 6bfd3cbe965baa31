//! Immutable coloured graphs in compressed-sparse-row form.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::vocab::{ColorId, Vocabulary};

/// A vertex handle. Vertices of an `n`-vertex graph are `V(0) … V(n-1)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct V(pub u32);

impl V {
    /// The vertex's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for V {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An undirected, simple, vertex-coloured graph, stored in CSR form.
///
/// This is the paper's background structure: a relational structure
/// `(V, E, P_1, …, P_c)` with symmetric irreflexive `E` and unary `P_j`.
/// Graphs are immutable after construction (build them with
/// [`crate::GraphBuilder`]); all derived graphs (induced subgraphs,
/// unions, expansions) are produced by the functions in [`crate::ops`].
#[derive(Clone)]
pub struct Graph {
    vocab: Arc<Vocabulary>,
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// CSR column indices (sorted within each row), length `2|E|`.
    targets: Vec<u32>,
    /// Per-vertex colour bitsets, `words_per_vertex` words each.
    colors: Vec<u64>,
    words_per_vertex: usize,
    /// Colour class of each vertex (vertices with equal colour sets share
    /// a class; classes are numbered in order of their first vertex).
    class_of: Vec<u32>,
    /// CSR row offsets of the class member lists, length `#classes + 1`.
    class_offsets: Vec<u32>,
    /// Class members, sorted within each class, length `n`.
    class_members: Vec<u32>,
}

impl Graph {
    pub(crate) fn from_parts(
        vocab: Arc<Vocabulary>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        colors: Vec<u64>,
        words_per_vertex: usize,
    ) -> Self {
        let n = offsets.len() - 1;
        debug_assert_eq!(colors.len(), n * words_per_vertex);
        let mut class_ids: HashMap<&[u64], u32> = HashMap::new();
        let mut sizes: Vec<u32> = Vec::new();
        let class_of: Vec<u32> = colors
            .chunks_exact(words_per_vertex)
            .map(|set| {
                let c = *class_ids.entry(set).or_insert_with(|| {
                    sizes.push(0);
                    sizes.len() as u32 - 1
                });
                sizes[c as usize] += 1;
                c
            })
            .collect();
        let mut class_offsets = Vec::with_capacity(sizes.len() + 1);
        class_offsets.push(0u32);
        for &size in &sizes {
            class_offsets.push(class_offsets.last().unwrap() + size);
        }
        let mut class_members: Vec<u32> = (0..n as u32).collect();
        // A stable sort keeps each class's members in vertex order.
        class_members.sort_by_key(|&v| class_of[v as usize]);
        Self {
            vocab,
            offsets,
            targets,
            colors,
            words_per_vertex,
            class_of,
            class_offsets,
            class_members,
        }
    }

    /// The graph's vocabulary.
    #[inline]
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// Number of vertices (the *order* of the graph).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = V> + Clone {
        (0..self.num_vertices() as u32).map(V)
    }

    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[u32] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: V, v: V) -> bool {
        u != v && self.neighbors(u).binary_search(&v.0).is_ok()
    }

    /// Whether vertex `v` has colour `c`.
    #[inline]
    pub fn has_color(&self, v: V, c: ColorId) -> bool {
        let w = self.colors[v.index() * self.words_per_vertex + c.index() / 64];
        w >> (c.index() % 64) & 1 == 1
    }

    /// The raw colour bitset of `v` (`words_per_vertex` words).
    #[inline]
    pub fn color_words(&self, v: V) -> &[u64] {
        let s = self.words_per_vertex;
        &self.colors[v.index() * s..(v.index() + 1) * s]
    }

    /// Words per per-vertex colour bitset.
    #[inline]
    pub fn words_per_vertex(&self) -> usize {
        self.words_per_vertex
    }

    /// The colour class of `v`: two vertices share a class iff they carry
    /// the same colour set. Classes are numbered `0 … num_color_classes()`
    /// in order of their first vertex.
    #[inline]
    pub fn color_class(&self, v: V) -> usize {
        self.class_of[v.index()] as usize
    }

    /// Number of distinct colour sets among the vertices (0 for the empty
    /// graph).
    #[inline]
    pub fn num_color_classes(&self) -> usize {
        self.class_offsets.len() - 1
    }

    /// The members of colour class `c`, in increasing vertex order.
    #[inline]
    pub fn color_class_members(&self, c: usize) -> &[u32] {
        let lo = self.class_offsets[c] as usize;
        let hi = self.class_offsets[c + 1] as usize;
        &self.class_members[lo..hi]
    }

    /// All vertices carrying colour `c`.
    pub fn vertices_with_color(&self, c: ColorId) -> Vec<V> {
        self.vertices().filter(|&v| self.has_color(v, c)).collect()
    }

    /// All edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (V, V)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&w| w > u.0)
                .map(move |&w| (u, V(w)))
        })
    }

    /// Whether `v` is isolated (degree 0).
    #[inline]
    pub fn is_isolated(&self, v: V) -> bool {
        self.degree(v) == 0
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, colours={})",
            self.num_vertices(),
            self.num_edges(),
            self.vocab.num_colors()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::vocab::Vocabulary;

    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(Vocabulary::new(["Red"]));
        let a = b.add_vertex();
        let c = b.add_vertex();
        let d = b.add_vertex();
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.add_edge(d, a);
        b.set_color(a, ColorId(0));
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(V(0), V(1)));
        assert!(g.has_edge(V(1), V(0)));
        assert!(!g.has_edge(V(0), V(0)));
        assert!(g.has_color(V(0), ColorId(0)));
        assert!(!g.has_color(V(1), ColorId(0)));
        assert_eq!(g.vertices_with_color(ColorId(0)), vec![V(0)]);
    }

    #[test]
    fn edges_listed_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), 3);
        for (u, v) in e {
            assert!(u < v);
        }
    }

    #[test]
    fn color_classes_group_equal_colour_sets() {
        let vocab = Vocabulary::new((0..70).map(|i| format!("C{i}")));
        let mut b = GraphBuilder::with_vertices(vocab, 5);
        b.set_color(V(1), ColorId(69));
        b.set_color(V(2), ColorId(3));
        b.set_color(V(3), ColorId(69));
        let g = b.build();
        assert_eq!(g.num_color_classes(), 3);
        let classes: Vec<usize> = g.vertices().map(|v| g.color_class(v)).collect();
        assert_eq!(classes, vec![0, 1, 2, 1, 0]);
        assert_eq!(g.color_class_members(0), &[0, 4]);
        assert_eq!(g.color_class_members(1), &[1, 3]);
        assert_eq!(g.color_class_members(2), &[2]);
        let empty = GraphBuilder::new(Vocabulary::empty()).build();
        assert_eq!(empty.num_color_classes(), 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = triangle();
        for v in g.vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
