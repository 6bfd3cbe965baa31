//! Immutable coloured graphs in compressed-sparse-row form.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::vocab::{ColorId, Vocabulary};
use crate::wl;

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
    /// Vertices grouped by colour set.
    color_classes: VertexClasses,
    /// Vertices grouped by one round of colour refinement, built on first
    /// use (boxed: a graph that never asks for it carries one pointer).
    refinement_classes: OnceLock<Box<VertexClasses>>,
}

/// A partition of the vertices into classes numbered `0 … len()` in order
/// of their first vertex, with each class's members in vertex order.
#[derive(Clone, Debug)]
pub struct VertexClasses {
    class_of: Vec<u32>,
    /// CSR row offsets of the member lists, length `len() + 1`.
    offsets: Vec<u32>,
    /// Members, sorted within each class, length `n`.
    members: Vec<u32>,
}

impl VertexClasses {
    /// Group vertex `v` into class `class_of[v]`; the labels must number
    /// classes densely in order of their first vertex.
    fn new(class_of: Vec<u32>) -> Self {
        let len = class_of.iter().max().map_or(0, |&c| c as usize + 1);
        let mut offsets = vec![0u32; len + 1];
        for &c in &class_of {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..len {
            offsets[c + 1] += offsets[c];
        }
        let mut members: Vec<u32> = (0..class_of.len() as u32).collect();
        // A stable sort keeps each class's members in vertex order.
        members.sort_by_key(|&v| class_of[v as usize]);
        Self {
            class_of,
            offsets,
            members,
        }
    }

    /// The class of `v`.
    #[inline]
    pub fn class(&self, v: V) -> usize {
        self.class_of[v.index()] as usize
    }

    /// Number of classes (0 for the empty graph).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no classes (the graph is empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members of class `c`, in increasing vertex order.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        let lo = self.offsets[c] as usize;
        let hi = self.offsets[c + 1] as usize;
        &self.members[lo..hi]
    }
}

impl Graph {
    pub(crate) fn from_parts(
        vocab: Arc<Vocabulary>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        colors: Vec<u64>,
        words_per_vertex: usize,
    ) -> Self {
        debug_assert_eq!(colors.len(), (offsets.len() - 1) * words_per_vertex);
        let color_classes = {
            let mut ids: HashMap<&[u64], u32> = HashMap::new();
            VertexClasses::new(
                colors
                    .chunks_exact(words_per_vertex)
                    .map(|set| {
                        let fresh = ids.len() as u32;
                        *ids.entry(set).or_insert(fresh)
                    })
                    .collect(),
            )
        };
        Self {
            vocab,
            offsets,
            targets,
            colors,
            words_per_vertex,
            color_classes,
            refinement_classes: OnceLock::new(),
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

    /// The colour classes: two vertices share a class iff they carry the
    /// same colour set.
    #[inline]
    pub fn color_classes(&self) -> &VertexClasses {
        &self.color_classes
    }

    /// The classes after one round of colour refinement: two vertices
    /// share a class iff they carry the same colour set and their
    /// neighbours carry the same multiset of colour sets. Built from
    /// [`wl::color_refinement`] on first use and kept with the graph.
    pub fn refinement_classes(&self) -> &VertexClasses {
        self.refinement_classes
            .get_or_init(|| Box::new(VertexClasses::new(wl::color_refinement(self, 1).colors)))
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
        let classes = g.color_classes();
        assert_eq!(classes.len(), 3);
        let of: Vec<usize> = g.vertices().map(|v| classes.class(v)).collect();
        assert_eq!(of, vec![0, 1, 2, 1, 0]);
        assert_eq!(classes.members(0), &[0, 4]);
        assert_eq!(classes.members(1), &[1, 3]);
        assert_eq!(classes.members(2), &[2]);
        let empty = GraphBuilder::new(Vocabulary::empty()).build();
        assert!(empty.color_classes().is_empty());
        assert!(empty.refinement_classes().is_empty());
    }

    #[test]
    fn refinement_classes_split_colour_classes_by_neighbour_colours() {
        // Path 0-1-2-3-4-5 with 0 and 3 red: the plain vertices split into
        // {1, 2, 4} (one red and one plain neighbour) and {5} (one plain);
        // the red ones into {0} (one plain) and {3} (two plain).
        let mut b = GraphBuilder::with_vertices(Vocabulary::new(["Red"]), 6);
        for i in 0..5 {
            b.add_edge(V(i), V(i + 1));
        }
        b.set_color(V(0), ColorId(0));
        b.set_color(V(3), ColorId(0));
        let g = b.build();
        let classes = g.refinement_classes();
        assert_eq!(classes.len(), 4);
        let of: Vec<usize> = g.vertices().map(|v| classes.class(v)).collect();
        assert_eq!(of, vec![0, 1, 1, 2, 1, 3]);
        assert_eq!(classes.members(1), &[1, 2, 4]);
        assert!(std::ptr::eq(classes, g.refinement_classes()));
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
