//! Colour refinement (1-dimensional Weisfeiler–Leman).
//!
//! Iterative colour refinement assigns every vertex a colour that encodes
//! its initial colour plus the *multiset* of neighbour colours, repeated
//! until stabilisation. The classical correspondence (Cai–Fürer–Immerman,
//! Immerman–Lander): two vertices receive the same stable 1-WL colour iff
//! they satisfy the same formulas of the 2-variable counting logic `C²`.
//!
//! In this workspace it serves two roles:
//!
//! * a *scalable* (near-linear) coarse proxy for the counting-type
//!   machinery of `folearn-types` — and a cross-check: the round-`i` WL
//!   partition refines the counting 1-type partition of quantifier rank
//!   `min(i, 1)` for every cap (property-tested);
//! * a practical pre-grouping pass a query-learning system can use before
//!   paying for exact types.

use std::collections::HashMap;

use crate::graph::{Graph, V};

/// The result of colour refinement.
#[derive(Debug, Clone)]
pub struct WlColoring {
    /// Stable colour id per vertex (ids are dense, `0..num_colors`).
    pub colors: Vec<u32>,
    /// Number of distinct colours.
    pub num_colors: usize,
    /// Rounds needed to stabilise.
    pub rounds: usize,
}

impl WlColoring {
    /// Whether two vertices share a colour class.
    pub fn same_class(&self, u: V, v: V) -> bool {
        self.colors[u.index()] == self.colors[v.index()]
    }

    /// The colour classes as vertex lists.
    pub fn classes(&self) -> Vec<Vec<V>> {
        let mut out = vec![Vec::new(); self.num_colors];
        for (i, &c) in self.colors.iter().enumerate() {
            out[c as usize].push(V(i as u32));
        }
        out
    }
}

/// Run colour refinement until stabilisation (or `max_rounds`).
///
/// Initial colours are the vertices' colour bitsets; each round re-colours
/// by `(old colour, sorted multiset of neighbour colours)`.
pub fn color_refinement(g: &Graph, max_rounds: usize) -> WlColoring {
    let n = g.num_vertices();
    let classes = g.color_classes();
    let mut colors: Vec<u32> = g.vertices().map(|v| classes.class(v) as u32).collect();
    let mut num_colors = classes.len().max(1);
    let mut rounds = 0usize;
    for _ in 0..max_rounds {
        let mut next_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut next: Vec<u32> = Vec::with_capacity(n);
        for v in g.vertices() {
            let mut neigh: Vec<u32> = g.neighbors(v).iter().map(|&w| colors[w as usize]).collect();
            neigh.sort_unstable();
            let key = (colors[v.index()], neigh);
            let fresh = next_ids.len() as u32;
            next.push(*next_ids.entry(key).or_insert(fresh));
        }
        let new_count = next_ids.len();
        rounds += 1;
        let stabilised = new_count == num_colors;
        colors = next;
        num_colors = new_count.max(1);
        if stabilised {
            break;
        }
    }
    WlColoring {
        colors,
        num_colors,
        rounds,
    }
}

/// Run to full stabilisation (at most `n` rounds are ever needed).
pub fn stable_coloring(g: &Graph) -> WlColoring {
    color_refinement(g, g.num_vertices().max(1))
}

#[cfg(test)]
mod tests {
    use crate::generators;
    use crate::vocab::{ColorId, Vocabulary};

    use super::*;

    #[test]
    fn regular_graphs_stay_monochromatic() {
        let g = generators::cycle(8, Vocabulary::empty());
        let wl = stable_coloring(&g);
        assert_eq!(wl.num_colors, 1);
    }

    #[test]
    fn path_classes_are_distance_to_end() {
        // On P_7 the stable classes are symmetric distance-to-endpoint
        // layers: {0,6}, {1,5}, {2,4}, {3}.
        let g = generators::path(7, Vocabulary::empty());
        let wl = stable_coloring(&g);
        assert_eq!(wl.num_colors, 4);
        assert!(wl.same_class(V(0), V(6)));
        assert!(wl.same_class(V(1), V(5)));
        assert!(wl.same_class(V(2), V(4)));
        assert!(!wl.same_class(V(2), V(3)));
    }

    #[test]
    fn initial_colors_are_respected() {
        let g = generators::periodically_colored(
            &generators::cycle(6, Vocabulary::new(["Red"])),
            ColorId(0),
            2,
        );
        let wl = stable_coloring(&g);
        assert!(wl.num_colors >= 2);
        assert!(!wl.same_class(V(0), V(1))); // red vs plain
    }

    #[test]
    fn rounds_are_bounded_by_diameter_scale() {
        let g = generators::path(32, Vocabulary::empty());
        let wl = stable_coloring(&g);
        assert!(wl.rounds <= 17, "rounds = {}", wl.rounds);
        assert_eq!(wl.num_colors, 16);
    }

    #[test]
    fn classes_partition_the_vertices() {
        let g = generators::random_tree(30, Vocabulary::empty(), 3);
        let wl = stable_coloring(&g);
        let total: usize = wl.classes().iter().map(Vec::len).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn one_round_refines_counting_one_types() {
        // After ≥1 round, the WL partition refines the counting 1-type
        // partition at any cap: same WL colour ⇒ same counting 1-type.
        // (The full cross-check against counting types lives in the
        // workspace-level property tests, which can see folearn-types.)
        let g = generators::random_tree(20, Vocabulary::empty(), 9);
        let wl = color_refinement(&g, 1);
        // Degree is determined after one round on uncoloured graphs.
        for u in g.vertices() {
            for v in g.vertices() {
                if wl.same_class(u, v) {
                    assert_eq!(g.degree(u), g.degree(v), "{u} {v}");
                }
            }
        }
    }
}
