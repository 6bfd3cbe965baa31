//! Differential test of the type kernel against the plain recursion.
//!
//! The reference below is the Section 2 recursion written out with no
//! shortcuts: one child per vertex at every level, no memo, its own arena.
//! [`TypeComputer`] collapses the far vertices of each colour class into
//! one child at rank 1, and the vertices at distance at least 3 of each
//! one-round refinement class into one child at rank 2; this test checks
//! that it returns the same `TypeId` for every query *and* leaves a
//! node-for-node identical arena, so the ids it hands out (which travel on
//! the wire inside hypotheses) are exactly the reference's.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use folearn_graph::{bfs, generators, ops, ColorId, Graph, GraphBuilder, Vocabulary, V};
use folearn_types::arena::{TypeArena, TypeId, TypeNode};
use folearn_types::atomic::AtomicType;
use folearn_types::compute::TypeComputer;
use folearn_types::local::counting_local_type;

/// `tp_q(G, v̄)` by the per-vertex recursion, interned into `arena`.
fn reference(g: &Graph, arena: &mut TypeArena, tuple: &[V], q: usize, cap: u32) -> TypeId {
    let mut counts: BTreeMap<TypeId, u32> = BTreeMap::new();
    if q > 0 {
        let mut ext = tuple.to_vec();
        ext.push(V(0));
        for u in g.vertices() {
            *ext.last_mut().unwrap() = u;
            let child = reference(g, arena, &ext, q - 1, cap);
            let c = counts.entry(child).or_insert(0);
            *c = (*c + 1).min(cap);
        }
    }
    arena.intern(TypeNode {
        rank: q as u16,
        cap,
        arity: tuple.len() as u16,
        atomic: AtomicType::of(g, tuple),
        children: counts.into_iter().collect(),
    })
}

fn assert_same_arena(kernel: &TypeArena, reference: &TypeArena) {
    assert_eq!(kernel.len(), reference.len(), "arena sizes differ");
    for ((kid, knode), (rid, rnode)) in kernel.iter().zip(reference.iter()) {
        assert_eq!(kid, rid);
        assert_eq!(knode, rnode, "arenas differ at {kid:?}");
    }
}

/// A random graph over `vocab`: `n` vertices, edges with probability `p`,
/// and colour sets drawn from a small palette so that classes repeat.
fn random_graph(rng: &mut StdRng, vocab: &Vocabulary, n: usize, p: f64) -> Graph {
    let colors = vocab.num_colors();
    let palette: Vec<Vec<usize>> = (0..3)
        .map(|_| {
            (0..colors.min(4))
                .map(|_| rng.random_range(0..colors))
                .collect()
        })
        .collect();
    let mut b = GraphBuilder::with_vertices(vocab.clone(), n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p) {
                b.add_edge(V(u as u32), V(v as u32));
            }
        }
        if colors > 0 {
            let set = &palette[rng.random_range(0..palette.len())];
            let take = rng.random_range(0..=set.len());
            for &c in &set[..take] {
                b.set_color(V(u as u32), ColorId(c as u16));
            }
        }
    }
    b.build()
}

/// A random tuple of the given arity, entries possibly repeated.
fn random_tuple(rng: &mut StdRng, g: &Graph, arity: usize) -> Vec<V> {
    (0..arity)
        .map(|_| V(rng.random_range(0..g.num_vertices() as u32)))
        .collect()
}

fn vocabularies() -> Vec<Vocabulary> {
    vec![
        Vocabulary::empty(),
        Vocabulary::new(["Red"]),
        Vocabulary::new(["Red", "Blue", "Green"]),
        Vocabulary::new((0..70).map(|i| format!("C{i}"))),
    ]
}

/// The largest tuple arity asked at rank `q` (the reference walks `n^q`
/// extensions per query, each one `q` levels deep).
fn max_arity(q: usize) -> usize {
    if q >= 3 {
        1
    } else {
        3
    }
}

/// Run one session per (graph, cap) through both the kernel and the
/// reference, then compare every answer and the two arenas.
fn check_sessions(vocab: &Vocabulary, graphs: &[Graph], rng: &mut StdRng) {
    let mut kernel = TypeArena::new(Arc::new(vocab.clone()));
    let mut naive = TypeArena::new(Arc::new(vocab.clone()));
    for g in graphs {
        for cap in 1..=4u32 {
            let mut session = TypeComputer::with_cap(g, &mut kernel, cap);
            for _ in 0..4 {
                let q = rng.random_range(0..=3usize);
                let q = if g.num_vertices() > 6 { q.min(2) } else { q };
                let arity = if g.num_vertices() == 0 {
                    0
                } else {
                    rng.random_range(0..=max_arity(q))
                };
                let tuple = random_tuple(rng, g, arity);
                let got = session.type_of(&tuple, q);
                let want = reference(g, &mut naive, &tuple, q, cap);
                assert_eq!(got, want, "{g:?}, tuple {tuple:?}, q {q}, cap {cap}");
            }
        }
    }
    assert_same_arena(&kernel, &naive);
}

#[test]
fn kernel_matches_the_per_vertex_recursion_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for vocab in vocabularies() {
        for round in 0..12 {
            let graphs: Vec<Graph> = (0..3)
                .map(|_| {
                    let n = rng.random_range(0..=10usize);
                    let p = [0.0, 0.15, 0.4][round % 3];
                    random_graph(&mut rng, &vocab, n, p)
                })
                .collect();
            check_sessions(&vocab, &graphs, &mut rng);
        }
    }
}

#[test]
fn kernel_matches_on_tiny_and_edgeless_graphs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for vocab in vocabularies() {
        let graphs = vec![
            GraphBuilder::new(vocab.clone()).build(),
            GraphBuilder::with_vertices(vocab.clone(), 1).build(),
            random_graph(&mut rng, &vocab, 5, 0.0),
            random_graph(&mut rng, &vocab, 1, 0.0),
        ];
        check_sessions(&vocab, &graphs, &mut rng);
    }
}

#[test]
fn kernel_matches_on_every_rank_cap_and_repeated_tuple() {
    // Exhaustive over ranks 0–3, caps 1–4 and tuples with repeated
    // entries, including the empty tuple, on one coloured graph with an
    // isolated vertex.
    let vocab = Vocabulary::new(["Red", "Blue"]);
    let mut b = GraphBuilder::with_vertices(vocab.clone(), 6);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (1, 4)] {
        b.add_edge(V(u), V(v));
    }
    b.set_color(V(0), ColorId(0));
    b.set_color(V(3), ColorId(0));
    b.set_color(V(5), ColorId(1));
    let g = b.build();
    let tuples: Vec<Vec<V>> = vec![
        vec![],
        vec![V(1)],
        vec![V(5)],
        vec![V(2), V(2)],
        vec![V(0), V(3), V(0)],
    ];
    let mut kernel = TypeArena::new(Arc::new(vocab.clone()));
    let mut naive = TypeArena::new(Arc::new(vocab));
    for cap in 1..=4u32 {
        let mut session = TypeComputer::with_cap(&g, &mut kernel, cap);
        for q in 0..=3usize {
            for t in tuples.iter().filter(|t| q < 3 || t.len() <= 1) {
                let got = session.type_of(t, q);
                let want = reference(&g, &mut naive, t, q, cap);
                assert_eq!(got, want, "{t:?} q {q} cap {cap}");
            }
        }
    }
    assert_same_arena(&kernel, &naive);
}

#[test]
fn local_types_match_the_recursion_on_their_balls() {
    // Induced balls are fresh graphs, so each rebuilds its colour-class
    // index; the local type must still be the reference type of the ball.
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for vocab in vocabularies() {
        let mut kernel = TypeArena::new(Arc::new(vocab.clone()));
        let mut naive = TypeArena::new(Arc::new(vocab.clone()));
        for _ in 0..8 {
            let n = rng.random_range(1..=12usize);
            let g = random_graph(&mut rng, &vocab, n, 0.2);
            let q = rng.random_range(0..=2usize);
            let r = rng.random_range(0..=2usize);
            let cap = rng.random_range(1..=3u32);
            let arity = rng.random_range(1..=2usize);
            let tuple = random_tuple(&mut rng, &g, arity);
            let got = counting_local_type(&g, &mut kernel, &tuple, q, r, cap);
            let ball = ops::induced_subgraph(&g, &bfs::ball(&g, &tuple, r));
            let mapped = ball.map_tuple(&tuple).unwrap();
            let want = reference(&ball.graph, &mut naive, &mapped, q, cap);
            assert_eq!(got, want, "{g:?}, tuple {tuple:?}, q {q}, r {r}, cap {cap}");
        }
        assert_same_arena(&kernel, &naive);
    }
}

/// Sparse coloured graphs of 12–20 vertices with at least two colour
/// classes: paths, caterpillars and random graphs of maximum degree 3. Most
/// vertices lie at distance at least 3 from a short tuple there, so rank 2
/// collapses far witnesses.
fn sparse_graphs(rng: &mut StdRng, vocab: &Vocabulary) -> Vec<Graph> {
    let mut graphs = Vec::new();
    for round in 0..3u64 {
        let shapes = [
            generators::path(rng.random_range(12..=20), vocab.clone()),
            generators::caterpillar(rng.random_range(6..=10), 1, vocab.clone()),
            generators::caterpillar(rng.random_range(4..=6), 2, vocab.clone()),
            generators::bounded_degree_random(
                rng.random_range(12..=20),
                3,
                0.9,
                vocab.clone(),
                round,
            ),
        ];
        for shape in shapes {
            let red = generators::periodically_colored(&shape, ColorId(0), rng.random_range(2..=3));
            let g = generators::periodically_colored(&red, ColorId(1), 5);
            assert!(g.color_classes().len() >= 2, "{g:?} has one colour class");
            graphs.push(g);
        }
    }
    graphs
}

/// How many rank-2 witnesses of `tuple` stand for more than themselves:
/// the vertices outside `N_2[tuple]` minus the refinement classes they
/// fall in.
fn collapsed_at_rank_two(g: &Graph, tuple: &[V]) -> usize {
    let near = bfs::ball(g, tuple, 2);
    let mut far_classes: Vec<usize> = g
        .vertices()
        .filter(|v| near.binary_search(v).is_err())
        .map(|v| g.refinement_classes().class(v))
        .collect();
    let far = far_classes.len();
    far_classes.sort_unstable();
    far_classes.dedup();
    far - far_classes.len()
}

#[test]
fn kernel_matches_where_rank_two_collapses() {
    // Rank 2 at arities 0–3 and rank 3 at arity 1 (every rank-2 child of
    // a rank-3 query collapses too), caps 1–3, one session per (graph,
    // cap) over two shared arenas.
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    let vocab = Vocabulary::new(["Red", "Blue"]);
    let mut kernel = TypeArena::new(Arc::new(vocab.clone()));
    let mut naive = TypeArena::new(Arc::new(vocab.clone()));
    for g in sparse_graphs(&mut rng, &vocab) {
        let mut collapsed = 0;
        for cap in 1..=3u32 {
            let mut session = TypeComputer::with_cap(&g, &mut kernel, cap);
            for (q, arity) in [(2, 0), (2, 1), (2, 1), (2, 2), (2, 3), (3, 1)] {
                let tuple = random_tuple(&mut rng, &g, arity);
                collapsed += collapsed_at_rank_two(&g, &tuple);
                let got = session.type_of(&tuple, q);
                let want = reference(&g, &mut naive, &tuple, q, cap);
                assert_eq!(got, want, "{g:?}, tuple {tuple:?}, q {q}, cap {cap}");
            }
        }
        assert!(collapsed > 0, "{g:?}: no rank-2 query collapsed a witness");
    }
    assert_same_arena(&kernel, &naive);
}

#[test]
fn local_rank_two_types_match_the_recursion_on_wide_balls() {
    // Balls of radius 3–4 around one or two entries still have vertices
    // at distance 3 from the tuple, so the local rank-2 kernel collapses
    // witnesses with the refinement classes of the ball, not of the graph.
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    let vocab = Vocabulary::new(["Red", "Blue"]);
    let mut kernel = TypeArena::new(Arc::new(vocab.clone()));
    let mut naive = TypeArena::new(Arc::new(vocab.clone()));
    let mut collapsed = 0;
    for g in sparse_graphs(&mut rng, &vocab) {
        for cap in 1..=3u32 {
            let r = rng.random_range(3..=4usize);
            let arity = rng.random_range(1..=2usize);
            let tuple = random_tuple(&mut rng, &g, arity);
            let got = counting_local_type(&g, &mut kernel, &tuple, 2, r, cap);
            let ball = ops::induced_subgraph(&g, &bfs::ball(&g, &tuple, r));
            let mapped = ball.map_tuple(&tuple).unwrap();
            collapsed += collapsed_at_rank_two(&ball.graph, &mapped);
            let want = reference(&ball.graph, &mut naive, &mapped, 2, cap);
            assert_eq!(got, want, "{g:?}, tuple {tuple:?}, r {r}, cap {cap}");
        }
    }
    assert!(collapsed > 0, "no local rank-2 query collapsed a witness");
    assert_same_arena(&kernel, &naive);
}

#[test]
fn atomic_index_gives_the_ids_of_plain_interning() {
    // Tuples of arity 0–9 over vocabularies of 0, 1, 8, 9 and 65 colours
    // at caps 1–3: inside the packed bounds (arity ≤ 8, ≤ 8 colours) and
    // outside them. Each rank-0 node goes into one arena through both
    // `intern_atomic` and `intern`, in a random order, and into a second
    // arena through `intern` alone; every id and every node must agree.
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for colors in [0usize, 1, 8, 9, 65] {
        let vocab = Vocabulary::new((0..colors).map(|i| format!("C{i}")));
        let mut both = TypeArena::new(Arc::new(vocab.clone()));
        let mut plain = TypeArena::new(Arc::new(vocab.clone()));
        for round in 0..6 {
            let n = rng.random_range(1..=8usize);
            let g = random_graph(&mut rng, &vocab, n, [0.0, 0.3, 0.6][round % 3]);
            for _ in 0..150 {
                let arity = rng.random_range(0..=9usize);
                let cap = rng.random_range(1..=3u32);
                let tuple = random_tuple(&mut rng, &g, arity);
                let node = TypeNode {
                    rank: 0,
                    cap,
                    arity: arity as u16,
                    atomic: AtomicType::of(&g, &tuple),
                    children: Box::new([]),
                };
                let want = plain.intern(node.clone());
                let at = || format!("{colors} colours, {g:?}, tuple {tuple:?}, cap {cap}");
                if rng.random_bool(0.5) {
                    assert_eq!(
                        both.intern_atomic(&g, &tuple, cap),
                        want,
                        "fast first: {}",
                        at()
                    );
                    assert_eq!(both.intern(node), want, "plain second: {}", at());
                } else {
                    assert_eq!(both.intern(node), want, "plain first: {}", at());
                    assert_eq!(
                        both.intern_atomic(&g, &tuple, cap),
                        want,
                        "fast second: {}",
                        at()
                    );
                }
            }
        }
        assert_same_arena(&both, &plain);
    }
}
