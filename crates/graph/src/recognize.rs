//! Structure detection: which graph family is this?
//!
//! The paper's splitting-set theorems are *per family* — grids get
//! GridSplit (Theorem 19), forests get the smallest-subtree-first DFS
//! splitter, paths get prefix splitting with `σ_p ≤ 2` — so an automatic
//! splitter choice needs to know which family an anonymous [`Graph`]
//! belongs to. [`recognize`] classifies a graph as (in order of
//! preference) a disjoint union of paths, a forest, a full rectangular
//! lattice (with the integer embedding reconstructed, so GridSplit can run
//! on it), or arbitrary.
//!
//! Lattice recognition is *sound but deliberately not complete*: the
//! reconstruction handles full axis-aligned boxes `[0,n₁)×…×[0,n_d)` in
//! any dimension, and every accepted embedding is verified edge-by-edge
//! (edges ⟺ `L1` distance 1), so a false positive is impossible — an
//! irregular grid subset simply falls through to [`Structure::Arbitrary`].
//! Callers that *know* their geometry (percolation subsets, blobs) should
//! carry a [`GridGraph`] instead of a bare [`Graph`] and skip detection.

#[expect(
    clippy::disallowed_types,
    reason = "coordinate-to-vertex lookups only; never iterated"
)]
use std::collections::HashMap;

use crate::gen::grid::GridGraph;
use crate::graph::{Graph, VertexId};

/// The graph family detected by [`recognize`].
#[derive(Clone, Debug)]
pub enum Structure {
    /// A disjoint union of simple paths (isolated vertices allowed).
    /// `positions[v]` orders the vertices along their paths: sorting by it
    /// walks each path end to end, one path after another.
    Path {
        /// Linear position key per vertex (paths concatenated).
        positions: Vec<i64>,
    },
    /// An acyclic graph that is not a union of paths.
    Forest,
    /// A full rectangular lattice; carries the reconstructed embedding
    /// (vertex ids identical to the input graph's).
    Grid(Box<GridGraph>),
    /// None of the above.
    Arbitrary,
}

impl Structure {
    /// Short family name, for reports and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Path { .. } => "path",
            Structure::Forest => "forest",
            Structure::Grid(_) => "grid",
            Structure::Arbitrary => "arbitrary",
        }
    }
}

thread_local! {
    /// Per-thread count of [`recognize`] invocations — a deterministic
    /// observability counter (monotone, never reset) for the
    /// construction-cost regression tests: an explicit splitter choice
    /// must not pay the recognition pass, and the warm artifact path must
    /// not re-run it on a cache hit.
    static RECOGNITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`recognize`] has run on this thread. Subtract two
/// snapshots around a region to count the recognitions it performed;
/// see `tests/api.rs` (workspace root) for the regression pattern.
pub fn recognition_count() -> u64 {
    RECOGNITIONS.with(|c| c.get())
}

/// Classify `g` into a [`Structure`].
///
/// Runs in `O((n + m)·d)` (the lattice attempt dominates and bails out
/// early on non-lattices).
pub fn recognize(g: &Graph) -> Structure {
    RECOGNITIONS.with(|c| c.set(c.get() + 1));
    let n = g.num_vertices();
    let (_, components) = g.components();
    let is_forest = g.num_edges() + components == n;
    if is_forest && g.max_degree() <= 2 {
        return Structure::Path {
            positions: path_positions(g),
        };
    }
    if is_forest {
        return Structure::Forest;
    }
    match try_lattice_embedding(g) {
        Some(grid) => Structure::Grid(Box::new(grid)),
        None => Structure::Arbitrary,
    }
}

/// Linear positions for a disjoint union of simple paths: walk each
/// component from one of its endpoints, numbering vertices consecutively
/// with a global counter.
///
/// # Panics
/// Panics if `g` is not a union of paths (some vertex has degree > 2 or a
/// component is a cycle).
pub fn path_positions(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices();
    assert!(
        g.max_degree() <= 2,
        "path_positions requires max degree <= 2"
    );
    let mut pos = vec![0i64; n];
    let mut seen = vec![false; n];
    let mut next = 0i64;
    // Endpoints first (degree <= 1); a leftover unseen vertex would mean a
    // cycle component.
    for start in (0..n as u32).filter(|&v| g.degree(v) <= 1) {
        if seen[start as usize] {
            continue;
        }
        let mut prev: Option<VertexId> = None;
        let mut cur = start;
        loop {
            seen[cur as usize] = true;
            pos[cur as usize] = next;
            next += 1;
            let step = g
                .neighbors(cur)
                .iter()
                .map(|&(nb, _)| nb)
                .find(|&nb| Some(nb) != prev && !seen[nb as usize]);
            match step {
                Some(nb) => {
                    prev = Some(cur);
                    cur = nb;
                }
                None => break,
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "path_positions requires acyclic components"
    );
    pos
}

/// Try to reconstruct an integer lattice embedding of `g`.
///
/// Succeeds exactly on graphs isomorphic to a full rectangular lattice
/// `[0,n₁)×…×[0,n_d)` with every extent ≥ 2 (lower-dimensional boxes are
/// recognized at their effective dimension). The embedding is anchored at
/// a minimum-degree vertex (a lattice corner) and grown layer by layer:
/// a vertex with one already-placed neighbor continues that neighbor's
/// ray; a vertex with several takes their componentwise maximum. The
/// candidate embedding is then verified — every edge must join points at
/// `L1` distance exactly 1 and every distance-1 pair must be an edge — so
/// the function never returns a wrong embedding.
#[expect(
    clippy::disallowed_types,
    reason = "coordinate-to-vertex lookups only; never iterated"
)]
pub fn try_lattice_embedding(g: &Graph) -> Option<GridGraph> {
    let n = g.num_vertices();
    if n == 0 || !g.is_connected() {
        return None;
    }
    let v0 = (0..n as u32).min_by_key(|&v| g.degree(v))?;
    let dim = g.degree(v0);
    if dim == 0 || g.max_degree() > 2 * dim {
        return None;
    }

    let mut coord: Vec<Option<Vec<i64>>> = vec![None; n];
    let mut ray: Vec<Vec<i64>> = vec![vec![]; n]; // discovery direction
    let mut occupied: HashMap<Vec<i64>, VertexId> = HashMap::with_capacity(n);
    let mut next_axis = 0usize;

    coord[v0 as usize] = Some(vec![0; dim]);
    occupied.insert(vec![0; dim], v0);
    let mut queue = std::collections::VecDeque::from([v0]);
    let mut enqueued = vec![false; n];
    enqueued[v0 as usize] = true;

    while let Some(v) = queue.pop_front() {
        for &(nb, _) in g.neighbors(v) {
            if !enqueued[nb as usize] {
                enqueued[nb as usize] = true;
                queue.push_back(nb);
            }
        }
        if v == v0 {
            continue;
        }
        let placed: Vec<&Vec<i64>> = g
            .neighbors(v)
            .iter()
            .filter_map(|&(nb, _)| coord[nb as usize].as_ref())
            .collect();
        let c = match placed.len() {
            0 => return None, // BFS order guarantees a placed neighbor
            1 => {
                let p = placed[0];
                let from = *occupied.get(p).expect("placed coords are occupied");
                if from == v0 {
                    // A fresh axis out of the corner.
                    if next_axis >= dim {
                        return None;
                    }
                    let mut c = vec![0i64; dim];
                    c[next_axis] = 1;
                    next_axis += 1;
                    c
                } else {
                    // Continue the ray that discovered `from`.
                    let dir = &ray[from as usize];
                    if dir.is_empty() {
                        return None;
                    }
                    p.iter().zip(dir).map(|(a, b)| a + b).collect()
                }
            }
            _ => {
                // Componentwise max of the placed neighbors; each must end
                // up at L1 distance 1 from it.
                let mut c = placed[0].clone();
                for p in &placed[1..] {
                    for (a, &b) in c.iter_mut().zip(p.iter()) {
                        *a = (*a).max(b);
                    }
                }
                if placed.iter().any(|p| l1(&c, p) != 1) {
                    return None;
                }
                c
            }
        };
        let anchor = placed[0].clone();
        if occupied.insert(c.clone(), v).is_some() {
            return None; // collision: not an injective embedding
        }
        ray[v as usize] = c.iter().zip(&anchor).map(|(a, b)| a - b).collect();
        coord[v as usize] = Some(c);
    }

    // Verification: edges ⟺ L1 distance 1.
    let coords: Vec<Vec<i64>> = coord.into_iter().collect::<Option<_>>()?;
    for &(u, v) in g.edge_list() {
        if l1(&coords[u as usize], &coords[v as usize]) != 1 {
            return None;
        }
    }
    let mut probe = vec![0i64; dim];
    for v in 0..n as u32 {
        probe.copy_from_slice(&coords[v as usize]);
        for axis in 0..dim {
            for delta in [-1i64, 1] {
                probe[axis] += delta;
                if let Some(&u) = occupied.get(&probe) {
                    if !g.has_edge(v, u) {
                        return None;
                    }
                }
                probe[axis] -= delta;
            }
        }
    }
    let flat: Vec<i64> = coords.into_iter().flatten().collect();
    Some(GridGraph::from_graph_coords(g.clone(), dim, flat))
}

fn l1(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Try to identify `g` as a torus lattice `Z_{e₁} × … × Z_{e_d}` in the
/// odometer vertex layout of [`crate::gen::lattice::torus`] (axis 0
/// fastest).
///
/// Sound but deliberately layout-sensitive: candidate extent vectors are
/// enumerated from the factorizations of `n` (pruned by the regular
/// degree a torus must have) and each candidate is **verified by exact
/// edge-set comparison** against the generator, so a `Some` answer is
/// always a true torus — a relabeled torus simply falls through to
/// `None`, which downstream consumers (the structure-aware lower bounds
/// in `mmb-core`) treat as "no structural certificate". Extents of 1 are
/// never reported (they contribute no edges); the all-2 torus is the
/// hypercube and is reported here too if the layout matches.
///
/// The enumeration is capped (dimension ≤ 6, ≤ 512 candidate
/// verifications) so the hook stays cheap on highly composite `n`.
pub fn try_torus_dims(g: &Graph) -> Option<Vec<usize>> {
    let n = g.num_vertices();
    if n < 2 || g.num_edges() == 0 || !g.is_connected() {
        return None;
    }
    // A torus is regular; the degree pins down the extent profile:
    // each extent ≥ 3 contributes 2 to the degree, each extent of 2
    // contributes 1.
    let deg = g.degree(0);
    if (1..n as u32).any(|v| g.degree(v) != deg) {
        return None;
    }
    let mut budget = 512usize;
    let mut dims = Vec::new();
    try_torus_rec(g, n, deg, &mut dims, &mut budget)
}

/// DFS over ordered factorizations of `remaining` into extents ≥ 2 whose
/// degree contributions can still reach `deg_left`. Ordered (not sorted)
/// enumeration matters: the odometer layout is not symmetric under axis
/// permutation, so `[4, 5]` and `[5, 4]` are distinct candidates.
fn try_torus_rec(
    g: &Graph,
    remaining: usize,
    deg_left: usize,
    dims: &mut Vec<usize>,
    budget: &mut usize,
) -> Option<Vec<usize>> {
    if remaining == 1 {
        if deg_left != 0 || dims.is_empty() {
            return None;
        }
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        // The odometer layout fixes vertex ids, so equality of edge lists
        // is a complete (and sound) isomorphism check for this layout.
        let candidate = crate::gen::lattice::torus(dims);
        if candidate.edge_list() == g.edge_list() {
            return Some(dims.clone());
        }
        return None;
    }
    if dims.len() >= 6 || *budget == 0 {
        return None;
    }
    let mut e = 2usize;
    while e <= remaining {
        if remaining.is_multiple_of(e) {
            let contrib = if e >= 3 { 2 } else { 1 };
            if deg_left >= contrib {
                dims.push(e);
                if let Some(found) =
                    try_torus_rec(g, remaining / e, deg_left - contrib, dims, budget)
                {
                    return Some(found);
                }
                dims.pop();
            }
        }
        e += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid::GridGraph;
    use crate::gen::misc::{complete, cycle, ladder, path, star};
    use crate::gen::tree::{caterpillar, complete_binary_tree, random_tree};
    use crate::graph::graph_from_edges;

    #[test]
    fn recognizes_paths_and_orders_them() {
        let g = path(7);
        match recognize(&g) {
            Structure::Path { positions } => {
                // Ids are positions for gen::misc::path; the walk must be
                // monotone along the path (either direction).
                let mut order: Vec<u32> = (0..7).collect();
                order.sort_by_key(|&v| positions[v as usize]);
                let fwd: Vec<u32> = (0..7).collect();
                let bwd: Vec<u32> = (0..7).rev().collect();
                assert!(order == fwd || order == bwd, "bad walk {order:?}");
            }
            s => panic!("path classified as {}", s.name()),
        }
    }

    #[test]
    fn recognizes_path_unions_and_isolated_vertices() {
        // Two disjoint segments plus an isolated vertex.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (4, 5), (5, 6)]);
        match recognize(&g) {
            Structure::Path { positions } => {
                // Consecutive positions inside each segment.
                assert_eq!((positions[0] - positions[1]).abs(), 1);
                assert_eq!((positions[4] - positions[5]).abs(), 1);
            }
            s => panic!("union of paths classified as {}", s.name()),
        }
    }

    #[test]
    fn recognizes_forests() {
        for g in [
            complete_binary_tree(5),
            random_tree(60, 4, 3),
            caterpillar(10, 2),
            star(5),
        ] {
            assert_eq!(recognize(&g).name(), "forest");
        }
    }

    #[test]
    fn recognizes_lattices_in_all_dimensions() {
        for dims in [
            vec![5usize, 4],
            vec![2, 2],
            vec![3, 3, 3],
            vec![2, 3, 4],
            vec![2, 2, 2, 2],
        ] {
            let grid = GridGraph::lattice(&dims);
            match recognize(&grid.graph) {
                Structure::Grid(found) => {
                    assert_eq!(found.graph.num_edges(), grid.graph.num_edges());
                    // The reconstructed embedding is a valid grid embedding
                    // of the same graph under the *same* vertex ids.
                    for &(u, v) in grid.graph.edge_list() {
                        assert_eq!(l1(found.coord(u), found.coord(v)), 1, "{dims:?}");
                    }
                }
                s => panic!("lattice {dims:?} classified as {}", s.name()),
            }
        }
    }

    #[test]
    fn cycle4_is_the_2x2_lattice() {
        assert_eq!(recognize(&cycle(4)).name(), "grid");
    }

    #[test]
    fn arbitrary_graphs_fall_through() {
        for (label, g) in [
            ("cycle5", cycle(5)),
            ("k5", complete(5)),
            ("ladder", ladder(6)), // a 2×6 lattice! — see below
        ] {
            let s = recognize(&g);
            if label == "ladder" {
                assert_eq!(s.name(), "grid", "ladder is a 2×n lattice");
            } else {
                assert_eq!(s.name(), "arbitrary", "{label}");
            }
        }
        // A grid with one chord is no longer a lattice.
        let grid = GridGraph::lattice(&[4, 4]);
        let mut b = crate::graph::GraphBuilder::new(16);
        for &(u, v) in grid.graph.edge_list() {
            b.add_edge(u, v);
        }
        b.add_edge(0, 15);
        assert_eq!(recognize(&b.build()).name(), "arbitrary");
    }

    #[test]
    fn percolation_subsets_are_not_misrecognized() {
        // Sound-but-incomplete: irregular subsets must either be rejected
        // or, if accepted, carry a *verified* embedding. percolation keeps
        // only a connected blob, which is almost never a full box.
        let grid = GridGraph::percolation(&[8, 8], 0.7, 5);
        // Rejection is the expected outcome; acceptance must be verified.
        if let Structure::Grid(found) = recognize(&grid.graph) {
            for &(u, v) in grid.graph.edge_list() {
                assert_eq!(l1(found.coord(u), found.coord(v)), 1);
            }
        }
    }

    #[test]
    fn single_vertex_and_empty_graph_are_paths() {
        assert_eq!(recognize(&graph_from_edges(1, &[])).name(), "path");
        assert_eq!(recognize(&graph_from_edges(0, &[])).name(), "path");
    }

    #[test]
    fn torus_hook_identifies_generator_layouts() {
        use crate::gen::lattice::torus;
        for dims in [
            vec![4usize, 5],
            vec![3, 3],
            vec![10, 10],
            vec![3, 3, 3],
            vec![6],
        ] {
            let g = torus(&dims);
            let found = try_torus_dims(&g).unwrap_or_else(|| panic!("torus {dims:?} missed"));
            // The reported extents must reproduce the graph exactly (the
            // verification the hook itself performs — re-checked here).
            assert_eq!(
                torus(&found).edge_list(),
                g.edge_list(),
                "{dims:?} → {found:?}"
            );
        }
        // A cycle is the 1-dimensional torus.
        assert_eq!(try_torus_dims(&cycle(7)), Some(vec![7]));
    }

    #[test]
    fn torus_hook_refuses_non_tori() {
        use crate::gen::lattice::torus;
        // Grids are not tori (missing wrap edges), stars are irregular,
        // complete graphs are regular but wrong.
        assert_eq!(try_torus_dims(&GridGraph::lattice(&[4, 4]).graph), None);
        assert_eq!(try_torus_dims(&star(6)), None);
        assert_eq!(try_torus_dims(&complete(6)), None);
        // A torus with one extra chord is refused (edge lists differ).
        let t = torus(&[4, 4]);
        let mut b = crate::graph::GraphBuilder::new(16);
        for &(u, v) in t.edge_list() {
            b.add_edge(u, v);
        }
        b.add_edge(0, 10);
        assert_eq!(try_torus_dims(&b.build()), None);
        // A relabeled torus falls through — sound, not complete.
        let mut b = crate::graph::GraphBuilder::new(9);
        let relabel = |v: u32| (v + 4) % 9;
        for &(u, v) in torus(&[3, 3]).edge_list() {
            b.add_edge(relabel(u), relabel(v));
        }
        assert_eq!(try_torus_dims(&b.build()), None);
    }
}
