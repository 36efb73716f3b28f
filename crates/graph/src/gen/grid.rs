//! `d`-dimensional grid graphs.
//!
//! A *grid graph* in `d`-dimensional space (Section 6) is a graph
//! `G = (V, E)` with `V ⊆ Z^d` and `‖x − y‖₁ = 1` for every edge
//! `{x, y} ∈ E`. The class is closed under taking subgraphs, which is what
//! makes the splittability bound of Theorem 19 subgraph-monotone.
//!
//! [`GridGraph`] couples a [`Graph`] with the integer coordinates of its
//! vertices; the GridSplit algorithm (in `mmb-splitters`) needs them for
//! the coarsening maps `ϕ_α^{(ℓ)}`.

#[expect(
    clippy::disallowed_types,
    reason = "membership and id lookups only; no map here is ever iterated"
)]
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{Graph, GraphBuilder, VertexId};

/// A grid graph: a [`Graph`] together with a `d`-dimensional integer
/// coordinate per vertex.
#[derive(Clone, Debug)]
pub struct GridGraph {
    /// The underlying graph.
    pub graph: Graph,
    /// Spatial dimension `d ≥ 1`.
    pub dim: usize,
    /// Flattened coordinates, `dim` entries per vertex.
    coords: Vec<i64>,
}

impl GridGraph {
    /// Coordinates of vertex `v` as a slice of length `dim`.
    #[inline]
    pub fn coord(&self, v: VertexId) -> &[i64] {
        let d = self.dim;
        &self.coords[v as usize * d..v as usize * d + d]
    }

    /// All coordinates, flattened (`dim` entries per vertex).
    pub fn coords(&self) -> &[i64] {
        &self.coords
    }

    /// Couple an existing [`Graph`] with explicit integer coordinates,
    /// keeping the graph's vertex ids (unlike [`GridGraph::from_points`],
    /// which re-indexes). Used by structure detection
    /// ([`crate::recognize`]) to hand a reconstructed embedding to
    /// GridSplit without relabeling the instance.
    ///
    /// # Panics
    /// Panics if `coords` does not hold `dim` entries per vertex or some
    /// edge joins points whose `L1` distance is not exactly 1 (the grid
    /// graph defining property, Section 6).
    pub fn from_graph_coords(graph: Graph, dim: usize, coords: Vec<i64>) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert_eq!(
            coords.len(),
            graph.num_vertices() * dim,
            "coordinate length mismatch"
        );
        let grid = GridGraph { graph, dim, coords };
        for &(u, v) in grid.graph.edge_list() {
            let dist: i64 = grid
                .coord(u)
                .iter()
                .zip(grid.coord(v))
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert_eq!(dist, 1, "edge {u}-{v} does not join L1-adjacent points");
        }
        grid
    }

    /// Build a grid graph from a set of integer points: vertices are the
    /// (deduplicated) points, edges join points at `L1` distance exactly 1.
    ///
    /// `O(n·d)` expected time via hashing.
    #[expect(
        clippy::disallowed_types,
        reason = "point-to-id lookups only; ids follow the input order, never the map's"
    )]
    pub fn from_points(dim: usize, points: Vec<Vec<i64>>) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
        }
        let mut index: HashMap<&[i64], u32> = HashMap::with_capacity(points.len());
        let mut unique: Vec<&Vec<i64>> = Vec::with_capacity(points.len());
        for p in &points {
            index.entry(p.as_slice()).or_insert_with(|| {
                unique.push(p);
                (unique.len() - 1) as u32
            });
        }
        let n = unique.len();
        let mut builder = GraphBuilder::new(n);
        let mut probe = vec![0i64; dim];
        for (v, p) in unique.iter().enumerate() {
            probe.copy_from_slice(p);
            for axis in 0..dim {
                // Only look in the +1 direction; the −1 neighbor adds the
                // edge from its own scan.
                probe[axis] += 1;
                if let Some(&u) = index.get(probe.as_slice()) {
                    builder.add_edge(v as u32, u);
                }
                probe[axis] -= 1;
            }
        }
        let coords = unique.iter().flat_map(|p| p.iter().copied()).collect();
        GridGraph {
            graph: builder.build(),
            dim,
            coords,
        }
    }

    /// The full lattice `[0, dims[0]) × … × [0, dims[d−1])`.
    pub fn lattice(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "each extent must be >= 1");
        let n: usize = dims.iter().product();
        let d = dims.len();
        let mut points = Vec::with_capacity(n);
        let mut cur = vec![0i64; d];
        loop {
            points.push(cur.clone());
            // Odometer increment.
            let mut axis = 0;
            loop {
                if axis == d {
                    return GridGraph::from_points(d, points);
                }
                cur[axis] += 1;
                if (cur[axis] as usize) < dims[axis] {
                    break;
                }
                cur[axis] = 0;
                axis += 1;
            }
        }
    }

    /// A path with `n` vertices (the 1-dimensional lattice).
    pub fn path(n: usize) -> Self {
        GridGraph::lattice(&[n])
    }

    /// Site-percolation subset of a lattice: keep each lattice point
    /// independently with probability `keep`, then retain only the largest
    /// connected component (so tests get one usable piece).
    pub fn percolation(dims: &[usize], keep: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&keep), "keep probability out of range");
        let full = GridGraph::lattice(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let kept: Vec<VertexId> = full
            .graph
            .vertices()
            .filter(|_| rng.random::<f64>() < keep)
            .collect();
        if kept.is_empty() {
            return GridGraph::from_points(dims.len(), vec![vec![0; dims.len()]]);
        }
        // Build the subset grid, then keep its largest component.
        let pts: Vec<Vec<i64>> = kept.iter().map(|&v| full.coord(v).to_vec()).collect();
        let sub = GridGraph::from_points(dims.len(), pts);
        let (comp, count) = sub.graph.components();
        if count <= 1 {
            return sub;
        }
        let mut sizes = vec![0usize; count];
        for &c in &comp {
            sizes[c as usize] += 1;
        }
        let best = (0..count)
            .max_by_key(|&i| sizes[i])
            .expect("count >= 2 components in this branch") as u32;
        let pts: Vec<Vec<i64>> = sub
            .graph
            .vertices()
            .filter(|&v| comp[v as usize] == best)
            .map(|v| sub.coord(v).to_vec())
            .collect();
        GridGraph::from_points(dims.len(), pts)
    }

    /// `copies` disjoint translated copies of `base`, separated by a gap of
    /// 2 along axis 0 so cells never straddle copies. This is the `G̃`
    /// construction of Lemma 40 at the grid level; costs/weights are
    /// replicated by [`crate::union::replicate_measure`].
    pub fn disjoint_copies(base: &GridGraph, copies: usize) -> Self {
        assert!(copies >= 1, "need at least one copy");
        let span = base
            .graph
            .vertices()
            .map(|v| base.coord(v)[0])
            .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
        let width = if base.graph.num_vertices() == 0 {
            0
        } else {
            span.1 - span.0 + 1
        };
        let stride = width + 2;
        let mut points = Vec::with_capacity(base.graph.num_vertices() * copies);
        for i in 0..copies {
            let shift = stride * i as i64;
            for v in base.graph.vertices() {
                let mut p = base.coord(v).to_vec();
                p[0] += shift;
                points.push(p);
            }
        }
        GridGraph::from_points(base.dim, points)
    }

    /// Random connected "blob": a lattice-random-walk-grown region of `n`
    /// points in `d` dimensions (useful as an irregular mesh stand-in).
    #[expect(
        clippy::disallowed_types,
        reason = "membership test only; the point list is the insertion-order Vec"
    )]
    pub fn random_blob(dim: usize, n: usize, seed: u64) -> Self {
        assert!(dim >= 1 && n >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Membership is hashed, but the returned point list is the
        // insertion-order `points` Vec: vertex ids depend only on the seed,
        // never on `HashMap` iteration order (which varies run-to-run).
        let mut seen: HashMap<Vec<i64>, ()> = HashMap::new();
        let mut points: Vec<Vec<i64>> = vec![vec![0; dim]];
        let mut frontier: Vec<Vec<i64>> = vec![vec![0; dim]];
        seen.insert(vec![0; dim], ());
        while points.len() < n && !frontier.is_empty() {
            let idx = rng.random_range(0..frontier.len());
            let base = frontier[idx].clone();
            let axis = rng.random_range(0..dim);
            let dir = if rng.random::<bool>() { 1 } else { -1 };
            let mut p = base;
            p[axis] += dir;
            if seen.insert(p.clone(), ()).is_none() {
                points.push(p.clone());
                frontier.push(p);
            }
        }
        GridGraph::from_points(dim, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_counts() {
        let g = GridGraph::lattice(&[3, 4]);
        assert_eq!(g.graph.num_vertices(), 12);
        // Edges: 2*4 (horizontal per row… careful) = (3-1)*4 + 3*(4-1) = 8 + 9 = 17.
        assert_eq!(g.graph.num_edges(), 17);
        assert!(g.graph.is_connected());
        assert_eq!(g.dim, 2);
    }

    #[test]
    fn lattice_3d_counts() {
        let g = GridGraph::lattice(&[2, 2, 2]);
        assert_eq!(g.graph.num_vertices(), 8);
        assert_eq!(g.graph.num_edges(), 12); // cube
        assert_eq!(g.graph.max_degree(), 3);
    }

    #[test]
    fn path_is_one_dimensional_lattice() {
        let g = GridGraph::path(5);
        assert_eq!(g.graph.num_vertices(), 5);
        assert_eq!(g.graph.num_edges(), 4);
        assert_eq!(g.graph.max_degree(), 2);
    }

    #[test]
    fn from_points_edges_need_l1_distance_one() {
        let pts = vec![vec![0, 0], vec![1, 0], vec![1, 1], vec![3, 3]];
        let g = GridGraph::from_points(2, pts);
        assert_eq!(g.graph.num_vertices(), 4);
        assert_eq!(g.graph.num_edges(), 2); // (0,0)-(1,0), (1,0)-(1,1)
    }

    #[test]
    fn from_points_dedupes() {
        let pts = vec![vec![0, 0], vec![0, 0], vec![1, 0]];
        let g = GridGraph::from_points(2, pts);
        assert_eq!(g.graph.num_vertices(), 2);
        assert_eq!(g.graph.num_edges(), 1);
    }

    #[test]
    fn disjoint_copies_do_not_touch() {
        let base = GridGraph::lattice(&[3, 3]);
        let three = GridGraph::disjoint_copies(&base, 3);
        assert_eq!(three.graph.num_vertices(), 27);
        assert_eq!(three.graph.num_edges(), 3 * base.graph.num_edges());
        assert_eq!(three.graph.components().1, 3);
    }

    #[test]
    fn percolation_is_connected_and_deterministic() {
        let a = GridGraph::percolation(&[10, 10], 0.7, 42);
        let b = GridGraph::percolation(&[10, 10], 0.7, 42);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        assert!(a.graph.is_connected());
        assert!(a.graph.num_vertices() <= 100);
    }

    #[test]
    fn random_blob_grows_connected() {
        let g = GridGraph::random_blob(3, 200, 7);
        assert_eq!(g.graph.num_vertices(), 200);
        assert!(g.graph.is_connected());
        assert!(g.graph.max_degree() <= 6);
    }

    #[test]
    fn random_blob_is_seed_deterministic() {
        // Regression: vertex ids used to come from `HashMap::into_keys`,
        // whose order differs between two maps even in one process — so the
        // same seed produced different numberings. Ids must now be a pure
        // function of the seed: identical coords AND identical edge lists.
        let a = GridGraph::random_blob(2, 150, 42);
        let b = GridGraph::random_blob(2, 150, 42);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        for v in a.graph.vertices() {
            assert_eq!(a.coord(v), b.coord(v), "coords diverge at v={v}");
            assert_eq!(
                a.graph.neighbors(v),
                b.graph.neighbors(v),
                "adjacency diverges at v={v}"
            );
        }
        // And a different seed actually produces a different blob.
        let c = GridGraph::random_blob(2, 150, 43);
        let same = a.graph.vertices().all(|v| a.coord(v) == c.coord(v));
        assert!(!same, "seeds 42 and 43 produced identical blobs");
    }
}
