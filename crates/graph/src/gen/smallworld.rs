//! Watts–Strogatz small-world graphs.
//!
//! A ring lattice (each vertex joined to its `k_half` nearest neighbors on
//! each side) whose edges are independently rewired with probability
//! `beta` to uniformly random endpoints. For small `beta` the graph keeps
//! the ring's locality (cheap prefix-style cuts) while sprinkling a few
//! long-range shortcuts — the corpus family probing how much a handful of
//! non-local edges degrades boundary quality.

#[expect(
    clippy::disallowed_types,
    reason = "edge-set membership; the set is sorted before it reaches the builder"
)]
use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{Graph, GraphBuilder};

/// Watts–Strogatz graph on `n` vertices: ring lattice of half-degree
/// `k_half` with each edge rewired with probability `beta`. A rewiring
/// attempt that would create a self-loop or a duplicate edge keeps the
/// original edge instead, so the edge count is always exactly
/// `n · k_half`. Deterministic given `seed`; `beta = 0` yields the exact
/// ring lattice.
///
/// # Panics
/// Panics unless `n > 2·k_half ≥ 2` and `0 ≤ beta ≤ 1`.
#[expect(
    clippy::disallowed_types,
    reason = "edge-set membership; the set is sorted before it reaches the builder"
)]
pub fn watts_strogatz(n: usize, k_half: usize, beta: f64, seed: u64) -> Graph {
    assert!(k_half >= 1, "half-degree must be at least 1");
    assert!(n > 2 * k_half, "ring lattice needs n > 2·k_half");
    assert!(
        (0.0..=1.0).contains(&beta),
        "rewiring probability out of range"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E6C63D0876A9A47);
    let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(n * k_half);
    let key = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
    // Ring lattice: each vertex to its k_half clockwise neighbors (the
    // counter-clockwise ones are added by the neighbors' own scans).
    for v in 0..n {
        for j in 1..=k_half {
            edges.insert(key(v as u32, ((v + j) % n) as u32));
        }
    }
    // Rewire in a canonical order (by source vertex, then offset) so the
    // construction is deterministic: replace (v, v+j) by (v, t) for a
    // uniform t when the coin lands and the replacement is simple.
    for v in 0..n {
        for j in 1..=k_half {
            let old = key(v as u32, ((v + j) % n) as u32);
            if rng.random::<f64>() >= beta {
                continue;
            }
            let t = rng.random_range(0..n) as u32;
            let new = key(v as u32, t);
            if t as usize == v || edges.contains(&new) || !edges.contains(&old) {
                continue; // keep the original edge
            }
            edges.remove(&old);
            edges.insert(new);
        }
    }
    let mut b = GraphBuilder::new(n);
    // Insert in sorted order for reproducibility independent of the hash
    // iteration order (the builder sorts anyway; this keeps intent clear).
    let mut sorted: Vec<(u32, u32)> = edges.into_iter().collect();
    sorted.sort_unstable();
    for (u, v) in sorted {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_beta_is_the_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 1);
        assert_eq!(g.num_edges(), 40);
        assert_eq!(g.max_degree(), 4);
        for v in 0..20u32 {
            for j in 1..=2u32 {
                assert!(g.has_edge(v, (v + j) % 20));
            }
        }
    }

    #[test]
    fn edge_count_is_preserved_under_rewiring() {
        for beta in [0.05, 0.3, 1.0] {
            for seed in 0..4 {
                let g = watts_strogatz(50, 2, beta, seed);
                assert_eq!(g.num_edges(), 100, "beta={beta} seed={seed}");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = watts_strogatz(60, 3, 0.2, 8);
        let b = watts_strogatz(60, 3, 0.2, 8);
        assert_eq!(a.edge_list(), b.edge_list());
        let c = watts_strogatz(60, 3, 0.2, 9);
        assert_ne!(a.edge_list(), c.edge_list());
    }

    #[test]
    fn rewiring_actually_rewires() {
        let ring = watts_strogatz(100, 1, 0.0, 3);
        let rewired = watts_strogatz(100, 1, 0.5, 3);
        assert_ne!(ring.edge_list(), rewired.edge_list());
        // A decent fraction of edges must now be long-range shortcuts.
        let long = rewired
            .edge_list()
            .iter()
            .filter(|&&(u, v)| {
                let d = (v - u).min(100 - (v - u));
                d > 1
            })
            .count();
        assert!(long >= 10, "only {long} shortcuts after beta=0.5");
    }
}
