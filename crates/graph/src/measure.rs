//! Vertex measures and the paper's norm notation.
//!
//! A *measure* `Φ : V → R+` is stored as a dense `Vec<f64>` indexed by
//! vertex id (the paper extends `Φ` to sets by `Φ(U) = Σ_{u∈U} Φ(u)`).
//! This module provides
//!
//! * set sums `Φ(U)`, restricted maxima `‖Φ|_W‖_∞`,
//! * the `p`-norms `‖f‖_p = (Σ f_x^p)^{1/p}` and their edge-cost variants
//!   `‖c|_W‖_p` over the edges `E(W)` running inside an induced subgraph,
//! * the dual exponent `q` with `1/p + 1/q = 1` (Hölder).
//!
//! Everything here is a thin, allocation-free layer; hot loops iterate a
//! [`VertexSet`] once.

use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use crate::workspace::{ScratchMeasure, Workspace};

/// A vertex measure `Φ : V → R+`, dense over vertex ids.
pub type Measure = Vec<f64>;

/// `x^p` for `x ≥ 0`, with fast paths for the exponents the pipeline
/// actually uses: `p = 1` (identity), `p = 2` (one multiply), small
/// integer `p` (`powi`), falling back to `powf`.
///
/// The fast paths agree with `powf` to well below `1e-12` relative error
/// (`p = 1` and `p = 2` are exact; `powi` differs from the correctly
/// rounded `powf` by at most a few ulps) — property-tested below. Every
/// caller in the workspace routes through this single function, so
/// alternative code paths (workspace vs allocating) stay bit-identical to
/// *each other*.
#[inline]
#[expect(
    clippy::float_cmp,
    reason = "1.0 and 2.0 are exactly representable; they are dispatch constants, not computed arithmetic"
)]
pub fn pow_p(x: f64, p: f64) -> f64 {
    if p == 1.0 {
        x
    } else if p == 2.0 {
        x * x
    } else if p.fract() == 0.0 && (1.0..=32.0).contains(&p) {
        x.powi(p as i32)
    } else {
        x.powf(p)
    }
}

/// `Φ(U) = Σ_{u∈U} Φ(u)`.
pub fn set_sum(phi: &[f64], set: &VertexSet) -> f64 {
    set.iter().map(|v| phi[v as usize]).sum()
}

/// `‖Φ|_U‖_∞ = max_{u∈U} Φ(u)` (0 for the empty set).
pub fn set_max(phi: &[f64], set: &VertexSet) -> f64 {
    set.iter().map(|v| phi[v as usize]).fold(0.0, f64::max)
}

/// `‖f‖_1` over the full domain.
pub fn norm_1(f: &[f64]) -> f64 {
    f.iter().sum()
}

/// `‖f‖_∞` over the full domain (0 for an empty slice).
pub fn norm_inf(f: &[f64]) -> f64 {
    f.iter().copied().fold(0.0, f64::max)
}

/// `‖f‖_p = (Σ f_x^p)^{1/p}` over the full domain. Requires `p ≥ 1`.
pub fn norm_p(f: &[f64], p: f64) -> f64 {
    assert!(p >= 1.0, "p-norm requires p >= 1, got {p}");
    if f.is_empty() {
        return 0.0;
    }
    if p.is_infinite() {
        return norm_inf(f);
    }
    // Scale by the max for numerical stability on wide dynamic ranges.
    let m = norm_inf(f);
    if m == 0.0 {
        return 0.0;
    }
    let s: f64 = f.iter().map(|&x| pow_p(x / m, p)).sum();
    m * s.powf(1.0 / p)
}

/// The Hölder-dual exponent `q` with `1/p + 1/q = 1`.
///
/// `p = 1 → q = ∞`; `p = ∞ → q = 1`.
#[expect(
    clippy::float_cmp,
    reason = "1.0 is exactly representable; `p = 1` is the documented special case, so the comparison must be exact"
)]
pub fn dual_exponent(p: f64) -> f64 {
    assert!(p >= 1.0, "dual exponent requires p >= 1, got {p}");
    if p == 1.0 {
        f64::INFINITY
    } else if p.is_infinite() {
        1.0
    } else {
        p / (p - 1.0)
    }
}

/// `‖c|_W‖_p^p = Σ_{e ∈ E(W)} c_e^p`: the `p`-th power sum of the costs of
/// edges running inside `W` (both endpoints in `W`).
///
/// Cost is `O(vol(W))` — each member's adjacency is scanned once and each
/// inner edge counted at its smaller endpoint.
pub fn edge_norm_p_pow(g: &Graph, costs: &[f64], w_set: &VertexSet, p: f64) -> f64 {
    assert!(p >= 1.0, "p-norm requires p >= 1, got {p}");
    let mut s = 0.0;
    for v in w_set.iter() {
        for &(nb, e) in g.neighbors(v) {
            if nb > v && w_set.contains(nb) {
                s += pow_p(costs[e as usize], p);
            }
        }
    }
    s
}

/// `‖c|_W‖_p = (Σ_{e∈E(W)} c_e^p)^{1/p}`.
pub fn edge_norm_p(g: &Graph, costs: &[f64], w_set: &VertexSet, p: f64) -> f64 {
    if p.is_infinite() {
        return edge_norm_inf(g, costs, w_set);
    }
    edge_norm_p_pow(g, costs, w_set, p).powf(1.0 / p)
}

/// `‖c|_W‖_∞ = max_{e∈E(W)} c_e` (0 if no inner edge).
pub fn edge_norm_inf(g: &Graph, costs: &[f64], w_set: &VertexSet) -> f64 {
    let mut m = 0.0f64;
    for v in w_set.iter() {
        for &(nb, e) in g.neighbors(v) {
            if nb > v && w_set.contains(nb) {
                m = m.max(costs[e as usize]);
            }
        }
    }
    m
}

/// `‖c‖_p` over **all** edges of the graph.
pub fn total_edge_norm_p(g: &Graph, costs: &[f64], p: f64) -> f64 {
    assert_eq!(costs.len(), g.num_edges(), "cost vector length mismatch");
    norm_p(costs, p)
}

/// Restriction `Φ|_U` materialized as a dense measure (0 outside `U`).
pub fn restrict(phi: &[f64], set: &VertexSet) -> Measure {
    let mut out = vec![0.0; phi.len()];
    for v in set.iter() {
        out[v as usize] = phi[v as usize];
    }
    out
}

/// Pointwise sum `f + g` of two dense measures of equal length.
pub fn add(f: &[f64], g: &[f64]) -> Measure {
    assert_eq!(f.len(), g.len(), "measure length mismatch");
    f.iter().zip(g).map(|(a, b)| a + b).collect()
}

/// The constant-one measure `1_V` on `n` vertices.
pub fn ones(n: usize) -> Measure {
    vec![1.0; n]
}

/// The degree measure `deg_W(v)` of the induced subgraph `G[W]`
/// (0 outside `W`). Used by the shrinking procedure of Section 5 to control
/// `|G[W₁]|`.
pub fn induced_degree_measure(g: &Graph, w_set: &VertexSet) -> Measure {
    Workspace::with_local(|ws| induced_degree_measure_ws(g, w_set, ws).to_measure())
}

/// [`induced_degree_measure`] into a reusable [`Workspace`] buffer:
/// `O(vol(W))` with zero allocation; the dense view is bit-identical to
/// the allocating variant.
pub fn induced_degree_measure_ws<'ws>(
    g: &Graph,
    w_set: &VertexSet,
    ws: &'ws Workspace,
) -> ScratchMeasure<'ws> {
    let mut out = ws.measure(g.num_vertices());
    for v in w_set.iter() {
        let d = g
            .neighbors(v)
            .iter()
            .filter(|&&(nb, _)| w_set.contains(nb))
            .count();
        out.set(v, d as f64);
    }
    out
}

/// The cost-weighted degree `τ(v) = c(δ(v))` of every vertex, i.e. the
/// natural translation of edge costs into vertex costs (Appendix A.3).
pub fn cost_degree_measure(g: &Graph, costs: &[f64]) -> Measure {
    let mut tau = vec![0.0; g.num_vertices()];
    for v in g.vertices() {
        tau[v as usize] = g.neighbors(v).iter().map(|&(_, e)| costs[e as usize]).sum();
    }
    tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_norms() {
        let f = vec![3.0, 4.0];
        assert!(close(norm_p(&f, 2.0), 5.0));
        assert!(close(norm_p(&f, 1.0), 7.0));
        assert!(close(norm_inf(&f), 4.0));
        assert!(close(norm_p(&f, f64::INFINITY), 4.0));
        assert_eq!(norm_p(&[], 2.0), 0.0);
        assert_eq!(norm_p(&[0.0, 0.0], 2.0), 0.0);
    }

    #[test]
    fn p_norm_monotone_in_p() {
        // ‖f‖_p is non-increasing in p.
        let f = vec![1.0, 2.0, 3.0, 0.5];
        let mut prev = f64::INFINITY;
        for p in [1.0, 1.5, 2.0, 3.0, 10.0] {
            let np = norm_p(&f, p);
            assert!(np <= prev + 1e-12, "p-norm should decrease with p");
            prev = np;
        }
        assert!(prev >= norm_inf(&f) - 1e-12);
    }

    #[test]
    fn dual_exponents() {
        assert!(close(dual_exponent(2.0), 2.0));
        assert!(close(dual_exponent(1.5), 3.0));
        assert_eq!(dual_exponent(1.0), f64::INFINITY);
        assert_eq!(dual_exponent(f64::INFINITY), 1.0);
    }

    #[test]
    fn set_sums_and_maxima() {
        let phi = vec![1.0, 2.0, 4.0, 8.0];
        let s = VertexSet::from_iter(4, [1u32, 3]);
        assert!(close(set_sum(&phi, &s), 10.0));
        assert!(close(set_max(&phi, &s), 8.0));
        let e = VertexSet::empty(4);
        assert_eq!(set_sum(&phi, &e), 0.0);
        assert_eq!(set_max(&phi, &e), 0.0);
    }

    #[test]
    fn edge_norms_respect_subset() {
        // Path 0-1-2-3 with costs 1, 2, 3.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 3.0];
        let all = VertexSet::full(4);
        assert!(close(edge_norm_p(&g, &costs, &all, 1.0), 6.0));
        assert!(close(edge_norm_p(&g, &costs, &all, 2.0), (14.0f64).sqrt()));
        assert!(close(edge_norm_inf(&g, &costs, &all), 3.0));
        // W = {0,1,2}: only edges 0-1, 1-2 run inside.
        let w = VertexSet::from_iter(4, [0u32, 1, 2]);
        assert!(close(edge_norm_p(&g, &costs, &w, 1.0), 3.0));
        assert!(close(edge_norm_inf(&g, &costs, &w), 2.0));
        // W = {0, 2}: no inner edges.
        let w02 = VertexSet::from_iter(4, [0u32, 2]);
        assert_eq!(edge_norm_p(&g, &costs, &w02, 2.0), 0.0);
    }

    #[test]
    fn cost_degree_and_induced_degree() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 3.0];
        let tau = cost_degree_measure(&g, &costs);
        assert!(close(tau[0], 1.0));
        assert!(close(tau[1], 3.0));
        assert!(close(tau[2], 5.0));
        assert!(close(tau[3], 3.0));
        let w = VertexSet::from_iter(4, [0u32, 1, 2]);
        let d = induced_degree_measure(&g, &w);
        assert_eq!(d, vec![1.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn restrict_and_add() {
        let phi = vec![1.0, 2.0, 3.0];
        let s = VertexSet::from_iter(3, [2u32]);
        assert_eq!(restrict(&phi, &s), vec![0.0, 0.0, 3.0]);
        assert_eq!(add(&phi, &[1.0, 1.0, 1.0]), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn stability_on_wide_dynamic_range() {
        // Without max-scaling this overflows to inf for p = 4.
        let f = vec![1e80, 1e80];
        let np = norm_p(&f, 4.0);
        assert!(np.is_finite());
        assert!(close(np / 1e80, 2.0f64.powf(0.25)));
    }
}
