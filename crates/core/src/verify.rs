//! Decomposition verification: one call that checks everything a consumer
//! of the library cares about, and everything the theorems promise.

use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::{Coloring, Graph};

use crate::bounds;

/// Full report on a `k`-coloring of an instance.
#[derive(Clone, Debug)]
pub struct DecompositionReport {
    /// Whether every vertex is colored.
    pub is_partition: bool,
    /// Class weights `wχ⁻¹`.
    pub class_weights: Vec<f64>,
    /// Strict-balance defect (≤ 0 ⟺ eq. (1) holds).
    pub strict_defect: f64,
    /// Allowed slack `(1 − 1/k)·‖w‖∞` of eq. (1).
    pub strict_slack: f64,
    /// Whether eq. (1) holds: the verdict of
    /// [`Coloring::is_strictly_balanced`], whose tolerance scales with
    /// `‖w‖∞` so tiny weights are judged as strictly as large ones.
    pub strictly_balanced: bool,
    /// Per-class boundary costs `∂χ⁻¹`.
    pub boundary_costs: Vec<f64>,
    /// `‖∂χ⁻¹‖∞`.
    pub max_boundary: f64,
    /// `‖∂χ⁻¹‖_avg`.
    pub avg_boundary: f64,
}

impl DecompositionReport {
    /// Whether the coloring is a strictly balanced partition.
    pub fn is_valid(&self) -> bool {
        self.is_partition && self.strictly_balanced
    }

    /// Measured/bound ratio against Theorem 5's upper bound
    /// (`‖c‖_p/k^{1/p} + ‖c‖∞`); constants aside, a reproduction succeeds
    /// when this stays bounded across an instance sweep.
    pub fn theorem5_ratio(&self, p: f64, k: usize, c_norm_p: f64, c_max: f64) -> f64 {
        self.max_boundary / bounds::theorem5(p, k, c_norm_p, c_max).max(1e-300)
    }
}

/// Verify a coloring against its instance.
pub fn verify_decomposition(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    chi: &Coloring,
) -> DecompositionReport {
    let class_weights = chi.class_measures(weights);
    let boundary_costs = chi.boundary_costs(g, costs);
    let k = chi.k();
    DecompositionReport {
        is_partition: chi.is_total(),
        strict_defect: chi.strict_balance_defect(weights),
        strict_slack: bounds::strict_slack(k, norm_inf(weights)),
        strictly_balanced: chi.is_strictly_balanced(weights),
        max_boundary: norm_inf(&boundary_costs),
        avg_boundary: norm_1(&boundary_costs) / k as f64,
        class_weights,
        boundary_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::graph::graph_from_edges;

    #[test]
    fn report_on_balanced_path() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 1.0];
        let w = vec![1.0; 4];
        let chi = Coloring::from_vec(2, vec![0, 0, 1, 1]);
        let r = verify_decomposition(&g, &costs, &w, &chi);
        assert!(r.is_partition);
        assert!(r.is_valid());
        assert_eq!(r.max_boundary, 2.0);
        assert_eq!(r.avg_boundary, 2.0);
        assert_eq!(r.class_weights, vec![2.0, 2.0]);
    }

    #[test]
    fn detects_partial_and_unbalanced() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0; 3];
        let w = vec![1.0; 4];
        let partial = Coloring::from_vec(2, vec![0, 0, 1, mmb_graph::coloring::UNCOLORED]);
        assert!(!verify_decomposition(&g, &costs, &w, &partial).is_valid());
        let unbalanced = Coloring::from_vec(2, vec![0, 0, 0, 0]);
        let r = verify_decomposition(&g, &costs, &w, &unbalanced);
        assert!(r.is_partition);
        assert!(!r.is_valid());
        assert!(r.strict_defect > 0.0);
    }

    #[test]
    fn tiny_weights_get_the_same_tolerance() {
        // Classes {0,1,2} | {3} deviate from the average by twice the
        // slack of eq. (1) at every weight scale; an absolute tolerance
        // floor would wave the 1e-12 case through.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0; 3];
        let chi = Coloring::from_vec(2, vec![0, 0, 0, 1]);
        for scale in [1.0, 1e-6, 1e-12] {
            let w = vec![scale; 4];
            let r = verify_decomposition(&g, &costs, &w, &chi);
            assert!(r.is_partition);
            assert!(
                !r.is_valid(),
                "scale {scale}: accepted a 2× slack deviation"
            );
            assert!(r.strict_defect > 0.0);
        }
    }

    #[test]
    fn theorem5_ratio_scales() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0; 3];
        let w = vec![1.0; 4];
        let chi = Coloring::from_vec(2, vec![0, 0, 1, 1]);
        let r = verify_decomposition(&g, &costs, &w, &chi);
        let ratio = r.theorem5_ratio(2.0, 2, 3f64.sqrt(), 1.0);
        assert!(ratio > 0.0 && ratio.is_finite());
    }
}
