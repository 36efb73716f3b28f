//! The structured result of a [`Solver::solve`](crate::api::Solver::solve)
//! call.
//!
//! A [`Report`] carries everything the old call sites used to recompute by
//! hand after `decompose`: the coloring, the per-class weight/boundary
//! table, strict-balance defect and slack, the Theorem-4/5 bound
//! right-hand side with the measured/bound ratio, and the intermediate
//! stage colorings for ablation experiments (E8).

use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::Coloring;

use crate::bounds;
use crate::lower_bounds::CertifiedGap;
use crate::pipeline::Decomposition;

/// One row of the per-class table: `(class, weight, boundary cost)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassRow {
    /// Class index `i ∈ [k]`.
    pub class: usize,
    /// `w(χ⁻¹(i))`.
    pub weight: f64,
    /// `∂χ⁻¹(i)`.
    pub boundary_cost: f64,
}

/// Per-stage ablation data: the pipeline's intermediate colorings
/// (Proposition 7 → 11 → 12). Kept as raw colorings so the serve path
/// pays nothing for them; consumers (experiment E8) compute whatever
/// stage metrics they need via [`Coloring::max_boundary_cost`] etc.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Proposition 7 output (weakly balanced, bounded max boundary).
    pub multibalanced: Coloring,
    /// Proposition 11 output (almost strictly balanced).
    pub almost_strict: Coloring,
}

/// Structured result of one solve: coloring, quality tables, bound ratio,
/// and ablation data.
#[derive(Clone, Debug)]
pub struct Report {
    /// The strictly balanced `k`-coloring.
    pub coloring: Coloring,
    /// Per-class weights `wχ⁻¹`.
    pub class_weights: Vec<f64>,
    /// Per-class boundary costs `∂χ⁻¹`.
    pub boundary_costs: Vec<f64>,
    /// Strict-balance defect (≤ 0 up to fp noise ⟺ eq. (1) holds).
    pub strict_defect: f64,
    /// Allowed slack `(1 − 1/k)·‖w‖_∞` of eq. (1).
    pub strict_slack: f64,
    /// `‖∂χ⁻¹‖_∞`.
    pub max_boundary: f64,
    /// `‖∂χ⁻¹‖_avg`.
    pub avg_boundary: f64,
    /// Theorem 5's right-hand side `‖c‖_p/k^{1/p} + ‖c‖_∞` (unit
    /// constant).
    pub bound: f64,
    /// `max_boundary / bound` — must stay bounded across instance sweeps
    /// for the theorem to count as reproduced.
    pub bound_ratio: f64,
    /// Name of the splitter that drove the pipeline.
    pub splitter: String,
    /// Number of classes.
    pub k: usize,
    /// Norm exponent `p` of the splittability assumption.
    pub p: f64,
    /// Whether eq. (1) holds, judged by the same scale-invariant relative
    /// tolerance as [`Coloring::is_strictly_balanced`].
    pub strict: bool,
    /// Intermediate colorings, for ablation experiments.
    pub stages: StageReport,
    /// Wall-clock milliseconds per pipeline stage
    /// `[Prop 7, Prop 11, Prop 12]` of the solve that produced this
    /// report (perf baselines; `BENCH_6.json`).
    pub stage_millis: [f64; 3],
    /// Certified optimality gap — the best lower bound from the
    /// [`lower_bounds`](crate::lower_bounds) certifier stack paired with
    /// this solve's achieved cost. `None` from a plain
    /// [`Solver::solve`](crate::api::Solver::solve) (certification is
    /// off the hot path); filled by
    /// [`Solver::solve_certified`](crate::api::Solver::solve_certified).
    pub certified: Option<CertifiedGap>,
    /// How the degradation ladder served this report: which rung
    /// answered, what happened to the rungs above it, budget spent.
    /// `None` from the plain [`Solver`](crate::api::Solver) entry points;
    /// filled by
    /// [`ResilientSolver::solve`](crate::resilient::ResilientSolver::solve).
    pub resilience: Option<crate::resilient::Resilience>,
}

impl Report {
    #[allow(
        clippy::too_many_arguments,
        reason = "internal assembly of the full report row"
    )]
    pub(crate) fn assemble(
        g: &mmb_graph::Graph,
        costs: &[f64],
        weights: &[f64],
        w_max: f64,
        c_max: f64,
        c_norm_p: f64,
        k: usize,
        p: f64,
        splitter: String,
        stage1: Coloring,
        stage2: Coloring,
        stage3: Coloring,
    ) -> Self {
        let boundary_costs = stage3.boundary_costs(g, costs);
        let class_weights = stage3.class_measures(weights);
        let max_boundary = norm_inf(&boundary_costs);
        let bound = bounds::theorem5(p, k, c_norm_p, c_max);
        Report {
            class_weights,
            strict_defect: stage3.strict_balance_defect(weights),
            strict_slack: bounds::strict_slack(k, w_max),
            max_boundary,
            avg_boundary: norm_1(&boundary_costs) / k as f64,
            bound,
            bound_ratio: max_boundary / bound.max(1e-300),
            splitter,
            k,
            p,
            strict: stage3.is_strictly_balanced(weights),
            stages: StageReport {
                multibalanced: stage1,
                almost_strict: stage2,
            },
            boundary_costs,
            coloring: stage3,
            stage_millis: [0.0; 3],
            certified: None,
            resilience: None,
        }
    }

    /// Whether eq. (1) holds — the cached verdict of
    /// [`Coloring::is_strictly_balanced`] on the final coloring (same
    /// scale-invariant tolerance as everywhere else in the workspace).
    pub fn is_strictly_balanced(&self) -> bool {
        self.strict
    }

    /// The per-class table, one [`ClassRow`] per class.
    pub fn class_table(&self) -> Vec<ClassRow> {
        self.class_weights
            .iter()
            .zip(&self.boundary_costs)
            .enumerate()
            .map(|(class, (&weight, &boundary_cost))| ClassRow {
                class,
                weight,
                boundary_cost,
            })
            .collect()
    }

    /// Bridge to the legacy [`Decomposition`] shape (used by the
    /// [`decompose`](crate::pipeline::decompose) wrapper).
    pub fn into_decomposition(self) -> Decomposition {
        Decomposition {
            boundary_costs: self.boundary_costs,
            class_weights: self.class_weights,
            strict_defect: self.strict_defect,
            stages: (self.stages.multibalanced, self.stages.almost_strict),
            coloring: self.coloring,
        }
    }
}
