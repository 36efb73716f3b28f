//! The structured result of a [`Solver::solve`](crate::api::Solver::solve)
//! call.
//!
//! A [`Report`] carries everything a caller needs from one solve: the
//! coloring, the per-class weight/boundary table, strict-balance defect
//! and slack, the Theorem-4/5 bound right-hand side with the
//! measured/bound ratio, and the intermediate stage colorings for
//! ablation experiments (E8).

use mmb_graph::Coloring;

use crate::api::instance::Instance;
use crate::bounds;
use crate::lower_bounds::CertifiedGap;
use crate::verify::verify_decomposition;

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
    /// Assemble the report of a solve of `inst` whose stages produced
    /// `stage1 → stage2 → stage3` (the served coloring).
    pub(crate) fn assemble(
        inst: &Instance,
        c_norm_p: f64,
        p: f64,
        splitter: String,
        stage1: Coloring,
        stage2: Coloring,
        stage3: Coloring,
    ) -> Self {
        let k = stage3.k();
        // The quality fields are placeholders until `set_coloring` fills
        // them from the final coloring.
        let mut report = Report {
            coloring: Coloring::new_uncolored(0, k),
            class_weights: Vec::new(),
            boundary_costs: Vec::new(),
            strict_defect: 0.0,
            strict_slack: 0.0,
            max_boundary: 0.0,
            avg_boundary: 0.0,
            bound: bounds::theorem5(p, k, c_norm_p, inst.max_cost()),
            bound_ratio: 0.0,
            splitter,
            k,
            p,
            strict: false,
            stages: StageReport {
                multibalanced: stage1,
                almost_strict: stage2,
            },
            stage_millis: [0.0; 3],
            certified: None,
            resilience: None,
        };
        report.set_coloring(inst, stage3);
        report
    }

    /// Make `chi` the served coloring and refresh every quality field
    /// derived from it, from one [`verify_decomposition`] pass. The stages
    /// keep their intermediates (they are what the ablation experiments
    /// want).
    pub(crate) fn set_coloring(&mut self, inst: &Instance, chi: Coloring) {
        let r = verify_decomposition(inst.graph(), inst.costs(), inst.weights(), &chi);
        self.class_weights = r.class_weights;
        self.boundary_costs = r.boundary_costs;
        self.strict_defect = r.strict_defect;
        self.strict_slack = r.strict_slack;
        self.max_boundary = r.max_boundary;
        self.avg_boundary = r.avg_boundary;
        self.bound_ratio = r.max_boundary / self.bound.max(1e-300);
        self.strict = r.strictly_balanced;
        self.coloring = chi;
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
}
