//! # mmb-core
//!
//! Min-max boundary decomposition of weighted graphs — a faithful
//! implementation of
//!
//! > David Steurer, *Tight Bounds on the Min-Max Boundary Decomposition
//! > Cost of Weighted Graphs*, SPAA 2006 (arXiv `cs/0606001`).
//!
//! Given a graph `G` with edge costs `c` and vertex weights `w`, the library
//! computes **strictly balanced** `k`-colorings — every class weight within
//! `(1 − 1/k)·‖w‖_∞` of the average (Definition 1) — whose **maximum
//! boundary cost** is `O_p(σ_p·(k^{−1/p}·‖c‖_p + Δ_c))` (Theorem 4), where
//! `σ_p` is the instance's splittability and `Δ_c` its maximum cost-weighted
//! degree.
//!
//! ## Entry points
//!
//! The front door is the [`api`] module: bundle the inputs into a
//! validated [`api::Instance`], build a reusable
//! [`api::Solver`] (splitter auto-selected from the graph's
//! structure, constructed once), and call
//! [`solve()`](api::Solver::solve) as often as you like:
//!
//! ```
//! use mmb_core::api::{Instance, Solver, SplitterChoice};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights)?;
//! let solver = Solver::for_instance(&inst).classes(4).build()?;
//! assert!(solver.solve().is_strictly_balanced());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Pipeline
//!
//! The pipeline composes the paper's three stages:
//!
//! 1. **Multi-balanced coloring** ([`multibalance`]): Lemma 6 builds a
//!    coloring balanced with respect to the splitting-cost measure `π`
//!    (Definition 10, [`pi`]) and the vertex weights by repeatedly invoking
//!    the rebalancing algorithm of Lemma 9 ([`rebalance`]); Proposition 7
//!    then additionally balances the boundary-cost measure, using the
//!    dynamic measure `Φ^{(r+1)}` to keep monochromatic boundary costs
//!    decaying along the move-forest.
//! 2. **Shrink-and-conquer** ([`shrink`]): Proposition 11 turns the weakly
//!    balanced coloring into an *almost strictly* balanced one (every class
//!    within `2‖w‖_∞` of the average) by repeatedly shrinking off an almost
//!    strict layer (Section 5) and re-packing it with the conquer bin
//!    packing of Lemma 15 ([`conquer`]).
//! 3. **Strict packing** ([`strict`]): Proposition 12's `BinPack2` converts
//!    almost strict into strictly balanced, exactly satisfying eq. (1).
//!
//! Every stage is driven by an abstract
//! [`Splitter`](mmb_splitters::Splitter), so any graph family with a
//! splitting-set theorem (grids via GridSplit, forests, paths, or anything
//! with a balanced-separator provider) plugs in directly.
//!
//! ## Guarantees, exactly and empirically
//!
//! Strict balance is *enforced by construction* and checked by
//! [`verify::verify_decomposition`]; what any serving path may return is
//! decided by one gate, [`verify::gate`] (total, strictly balanced, no
//! worse than the LPT greedy of [`verify::lpt_floor`]). The boundary-cost
//! guarantee is
//! asymptotic; [`bounds`] computes the theorems' right-hand sides so tests
//! and benchmarks can report measured/bound ratios (experiments E1–E12 in
//! `DESIGN.md`). In the other direction, [`lower_bounds`] certifies
//! optimality gaps at any size: a stack of sound certifiers (averaging,
//! knapsack packing — fractional and whole-edge, min-cut and
//! forced-pair cuts, structure-aware isoperimetry, the exact [`oracle`]
//! below its size cap) whose best bound
//! [`api::Solver::solve_certified`] threads into the report as a
//! [`lower_bounds::CertifiedGap`]. Bridging the two sides, the anytime
//! branch-and-bound engine of [`bnb`] searches the restricted-growth
//! coloring space under any node/time budget, seeds from the pipeline,
//! prunes with the certifier stack, and — via
//! [`api::Solver::solve_anytime`] — returns the best incumbent together
//! with a certified gap that shrinks to ratio 1.0 whenever the search
//! exhausts (which it does well past the oracle's `n = 16` cap).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod bnb;
pub mod bounds;
pub mod coarsen;
pub mod conquer;
pub mod failpoint;
pub mod lower_bounds;
pub mod multibalance;
pub mod oracle;
pub mod pi;
pub mod pipeline;
pub mod rebalance;
pub mod refine;
pub mod resilient;
pub mod shrink;
pub mod strict;
pub mod two_color;
pub mod verify;

pub use api::{
    auto_splitter, solve_many, solve_many_raw, AppliedDelta, CacheLookup, CacheStats, DeltaSolve,
    Instance, InstanceDelta, InstanceError, Partitioner, Report, SolveError, Solver,
    SolverArtifacts, SolverBuilder, SolverCache, SplitterChoice, Theorem4Pipeline,
};
pub use bnb::{BnbBound, BnbConfig, BnbPartitioner, BnbSolution};
pub use coarsen::{CoarsenParams, CoarseningFront};
pub use lower_bounds::{
    best_lower_bound, certify, static_lower_bound, Certificate, CertifiedGap, LowerBound,
    LowerBoundReport,
};
pub use oracle::{exact_min_max_boundary, ExactOracle, OracleSolution};
pub use pipeline::{CoarsenConfig, PipelineConfig, ScratchPolicy};
pub use refine::{refine, refine_region, KlParams};
pub use resilient::{
    DeadlineBudget, Resilience, ResilientConfig, ResilientSolver, RetryPolicy, RungOutcome,
};

/// Commonly used items for downstream crates.
pub mod prelude {
    pub use crate::api::{
        solve_many, solve_many_raw, DeltaSolve, Instance, InstanceDelta, InstanceError,
        Partitioner, Report, SolveError, Solver, SolverCache, SplitterChoice,
    };
    pub use crate::bnb::{BnbConfig, BnbPartitioner};
    pub use crate::bounds;
    pub use crate::lower_bounds::{best_lower_bound, certify, CertifiedGap, LowerBound};
    pub use crate::oracle::{exact_min_max_boundary, ExactOracle};
    pub use crate::pi::splitting_cost_measure;
    pub use crate::pipeline::{PipelineConfig, ScratchPolicy};
    pub use crate::resilient::{DeadlineBudget, Resilience, ResilientSolver, RetryPolicy};
    pub use crate::verify::{verify_decomposition, DecompositionReport};
}
