//! The first-class public API: validated [`Instance`]s, reusable
//! [`Solver`]s, structured [`Report`]s, and the [`Partitioner`] trait.
//!
//! This module is the front door of the library. The flow:
//!
//! ```
//! use mmb_core::api::{Instance, Solver, SplitterChoice};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! // 1. Bundle and validate the inputs once.
//! let grid = GridGraph::lattice(&[16, 16]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights)?;
//!
//! // 2. Build a solver: splitter auto-selected from the structure,
//! //    constructed once, reusable across solves.
//! let solver = Solver::for_instance(&inst)
//!     .classes(8)
//!     .p(2.0)
//!     .splitter(SplitterChoice::Auto)
//!     .build()?;
//!
//! // 3. Solve (as often as you like) and read the structured report.
//! let report = solver.solve();
//! assert!(report.is_strictly_balanced());
//! assert!(report.bound_ratio.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifacts;
pub mod delta;
pub mod error;
pub mod instance;
pub mod partitioner;
pub mod report;
pub mod solver;

pub use crate::lower_bounds::CertifiedGap;
pub use artifacts::{CacheLookup, CacheStats, SolverArtifacts, SolverCache};
pub use delta::{AppliedDelta, InstanceDelta};
pub use error::{validate_costs, validate_weights, InstanceError, SolveError};
pub use instance::Instance;
pub use partitioner::{Partitioner, Theorem4Pipeline};
pub use report::{ClassRow, Report, StageReport};
pub use solver::{
    auto_splitter, resolve_delta, solve_many, solve_many_raw, DeltaSolve, Solver, SolverBuilder,
    SplitterChoice,
};
