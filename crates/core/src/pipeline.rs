//! Configuration of the Theorem 4 pipeline, Proposition 7 → Proposition 11
//! → Proposition 12:
//!
//! ```text
//! χ₁ = multibalance_minmax(w, π, extra measures)   // weakly balanced,
//!                                                  // bounded max boundary
//! χ₂ = almost_strict(χ₁)                           // within 2‖w‖∞ of avg
//! χ₃ = binpack2(χ₂)                                // eq. (1) exactly
//! ```
//!
//! The result is a strictly balanced `k`-coloring with maximum boundary
//! cost `O_p(σ_p·(k^{−1/p}·‖c‖_p + Δ_c))`; the conclusion's multi-balanced
//! variant (weak balance in arbitrary extra measures, strict balance in
//! `w`) falls out of the same solve when the [`crate::api::Instance`]
//! carries extra measures.
//!
//! The pipeline runs through [`crate::api::Solver::solve`]; this module
//! holds the [`PipelineConfig`] a solver is built with.

use crate::coarsen::CoarsenParams;
use crate::refine::KlParams;
use crate::shrink::ShrinkParams;

/// How the pipeline sources the dense scratch measures (`π`, boundary
/// measures, induced degrees, `Ψ`) its stages materialize, and which
/// implementation family allocation-sensitive inner loops use.
///
/// `Reuse` (default) is the overhauled hot path: this thread's pooled
/// [`Workspace`](mmb_graph::Workspace) (`O(touched)` per buffer instead
/// of `O(n)`) and the allocation-free inner loops. `Transient` preserves
/// the **pre-overhaul reference implementations** — fresh buffers and
/// per-call allocation — so the `BENCH_6.json` perf baselines can report
/// old-vs-new side by side. Both policies produce **bit-identical
/// colorings** (property-tested); only cost profiles differ.
pub type ScratchPolicy = mmb_graph::workspace::ScratchMode;

/// The coarsening cascade knob of [`PipelineConfig`]: contract the host
/// graph to roughly [`CoarsenParams::target_vertices`] before the
/// divide-and-conquer runs, then project back with per-level KL
/// refinement and a final host-level `BinPack2` that restores strict
/// balance exactly (projection preserves class *weights* but the host's
/// smaller `‖w‖∞` tightens eq. (1), so a rebalance is mandatory — see
/// DESIGN.md §13).
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// Cascade stops (target size, level cap, matching seed).
    pub params: CoarsenParams,
    /// Per-level KL refinement applied on the way back up. Kept light by
    /// default (2 passes) — at `n = 10^6` every pass is a full sweep.
    pub kl: KlParams,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        Self {
            params: CoarsenParams::default(),
            kl: KlParams {
                max_passes: 2,
                balance_factor: 1.1,
            },
        }
    }
}

/// Configuration of the decomposition pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Norm exponent `p > 1` of the splittability assumption (use
    /// `d/(d−1)` for `d`-dimensional grids, `2` for planar-ish inputs).
    pub p: f64,
    /// Shrink-and-conquer tunables.
    pub shrink: ShrinkParams,
    /// Skip the shrink stage and go straight from Proposition 7 to
    /// BinPack2 (ablation switch for experiment E8).
    pub skip_shrink: bool,
    /// Scratch-buffer sourcing (see [`ScratchPolicy`]; default reuse).
    pub scratch: ScratchPolicy,
    /// Coarsening cascade for very large hosts: `Some(cfg)` contracts the
    /// graph to `cfg.params.target_vertices` first, runs the three stages
    /// there, and projects back (see [`CoarsenConfig`]). `None` (default)
    /// solves the host directly — the theorem-faithful path. Instances
    /// already at or below the target are solved directly either way.
    pub coarsen: Option<CoarsenConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            p: 2.0,
            shrink: ShrinkParams::default(),
            skip_shrink: false,
            scratch: ScratchPolicy::Reuse,
            coarsen: None,
        }
    }
}

impl PipelineConfig {
    /// Config with a given `p`.
    pub fn with_p(p: f64) -> Self {
        Self {
            p,
            ..Self::default()
        }
    }
}
