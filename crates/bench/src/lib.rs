//! # mmb-bench
//!
//! Experiment harness reproducing every theorem of the paper as a measured
//! table (experiment index in `DESIGN.md`; results recorded in
//! `EXPERIMENTS.md`). Run with
//!
//! ```text
//! cargo run -p mmb-bench --bin reproduce --release -- all
//! cargo run -p mmb-bench --bin reproduce --release -- e1 e5 --quick
//! ```
//!
//! Timing lives in the same binary: the `ms` columns of E5–E7 and the
//! recorded perf baselines of `reproduce bench` (`BENCH_6.json`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    clippy::panic,
    clippy::unreachable,
    reason = "measurement harness"
)]

pub mod chaos;
pub mod churn;
pub mod corpus;
pub mod experiments;
pub mod perf;
pub mod table;

use mmb_baselines::greedy::{FirstFit, Lpt, RoundRobin};
use mmb_baselines::multilevel::Multilevel;
use mmb_baselines::recursive_bisection::RecursiveBisection;
use mmb_core::api::{Instance, Partitioner, SolveError};
use mmb_core::verify::verify_decomposition;
use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::Coloring;

/// The standard baseline roster every cross-partitioner sweep scores —
/// one constructor so the corpus table and the oracle differential suite
/// cannot drift apart when a baseline is added or reconfigured.
pub fn standard_baselines() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Lpt),
        Box::new(FirstFit),
        Box::new(RoundRobin),
        Box::new(RecursiveBisection { kst: false }),
        Box::new(Multilevel::default()),
    ]
}

/// Uniform quality score of a coloring on an instance.
#[derive(Clone, Debug)]
pub struct Score {
    /// `‖∂χ⁻¹‖∞`.
    pub max_boundary: f64,
    /// `‖∂χ⁻¹‖_avg`.
    pub avg_boundary: f64,
    /// Strict-balance defect (≤ 0 means eq. (1) holds).
    pub strict_defect: f64,
    /// Whether the coloring is a strictly balanced partition
    /// ([`DecompositionReport::is_valid`](mmb_core::verify::DecompositionReport::is_valid)).
    pub strict: bool,
    /// Max class weight / average class weight (rough-balance factor).
    pub balance_factor: f64,
    /// Wall-clock milliseconds (filled by the caller when relevant).
    pub millis: f64,
}

/// Score a coloring of an [`Instance`], from one [`verify_decomposition`]
/// pass.
pub fn score(inst: &Instance, chi: &Coloring) -> Score {
    let r = verify_decomposition(inst.graph(), inst.costs(), inst.weights(), chi);
    let avg_w = norm_1(&r.class_weights) / chi.k() as f64;
    Score {
        max_boundary: r.max_boundary,
        avg_boundary: r.avg_boundary,
        strict_defect: r.strict_defect,
        strict: r.is_valid(),
        balance_factor: if avg_w > 0.0 {
            norm_inf(&r.class_weights) / avg_w
        } else {
            1.0
        },
        millis: 0.0,
    }
}

/// Run a [`Partitioner`] on an instance, returning the coloring and its
/// timed [`Score`] — the uniform "ours vs baselines" code path of
/// experiments E4, E7 and E10.
pub fn run_scored(
    algo: &dyn Partitioner,
    inst: &Instance,
    k: usize,
) -> Result<(Coloring, Score), SolveError> {
    let (chi, millis) = timed(|| algo.partition(inst, k));
    let chi = chi?;
    let mut s = score(inst, &chi);
    s.millis = millis;
    Ok((chi, s))
}

/// Run `f`, returning its result and the elapsed milliseconds.
#[expect(
    clippy::disallowed_methods,
    reason = "measurement harness: timing is the point"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Format a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::path;

    #[test]
    fn score_is_not_strict_at_twice_the_slack_at_any_weight_scale() {
        // Classes {0,1,2} | {3} deviate from the average by twice the
        // slack of eq. (1); an absolute tolerance floor would call the
        // 1e-12 case strict.
        let chi = Coloring::from_vec(2, vec![0, 0, 0, 1]);
        for s in [1.0, 1e-6, 1e-12] {
            let inst = Instance::new(path(4), vec![1.0; 3], vec![s; 4]).unwrap();
            assert!(!score(&inst, &chi).strict, "scale {s}");
        }
    }
}
