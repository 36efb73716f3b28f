//! The `reproduce chaos` report: seeded fault schedules × the corpus,
//! resiliently solved, with a CI gate over the harness's contract.
//!
//! Each (seed, entry) cell arms [`FaultSchedule::chaos`]`(seed)` and runs
//! a [`ResilientSolver`] over the entry inside a `catch_unwind` witness.
//! The gate fails if any cell violates the resilient contract:
//!
//! 1. **No-escape prong** — no panic crosses the public API;
//! 2. **Validity prong** — every response is a total, strictly balanced
//!    coloring with a [`Resilience`](mmb_core::resilient::Resilience)
//!    record whose final attempt served;
//! 3. **Monotonicity prong** — the served cost never exceeds the trivial
//!    floor rung's cost;
//! 4. **Accounting prong** — the record's fault count matches the armed
//!    schedule's injection log.
//!
//! Wall-clock columns are telemetry, not gated: chaos stalls make timing
//! machine-dependent, while the four prongs above are deterministic
//! (schedules are seed-derived, search truncation is node-count driven).

use std::panic::{catch_unwind, AssertUnwindSafe};

use mmb_core::bnb::BnbConfig;
use mmb_core::failpoint::{with_faults, FaultSchedule};
use mmb_core::resilient::ResilientSolver;
use mmb_instances::corpus::Corpus;

use crate::fmt;
use crate::table::Table;

/// The CI seed set (`--quick` uses the first three; the chaos suite in
/// `mmb-core/tests/chaos.rs` sweeps its own overlapping set).
pub const CHAOS_SEEDS: [u64; 6] = [1, 2, 0xc0ffee, 3, 5, 8];

/// Node budget for the certified rung under chaos: large enough to
/// exercise the bnb failpoints, small enough that seeds × entries stays
/// CI-sized.
const CHAOS_BNB_NODES: u64 = 2_000;

/// Outcome of a chaos sweep: the printable table plus the CI gate data.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The per-(seed, entry) serving table.
    pub table: Table,
    /// Human-readable contract violations; the gate fails if non-empty.
    pub violations: Vec<String>,
    /// Cells where the ladder degraded below its best enabled rung.
    pub degraded_cells: usize,
    /// Total faults injected across the sweep (a zero here means the
    /// schedules never hit an armed site and the suite tests nothing).
    pub faults_injected: u64,
    /// Whether every gate prong passed.
    pub gate_ok: bool,
}

/// Run the chaos sweep: every seed × every corpus entry, resiliently
/// solved under the seed's fault schedule.
pub fn run_chaos(quick: bool) -> ChaosOutcome {
    let seeds: &[u64] = if quick {
        &CHAOS_SEEDS[..3]
    } else {
        &CHAOS_SEEDS
    };
    let corpus = Corpus::quick();
    let mut table = Table::new(
        format!(
            "CHAOS: {} seeds × {} entries — resilient solves under injected \
             panics/transients/stalls (gate: no escape, valid output, monotone \
             degradation, fault accounting)",
            seeds.len(),
            corpus.len()
        ),
        &[
            "seed",
            "entry",
            "k",
            "served by",
            "tries",
            "degraded",
            "faults",
            "max ∂",
            "floor ∂",
            "ms",
        ],
    );
    let mut violations = Vec::new();
    let mut degraded_cells = 0usize;
    let mut faults_injected = 0u64;
    for &seed in seeds {
        let schedule = FaultSchedule::chaos(seed);
        for entry in &corpus {
            let cell = format!("seed {seed} / entry `{}`", entry.name);
            let solver = match ResilientSolver::for_instance(&entry.instance)
                .classes(entry.k)
                .p(entry.p)
                .bnb(BnbConfig::with_node_budget(CHAOS_BNB_NODES))
                .build()
            {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("{cell}: solver build failed: {e}"));
                    continue;
                }
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "the chaos gate catches any panic that escapes the public API and reports it as a violation"
            )]
            let (outcome, log) = with_faults(&schedule, || {
                catch_unwind(AssertUnwindSafe(|| solver.solve()))
            });
            let report = match outcome {
                Ok(r) => r,
                Err(payload) => {
                    violations.push(format!(
                        "{cell}: PANIC ESCAPED the public API: {}",
                        mmb_core::failpoint::panic_message(payload.as_ref())
                    ));
                    continue;
                }
            };
            let Some(res) = report.resilience.clone() else {
                violations.push(format!("{cell}: report without a Resilience record"));
                continue;
            };
            if !report.coloring.is_total() || !report.is_strictly_balanced() {
                violations.push(format!(
                    "{cell}: served output invalid (total: {}, strict: {})",
                    report.coloring.is_total(),
                    report.is_strictly_balanced()
                ));
            }
            if report.max_boundary > res.floor_cost * (1.0 + 1e-9) {
                violations.push(format!(
                    "{cell}: monotonicity broken — served {} > floor {}",
                    report.max_boundary, res.floor_cost
                ));
            }
            match res.attempts.last() {
                Some(last) if last.rung == res.served_by => {}
                _ => violations.push(format!(
                    "{cell}: record inconsistent — final attempt is not the server"
                )),
            }
            if res.faults_observed != log.len() as u64 {
                violations.push(format!(
                    "{cell}: fault accounting off — record {} vs log {}",
                    res.faults_observed,
                    log.len()
                ));
            }
            degraded_cells += res.degraded as usize;
            faults_injected += log.len() as u64;
            let tries: u32 = res.attempts.iter().map(|a| a.tries).sum();
            table.row(vec![
                seed.to_string(),
                entry.name.clone(),
                entry.k.to_string(),
                res.served_by.clone(),
                tries.to_string(),
                if res.degraded {
                    "yes".into()
                } else {
                    "no".into()
                },
                res.faults_observed.to_string(),
                fmt(report.max_boundary),
                fmt(res.floor_cost),
                fmt(res.elapsed_millis),
            ]);
        }
    }
    table.note(format!(
        "{} cells degraded below their best enabled rung; {} faults injected \
         across the sweep",
        degraded_cells, faults_injected
    ));
    // An injection-free sweep means the schedules never reached an armed
    // site — the suite would be green by vacuity, so the gate refuses it.
    let gate_ok = violations.is_empty() && faults_injected > 0;
    ChaosOutcome {
        table,
        violations,
        degraded_cells,
        faults_injected,
        gate_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_sweep_passes_the_gate() {
        let out = run_chaos(true);
        assert!(out.gate_ok, "violations: {:?}", out.violations);
        assert_eq!(out.table.rows.len(), 3 * Corpus::quick().len());
        assert!(
            out.faults_injected > 0,
            "chaos schedules never fired — vacuous suite"
        );
    }
}
