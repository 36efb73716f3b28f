//! The resilient solving harness: a degradation ladder that always
//! returns a valid answer within a deadline.
//!
//! [`ResilientSolver`] wraps the existing solver stack in four rungs,
//! best first:
//!
//! 1. **certified** — [`Solver::solve_anytime`]: the Theorem 4 pipeline
//!    plus budgeted branch-and-bound refinement and a certified gap.
//! 2. **pipeline** — plain [`Solver::solve`].
//! 3. *(custom rungs, if registered via [`ResilientBuilder::rung`])*
//! 4. **first-fit** — id-order greedy-lightest (strict, locality-aware).
//! 5. **trivial** — LPT greedy-lightest: the panic-free floor.
//!
//! Each rung runs inside a `catch_unwind` boundary with a slice of the
//! per-call [`DeadlineBudget`]; a rung that panics, errors, blows its
//! slice, or produces an output that fails [`verify::gate`] (not total,
//! not strictly balanced, or worse than the floor) is recorded and the
//! ladder falls through to the next rung. Transient failures
//! ([`SolveError::Transient`]) are retried under the bounded
//! [`RetryPolicy`] before the rung is declared failed. The outcome of
//! every rung — and which one finally served — is attached to the
//! returned [`Report`] as a [`Resilience`] record.
//!
//! [`ResilientSolver::solve`] is **total**: it always returns a strictly
//! balanced coloring, because the floor rung is pure arithmetic that
//! cannot panic and is never skipped. Degradation is **monotone** by
//! construction: no rung's output is served unless it is at least as
//! good as the floor, so falling down the ladder never makes the answer
//! worse than the rung that ultimately serves it.
//!
//! ```
//! use std::time::Duration;
//! use mmb_core::resilient::{DeadlineBudget, ResilientSolver};
//! use mmb_core::api::Instance;
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights)?;
//! let solver = ResilientSolver::for_instance(&inst)
//!     .classes(4)
//!     .budget(DeadlineBudget::with_total(Duration::from_millis(250)))
//!     .build()?;
//! let report = solver.solve(); // infallible: some rung always serves
//! let res = report.resilience.as_ref().unwrap();
//! assert!(report.is_strictly_balanced());
//! assert!(report.max_boundary <= res.floor_cost * (1.0 + 1e-9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod budget;
pub(crate) mod ladder;
mod record;

pub use crate::verify::RejectReason;
pub use budget::{DeadlineBudget, RetryPolicy};
pub use record::{Resilience, RungAttempt, RungOutcome, SkipReason};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mmb_graph::Coloring;

use crate::api::error::SolveError;
use crate::api::instance::Instance;
use crate::api::partitioner::Partitioner;
use crate::api::report::Report;
use crate::api::solver::{auto_splitter, Solver, SplitterChoice};
use crate::bnb::BnbConfig;
use crate::failpoint::{self, FailpointSplitter};
use crate::pipeline::PipelineConfig;
use crate::verify;

use budget::BudgetClock;
use ladder::{RUNG_CERTIFIED, RUNG_FIRST_FIT, RUNG_PIPELINE, RUNG_TRIVIAL};

/// Ladder-level configuration of a [`ResilientSolver`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilientConfig {
    /// Per-call wall-clock budget, split across rungs by shares.
    pub budget: DeadlineBudget,
    /// Bounded retry-with-backoff for transient rung failures.
    pub retry: RetryPolicy,
    /// Budgets of the certified rung's branch-and-bound search; its
    /// `time_budget` is additionally capped by the rung's deadline slice.
    pub bnb: BnbConfig,
    /// Whether to attempt the certified rung at all (it is the most
    /// expensive rung; serving paths that only want the pipeline's
    /// guarantee start the ladder one rung down).
    pub certified: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            budget: DeadlineBudget::default(),
            retry: RetryPolicy::default(),
            bnb: BnbConfig::default(),
            certified: true,
        }
    }
}

/// Builder for a [`ResilientSolver`]; obtained from
/// [`ResilientSolver::for_instance`].
pub struct ResilientBuilder<'i> {
    inst: &'i Instance,
    k: usize,
    pipeline: PipelineConfig,
    cfg: ResilientConfig,
    custom: Vec<(String, Box<dyn Partitioner + 'i>)>,
}

impl<'i> ResilientBuilder<'i> {
    /// Number of classes `k` (required; `build` fails with
    /// [`SolveError::ZeroColors`] if unset or 0).
    pub fn classes(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Norm exponent `p` of the splittability assumption (default 2).
    pub fn p(mut self, p: f64) -> Self {
        self.pipeline.p = p;
        self
    }

    /// Replace the pipeline configuration used by the solver rungs.
    pub fn config(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// The per-call deadline budget.
    pub fn budget(mut self, budget: DeadlineBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// The transient-failure retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Budgets for the certified rung's branch-and-bound search.
    pub fn bnb(mut self, cfg: BnbConfig) -> Self {
        self.cfg.bnb = cfg;
        self
    }

    /// Enable or disable the certified rung (default enabled).
    pub fn certified(mut self, on: bool) -> Self {
        self.cfg.certified = on;
        self
    }

    /// Replace the whole ladder configuration at once.
    pub fn resilient_config(mut self, cfg: ResilientConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Register a custom rung between the pipeline and the greedy floor
    /// rungs. Custom rungs run under the same isolation, retry and
    /// validation machinery as the built-in ones — a panicking or
    /// non-strict partitioner degrades the ladder instead of crashing it.
    pub fn rung(mut self, name: impl Into<String>, p: Box<dyn Partitioner + 'i>) -> Self {
        self.custom.push((name.into(), p));
        self
    }

    /// Validate the configuration and return the reusable solver.
    pub fn build(self) -> Result<ResilientSolver<'i>, SolveError> {
        if self.k == 0 {
            return Err(SolveError::ZeroColors);
        }
        if !(self.pipeline.p.is_finite() && self.pipeline.p >= 1.0) {
            return Err(SolveError::InvalidExponent { p: self.pipeline.p });
        }
        Ok(ResilientSolver {
            inst: self.inst,
            k: self.k,
            pipeline: self.pipeline,
            cfg: self.cfg,
            custom: self.custom,
        })
    }
}

/// The degradation-ladder solver: build once, [`solve`](Self::solve) many
/// times; every solve returns a valid strictly balanced coloring with a
/// [`Resilience`] record, no matter what fails above the floor. See the
/// [module docs](self).
pub struct ResilientSolver<'i> {
    inst: &'i Instance,
    k: usize,
    pipeline: PipelineConfig,
    cfg: ResilientConfig,
    custom: Vec<(String, Box<dyn Partitioner + 'i>)>,
}

impl<'i> ResilientSolver<'i> {
    /// Start building a resilient solver for `inst`.
    pub fn for_instance(inst: &'i Instance) -> ResilientBuilder<'i> {
        ResilientBuilder {
            inst,
            k: 0,
            pipeline: PipelineConfig::default(),
            cfg: ResilientConfig::default(),
            custom: Vec::new(),
        }
    }

    /// The instance this solver is bound to.
    pub fn instance(&self) -> &'i Instance {
        self.inst
    }

    /// Number of classes `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The ladder configuration.
    pub fn config(&self) -> &ResilientConfig {
        &self.cfg
    }

    /// Build the inner [`Solver`] for the solver rungs: the auto-selected
    /// splitter, wrapped so the `splitter::split` failpoint reaches it.
    fn inner_solver(&self) -> Result<Solver<'i>, SolveError> {
        let (splitter, _family) = auto_splitter(self.inst);
        Solver::for_instance(self.inst)
            .classes(self.k)
            .config(self.pipeline.clone())
            .splitter(SplitterChoice::Custom(Box::new(FailpointSplitter::new(
                splitter,
            ))))
            .build()
    }

    /// Run one rung once (inside the caller's unwind boundary).
    fn run_rung(&self, rung: usize, name: &str, clock: &BudgetClock) -> Result<Report, SolveError> {
        match rung {
            0 => {
                let mut bnb = self.cfg.bnb;
                if let Some(slice) = clock.slice(self.cfg.budget.certified_share) {
                    bnb.time_budget = Some(bnb.time_budget.map_or(slice, |t| t.min(slice)));
                }
                Ok(self.inner_solver()?.solve_anytime(&bnb))
            }
            1 => Ok(self.inner_solver()?.solve()),
            i if i - 2 < self.custom.len() => {
                let chi = self.custom[i - 2].1.partition(self.inst, self.k)?;
                Ok(self.assemble(name, chi))
            }
            _ => Ok(self.assemble(name, ladder::first_fit_coloring(self.inst, self.k))),
        }
    }

    /// Assemble a minimal report around a bare coloring (custom/greedy
    /// rungs): all three stage slots carry the same coloring, the
    /// splitter slot names the rung.
    fn assemble(&self, rung: &str, chi: Coloring) -> Report {
        let p = self.pipeline.p;
        let c_norm_p = self.inst.cost_norm(p);
        Report::assemble(
            self.inst,
            c_norm_p,
            p,
            rung.to_owned(),
            chi.clone(),
            chi.clone(),
            chi,
        )
    }

    /// Run the degradation ladder. Total: always returns a strictly
    /// balanced coloring with [`Report::resilience`] populated; the
    /// certified gap of the served rung is filled in (the certified
    /// rung's own gap, or the polynomial static stack's for lower rungs).
    pub fn solve(&self) -> Report {
        let clock = BudgetClock::start(self.cfg.budget.total);
        let faults_before = failpoint::injection_count();

        // The floor is computed up front: it is the gate's reference for
        // every rung and the answer of last resort.
        let (floor_chi, floor_cost) = verify::lpt_floor(self.inst, self.k);

        let mut attempts: Vec<RungAttempt> = Vec::new();
        let rung_count = 2 + self.custom.len() + 1; // certified, pipeline, custom…, first-fit
        for rung_idx in 0..rung_count {
            let name: String = match rung_idx {
                0 => RUNG_CERTIFIED.to_owned(),
                1 => RUNG_PIPELINE.to_owned(),
                i if i - 2 < self.custom.len() => self.custom[i - 2].0.clone(),
                _ => RUNG_FIRST_FIT.to_owned(),
            };
            if rung_idx == 0 && !self.cfg.certified {
                attempts.push(RungAttempt {
                    rung: name,
                    tries: 0,
                    outcome: RungOutcome::Skipped(SkipReason::Disabled),
                    millis: 0.0,
                });
                continue;
            }
            let rung_start = clock.elapsed();
            if clock.expired() {
                attempts.push(RungAttempt {
                    rung: name,
                    tries: 0,
                    outcome: RungOutcome::Skipped(SkipReason::DeadlineExhausted),
                    millis: 0.0,
                });
                continue;
            }

            let mut tries = 0u32;
            let outcome = loop {
                tries += 1;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the rung boundary of the degradation ladder: a panicking rung must degrade the answer, not take down the serve path. All state the closure touches is rebuilt per try (solver, splitter, scratch epochs roll back via Drop), so observing it after an unwind is sound"
                )]
                let product =
                    catch_unwind(AssertUnwindSafe(|| self.run_rung(rung_idx, &name, &clock)));
                match product {
                    Ok(Ok(report)) => match verify::gate(self.inst, &report.coloring, floor_cost) {
                        Ok(_cost) => {
                            attempts.push(RungAttempt {
                                rung: name.clone(),
                                tries,
                                outcome: RungOutcome::Served,
                                millis: (clock.elapsed() - rung_start).as_secs_f64() * 1e3,
                            });
                            return self.finish(
                                report_with_gap(self.inst, self.k, report),
                                name,
                                rung_idx,
                                attempts,
                                &clock,
                                floor_cost,
                                faults_before,
                            );
                        }
                        Err(reason) => break RungOutcome::Rejected(reason),
                    },
                    Ok(Err(SolveError::Transient { .. }))
                        if tries <= self.cfg.retry.max_retries =>
                    {
                        self.backoff(tries, &clock);
                        continue;
                    }
                    Ok(Err(e)) => break RungOutcome::Failed(e.to_string()),
                    Err(payload) => {
                        // Injected transient faults unwind through
                        // infallible code; classify and retry them like
                        // typed transients.
                        if failpoint::injected(payload.as_ref()).is_some_and(|inj| inj.transient)
                            && tries <= self.cfg.retry.max_retries
                        {
                            self.backoff(tries, &clock);
                            continue;
                        }
                        break RungOutcome::Panicked(failpoint::panic_message(payload.as_ref()));
                    }
                }
            };
            attempts.push(RungAttempt {
                rung: name,
                tries,
                outcome,
                millis: (clock.elapsed() - rung_start).as_secs_f64() * 1e3,
            });
        }

        // The floor: precomputed, strict by construction, never skipped.
        attempts.push(RungAttempt {
            rung: RUNG_TRIVIAL.to_owned(),
            tries: 1,
            outcome: RungOutcome::Served,
            millis: 0.0,
        });
        let report = self.assemble(RUNG_TRIVIAL, floor_chi);
        self.finish(
            report_with_gap(self.inst, self.k, report),
            RUNG_TRIVIAL.to_owned(),
            rung_count,
            attempts,
            &clock,
            floor_cost,
            faults_before,
        )
    }

    /// Sleep the doubling backoff before retry number `retry`, capped by
    /// the time remaining so retrying can never blow the deadline.
    fn backoff(&self, retry: u32, clock: &BudgetClock) {
        let mut wait = self.cfg.retry.backoff_for(retry);
        if let Some(remaining) = clock.remaining() {
            wait = wait.min(remaining);
        }
        if wait > Duration::ZERO {
            std::thread::sleep(wait);
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "internal assembly of the final record"
    )]
    fn finish(
        &self,
        mut report: Report,
        served_by: String,
        served_index: usize,
        attempts: Vec<RungAttempt>,
        clock: &BudgetClock,
        floor_cost: f64,
        faults_before: usize,
    ) -> Report {
        let degraded = attempts
            .iter()
            .take(attempts.len().saturating_sub(1))
            .any(|a| !matches!(a.outcome, RungOutcome::Skipped(SkipReason::Disabled)));
        report.resilience = Some(Resilience {
            served_by,
            served_index,
            degraded,
            attempts,
            budget_millis: self.cfg.budget.total.map(|d| d.as_secs_f64() * 1e3),
            elapsed_millis: clock.elapsed().as_secs_f64() * 1e3,
            floor_cost,
            faults_observed: failpoint::injection_count().saturating_sub(faults_before) as u64,
        });
        report
    }
}

impl std::fmt::Debug for ResilientSolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSolver")
            .field("k", &self.k)
            .field("p", &self.pipeline.p)
            .field("budget", &self.cfg.budget)
            .field("certified", &self.cfg.certified)
            .field("custom_rungs", &self.custom.len())
            .finish()
    }
}

/// Ensure the served report carries a certified gap: the certified rung
/// brought its own; every lower rung gets the polynomial static stack's
/// bound paired with its achieved cost.
fn report_with_gap(inst: &Instance, k: usize, mut report: Report) -> Report {
    if report.certified.is_none() {
        let lb = crate::lower_bounds::static_lower_bound(inst, k);
        report.certified = Some(crate::lower_bounds::CertifiedGap::new(
            lb.value(),
            report.max_boundary,
            lb.winner(),
        ));
    }
    report
}
