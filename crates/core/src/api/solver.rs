//! The reusable solver: build once, `solve()` many times.
//!
//! [`Solver`] is the serve-heavy entry point of the library. Building one
//! (via the [`SolverBuilder`]) fixes the instance, the class count `k`,
//! the pipeline configuration, and — crucially — *constructs the splitter
//! once*: GridSplit's cost scaling, the tree splitter's forest check, the
//! path order, all happen at [`SolverBuilder::build`] time, together with
//! the splitting-cost measure `π` (Definition 10) and `‖c‖_p`, so
//! repeated [`Solver::solve`] calls on the same instance only pay for the
//! pipeline itself.
//!
//! ```
//! use mmb_core::api::{Instance, Solver, SplitterChoice};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights).unwrap();
//! let solver = Solver::for_instance(&inst)
//!     .classes(4)
//!     .p(2.0)
//!     .splitter(SplitterChoice::Auto)
//!     .build()
//!     .unwrap();
//! let report = solver.solve(); // reusable: call again without rebuilding
//! assert!(report.is_strictly_balanced());
//! assert_eq!(solver.family(), "grid");
//! ```

use std::sync::Arc;

use mmb_graph::recognize::Structure;
use mmb_graph::workspace::Workspace;
use mmb_graph::Coloring;
use mmb_splitters::bfs::BfsSplitter;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::order::OrderSplitter;
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;
use rayon::prelude::*;

use crate::api::artifacts::SolverArtifacts;
use crate::api::delta::InstanceDelta;
use crate::api::error::SolveError;
use crate::api::instance::Instance;
use crate::api::report::Report;
use crate::multibalance::multibalance_minmax_with_pi_ws;
use crate::pi::splitting_cost_measure_within;
use crate::pipeline::{PipelineConfig, ScratchPolicy};
use crate::shrink::{almost_strict_ws, ShrinkParams};
use crate::strict::{assign_to_lightest, binpack2};
use crate::verify;

/// Which splitter family drives the pipeline.
///
/// The lifetime `'i` bounds a [`SplitterChoice::Custom`] splitter; the
/// other variants are `'static` descriptions.
pub enum SplitterChoice<'i> {
    /// Pick by the instance's structure: grid geometry → GridSplit
    /// (Theorem 19), forest → smallest-subtree DFS, union of paths →
    /// prefix splitting along the walk, anything else → the BFS fallback.
    Auto,
    /// GridSplit; requires grid geometry (given or detected), else
    /// [`SolveError::SplitterUnavailable`].
    Grid,
    /// The forest splitter; requires an acyclic instance.
    Tree,
    /// Prefix splitting in vertex-id order (always available; quality
    /// depends entirely on the order's locality).
    Order,
    /// The BFS engineering baseline (always available, no guarantee).
    Bfs,
    /// Bring your own [`Splitter`] (e.g. a
    /// [`SeparatorSplitter`](mmb_splitters::separator::SeparatorSplitter)
    /// or an instrumented
    /// [`RecordingSplitter`](mmb_splitters::recording::RecordingSplitter)).
    Custom(Box<dyn Splitter + 'i>),
}

impl std::fmt::Debug for SplitterChoice<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SplitterChoice::Auto => "Auto",
            SplitterChoice::Grid => "Grid",
            SplitterChoice::Tree => "Tree",
            SplitterChoice::Order => "Order",
            SplitterChoice::Bfs => "Bfs",
            SplitterChoice::Custom(_) => "Custom(..)",
        })
    }
}

/// Construct the splitter [`SplitterChoice::Auto`] would pick for `inst`,
/// together with the family label it matched.
///
/// Exposed so baselines (recursive bisection) and harness code can drive
/// *their* algorithms with the same automatically selected splitter.
pub fn auto_splitter(inst: &Instance) -> (Box<dyn Splitter + '_>, &'static str) {
    if let Some(grid) = inst.grid() {
        return (Box::new(GridSplitter::new(grid, inst.costs())), "grid");
    }
    match inst.structure() {
        Structure::Path { positions } => (
            Box::new(OrderSplitter::by_key(
                inst.num_vertices(),
                positions.clone(),
                "order/path",
            )),
            "path",
        ),
        Structure::Forest => (Box::new(TreeSplitter::new(inst.graph())), "forest"),
        // `inst.grid()` above already surfaced detected lattices; this arm
        // is unreachable but kept total.
        Structure::Grid(gg) => (Box::new(GridSplitter::new(gg, inst.costs())), "grid"),
        Structure::Arbitrary => (Box::new(BfsSplitter::new(inst.graph())), "arbitrary"),
    }
}

/// Builder for a [`Solver`]; obtained from [`Solver::for_instance`].
pub struct SolverBuilder<'i> {
    inst: &'i Instance,
    k: usize,
    cfg: PipelineConfig,
    choice: SplitterChoice<'i>,
    artifacts: Option<Arc<SolverArtifacts>>,
}

impl<'i> SolverBuilder<'i> {
    /// Number of classes `k` (required; `build` fails with
    /// [`SolveError::ZeroColors`] if unset or 0).
    pub fn classes(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Norm exponent `p > 1` of the splittability assumption (default 2;
    /// use `d/(d−1)` for `d`-dimensional grids).
    pub fn p(mut self, p: f64) -> Self {
        self.cfg.p = p;
        self
    }

    /// Shrink-and-conquer tunables (default [`ShrinkParams::default`]).
    pub fn shrink(mut self, params: ShrinkParams) -> Self {
        self.cfg.shrink = params;
        self
    }

    /// Skip the Proposition 11 stage (ablation switch, experiment E8).
    pub fn skip_shrink(mut self, skip: bool) -> Self {
        self.cfg.skip_shrink = skip;
        self
    }

    /// Replace the whole pipeline configuration at once.
    pub fn config(mut self, cfg: PipelineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Splitter family (default [`SplitterChoice::Auto`]).
    pub fn splitter(mut self, choice: SplitterChoice<'i>) -> Self {
        self.choice = choice;
        self
    }

    /// Warm-start construction from cached [`SolverArtifacts`] (usually
    /// handed out by a [`SolverCache`](crate::api::SolverCache)). If the
    /// snapshot [`matches`](SolverArtifacts::matches) this builder's
    /// topology and `p` exactly, `build` seeds the instance with its
    /// recognition verdict instead of running detection; `π` and `‖c‖_p`
    /// come from the instance's own costs either way. A non-matching
    /// snapshot is silently ignored and construction runs cold, so stale
    /// cache handoffs can never corrupt a solver.
    pub fn artifacts(mut self, artifacts: Arc<SolverArtifacts>) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Resolve the splitter (reusing the recognition verdict of
    /// [`SolverBuilder::artifacts`], if given and matching), precompute
    /// `π` and `‖c‖_p`, and return the reusable [`Solver`].
    pub fn build(self) -> Result<Solver<'i>, SolveError> {
        check_run(self.k, self.cfg.p)?;
        let inst = self.inst;
        // Exact-match check before the snapshot is used; seeding the
        // memoized structure slot must happen before the splitter
        // resolution below triggers detection.
        if let Some(a) = self.artifacts.filter(|a| a.matches(inst, self.cfg.p)) {
            inst.seed_structure(Arc::clone(a.shared_structure()));
        }
        let (splitter, family): (Box<dyn Splitter + 'i>, &'static str) = match self.choice {
            SplitterChoice::Auto => auto_splitter(inst),
            SplitterChoice::Grid => match inst.grid() {
                Some(grid) => (Box::new(GridSplitter::new(grid, inst.costs())), "grid"),
                None => {
                    return Err(SolveError::SplitterUnavailable {
                        requested: "grid",
                        structure: inst.family(),
                    })
                }
            },
            SplitterChoice::Tree => {
                // Eligibility is actual acyclicity, not the detected
                // family label — an acyclic grid subset is a fine forest.
                let g = inst.graph();
                let (_, components) = g.components();
                if g.num_edges() + components == g.num_vertices() {
                    (Box::new(TreeSplitter::new(g)), "forest")
                } else {
                    return Err(SolveError::SplitterUnavailable {
                        requested: "tree",
                        structure: inst.family(),
                    });
                }
            }
            SplitterChoice::Order => (Box::new(OrderSplitter::by_id(inst.graph())), "order"),
            SplitterChoice::Bfs => (Box::new(BfsSplitter::new(inst.graph())), "bfs"),
            SplitterChoice::Custom(b) => (b, "custom"),
        };
        let pi = splitting_cost_measure_within(
            inst.graph(),
            inst.costs(),
            self.cfg.p,
            1.0,
            inst.domain(),
        )
        .into();
        let c_norm_p = inst.cost_norm(self.cfg.p);
        Ok(Solver {
            inst,
            k: self.k,
            cfg: self.cfg,
            splitter,
            family,
            pi,
            c_norm_p,
        })
    }
}

/// The run parameters every entry point validates first: `k ≥ 1`, and a
/// finite `p ≥ 1` — the pipeline's p-norm machinery needs it (the
/// theorems additionally want `p > 1`). Rejecting here keeps `solve()`
/// infallible.
fn check_run(k: usize, p: f64) -> Result<(), SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    if !(p.is_finite() && p >= 1.0) {
        return Err(SolveError::InvalidExponent { p });
    }
    Ok(())
}

/// A built, reusable solver: the Theorem 4 pipeline bound to one
/// [`Instance`], one `k`, one splitter.
///
/// All per-instance work that does not depend on the run itself — input
/// validation, splitter construction, the splitting-cost measure `π`,
/// `‖c‖_p` — happened at build time; [`Solver::solve`] only runs the
/// three pipeline stages. See the [module docs](self) for an example.
pub struct Solver<'i> {
    inst: &'i Instance,
    k: usize,
    cfg: PipelineConfig,
    splitter: Box<dyn Splitter + 'i>,
    family: &'static str,
    /// Splitting-cost measure `π` (Definition 10), precomputed per `p`.
    /// Stored as `Arc<[f64]>`, a copy of the computed `Vec`, which is
    /// then freed: storing the `Vec` itself measured ~1.2 MiB (~1.7 %)
    /// higher peak RSS over pools of 10⁴-vertex solvers (perfbench
    /// `climate-direct`).
    pi: Arc<[f64]>,
    /// `‖c‖_p` for the Theorem 5 bound in reports.
    c_norm_p: f64,
}

impl<'i> Solver<'i> {
    /// Start building a solver for `inst`.
    pub fn for_instance(inst: &'i Instance) -> SolverBuilder<'i> {
        SolverBuilder {
            inst,
            k: 0,
            cfg: PipelineConfig::default(),
            choice: SplitterChoice::Auto,
            artifacts: None,
        }
    }

    /// Run the Theorem 4 pipeline (Proposition 7 → 11 → 12) and return a
    /// structured [`Report`]. Infallible: everything that can fail was
    /// checked at build time. Call repeatedly to amortize the build; the
    /// dense scratch buffers come from this thread's pooled
    /// [`Workspace`] (or fresh allocations under
    /// [`ScratchPolicy::Transient`]) and are amortized across calls too.
    pub fn solve(&self) -> Report {
        mmb_graph::workspace::with_scratch_mode(self.cfg.scratch, || match self.cfg.scratch {
            ScratchPolicy::Reuse => Workspace::with_local(|ws| self.solve_in(ws)),
            ScratchPolicy::Transient => self.solve_in(&Workspace::transient()),
        })
    }

    fn solve_in(&self, ws: &Workspace) -> Report {
        if let Some(cc) = self.cfg.coarsen {
            if self.inst.num_vertices() > cc.params.target_vertices {
                if let Some(report) = self.solve_coarsened(&cc, ws) {
                    return report;
                }
            }
        }
        let inst = self.inst;
        let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
        let domain = inst.domain();
        let user = inst.balance_measures();

        #[expect(
            clippy::disallowed_methods,
            reason = "the four stage timestamps feed only the report's observational `timings` field, never the coloring"
        )]
        let t0 = std::time::Instant::now();
        crate::failpoint::raise_any("pipeline::multibalance");
        let stage1 = multibalance_minmax_with_pi_ws(
            g,
            costs,
            &self.splitter,
            self.k,
            domain,
            &user,
            &self.pi,
            ws,
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "observational timing only, as above"
        )]
        let t1 = std::time::Instant::now();
        crate::failpoint::raise_any("pipeline::shrink");
        let stage2 = if self.cfg.skip_shrink {
            stage1.coloring.clone()
        } else {
            almost_strict_ws(
                g,
                costs,
                &self.splitter,
                &stage1.coloring,
                domain,
                weights,
                self.cfg.p,
                &self.cfg.shrink,
                ws,
            )
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "observational timing only, as above"
        )]
        let t2 = std::time::Instant::now();
        crate::failpoint::raise_any("pipeline::binpack");
        let stage3 = binpack2(g, &self.splitter, &stage2, domain, weights);
        #[expect(
            clippy::disallowed_methods,
            reason = "observational timing only, as above"
        )]
        let t3 = std::time::Instant::now();
        debug_assert!(stage3.is_total(), "pipeline must color every vertex");

        let mut report = Report::assemble(
            inst,
            self.c_norm_p,
            self.cfg.p,
            self.splitter.name().to_owned(),
            stage1.coloring,
            stage2,
            stage3,
        );
        report.stage_millis = [
            (t1 - t0).as_secs_f64() * 1e3,
            (t2 - t1).as_secs_f64() * 1e3,
            (t3 - t2).as_secs_f64() * 1e3,
        ];
        report
    }

    /// The large-`n` path (see [`crate::coarsen`] and DESIGN.md §13):
    /// contract the host down to the cascade target, run the three stages
    /// there via a coarse sub-solver, project the result back with
    /// per-level KL refinement, and restore strict balance on the host
    /// with a final `BinPack2` — projection preserves class weights
    /// exactly, but the host's smaller `‖w‖∞` tightens eq. (1), so the
    /// rebalance is mandatory, not defensive. Returns `None` when no
    /// contraction was possible (edgeless host), in which case the caller
    /// falls through to the direct solve.
    fn solve_coarsened(
        &self,
        cc: &crate::pipeline::CoarsenConfig,
        ws: &Workspace,
    ) -> Option<Report> {
        let inst = self.inst;
        let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());

        #[expect(
            clippy::disallowed_methods,
            reason = "timestamps feed only the report's observational `timings` field, never the coloring"
        )]
        let t0 = std::time::Instant::now();
        let front = crate::coarsen::CoarseningFront::build(g, costs, weights, &cc.params);
        if front.num_levels() == 0 {
            return None;
        }
        let (cg, ccosts, cweights) = front.coarsest((g, costs, weights));
        let mut coarse_inst = Instance::new(cg.clone(), ccosts.to_vec(), cweights.to_vec())
            .expect("contraction of a valid instance is valid");
        for m in inst.extra_measures() {
            coarse_inst = coarse_inst
                .with_extra_measure(front.coarsen_measure(m))
                .expect("coarsened measure of a valid measure is valid");
        }
        let coarse_solver = Solver::for_instance(&coarse_inst)
            .classes(self.k)
            .config(PipelineConfig {
                coarsen: None,
                ..self.cfg.clone()
            })
            .build()
            .expect("k and p were validated at the host build");
        let coarse = coarse_solver.solve_in(ws);
        #[expect(
            clippy::disallowed_methods,
            reason = "observational timing only, as above"
        )]
        let t1 = std::time::Instant::now();

        // Intermediate stages project plainly (they are ablation data);
        // the final coloring projects with per-level KL refinement.
        let host_map = front.host_map(g.num_vertices());
        let project_plain = |chi: &mmb_graph::Coloring| {
            let mut out = mmb_graph::Coloring::new_uncolored(g.num_vertices(), self.k);
            for v in 0..g.num_vertices() as u32 {
                if let Some(c) = chi.get(host_map[v as usize]) {
                    out.set(v, c);
                }
            }
            out
        };
        let stage1 = project_plain(&coarse.stages.multibalanced);
        let stage2 = project_plain(&coarse.stages.almost_strict);
        let projected = front
            .project_to_host((g, costs, weights), coarse.coloring, |fg, fc, fw, chi| {
                crate::refine::refine(fg, fc, fw, chi, &cc.kl)
            })
            .expect("level triples are valid by construction");
        let stage3 = binpack2(g, &self.splitter, &projected, inst.domain(), weights);
        #[expect(
            clippy::disallowed_methods,
            reason = "observational timing only, as above"
        )]
        let t2 = std::time::Instant::now();
        debug_assert!(stage3.is_total(), "cascade must color every vertex");

        let mut report = Report::assemble(
            inst,
            self.c_norm_p,
            self.cfg.p,
            self.splitter.name().to_owned(),
            stage1,
            stage2,
            stage3,
        );
        // Coarsening folds into stage 1's slot, projection + rebalance
        // into stage 3's; stage 2 keeps the coarse shrink time.
        let coarsen_ms = (t1 - t0).as_secs_f64() * 1e3 - coarse.stage_millis.iter().sum::<f64>();
        report.stage_millis = [
            coarsen_ms.max(0.0) + coarse.stage_millis[0],
            coarse.stage_millis[1],
            coarse.stage_millis[2] + (t2 - t1).as_secs_f64() * 1e3,
        ];
        Some(report)
    }

    /// [`Solver::solve`], plus a certified optimality gap: the
    /// [`lower_bounds`](crate::lower_bounds) certifier stack runs on the
    /// instance and its best bound is paired with the achieved cost into
    /// [`Report::certified`]. Certification cost is independent of the
    /// solve itself (sort/knapsack passes, a size-capped Stoer–Wagner,
    /// the exact oracle only at `n ≤ 16`), so the plain [`Solver::solve`]
    /// hot path never pays for it.
    pub fn solve_certified(&self) -> Report {
        let mut report = self.solve();
        report.certified = Some(crate::lower_bounds::certify(
            self.inst,
            self.k,
            report.max_boundary,
        ));
        report
    }

    /// [`Solver::solve`], then spend the budgets in `cfg` improving the
    /// pipeline's coloring with the branch-and-bound engine of
    /// [`crate::bnb`], seeded from it. The returned report is **never
    /// worse** than [`Solver::solve`]'s — at node budget 0 it *is* the
    /// pipeline's — and [`Report::certified`] always carries the
    /// engine's gap: ratio exactly 1.0 when the search exhausted (the
    /// coloring is the proven optimum), the root certifier-stack gap
    /// when it was truncated.
    pub fn solve_anytime(&self, cfg: &crate::bnb::BnbConfig) -> Report {
        let mut report = self.solve();
        let sol =
            crate::bnb::solve_seeded(self.inst, self.k, cfg, Some(&report.coloring), &mut |_| {
                false
            })
            .expect("k ≥ 1 was checked at build time");
        if sol.max_boundary < report.max_boundary {
            // The search improved on the pipeline.
            report.set_coloring(self.inst, sol.coloring);
        }
        report.certified = Some(sol.gap);
        report
    }

    /// [`resolve_delta`] against this solver's instance, `k` and
    /// configuration.
    pub fn resolve_delta(
        &self,
        delta: &InstanceDelta,
        previous: &Coloring,
    ) -> Result<DeltaSolve, SolveError> {
        resolve_delta(self.inst, self.k, &self.cfg, delta, previous)
    }

    /// The splitting-cost measure `π` this solver was built with.
    #[cfg(test)]
    pub(crate) fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Name of the constructed splitter (e.g. `"gridsplit"`, `"tree"`,
    /// `"order/path"`, `"bfs"`).
    pub fn splitter_name(&self) -> &str {
        self.splitter.name()
    }

    /// The family label the splitter choice resolved to. For
    /// [`SplitterChoice::Auto`] this is the detected structure — `"grid"`,
    /// `"forest"`, `"path"`, or `"arbitrary"` (BFS fallback) — and for
    /// explicit choices it names the choice (`"order"`, `"bfs"`,
    /// `"custom"`, …).
    pub fn family(&self) -> &'static str {
        self.family
    }
}

/// Warm re-solve after an [`InstanceDelta`]: mutate `base`, re-seed the
/// pipeline from `previous` (the coloring served for `base` — by a solve
/// or an earlier `resolve_delta`), and repair only the delta's touched
/// region instead of solving from scratch. Needs no [`Solver`]: nothing
/// here uses a splitter, `π` or a recognized structure.
///
/// The warm path: project `previous` onto the mutated instance,
/// greedy-assign any appended vertices to the lightest class,
/// KL-repair the touched closure ([`refine_region`]), and restore
/// eq. (1) with a `BinPack2` pass only if the mutation broke strict
/// balance. The candidate then faces **the same gate the resilient
/// ladder serves through** ([`verify::gate`]: total, strictly
/// balanced, no worse than [`verify::lpt_floor`]) and on rejection
/// the whole thing falls back to a cold [`SplitterChoice::Auto`]
/// solve of the mutated instance, itself gated, with the floor as
/// the last resort (`DeltaSolve::warm` reports which path produced
/// the served coloring). Either way, the returned coloring passed the
/// gate: warm serving never trades away the strict-balance contract.
///
/// Errors, in this order: [`SolveError::ZeroColors`] and
/// [`SolveError::InvalidExponent`] (the checks [`SolverBuilder::build`]
/// makes), [`SolveError::WarmStartMismatch`] when `previous` does not
/// fit `k` (`what: "k"`) or `base` (`what: "n"`), then the delta's own
/// typed [`InstanceError`](crate::api::InstanceError) wrapped in
/// [`SolveError::Instance`].
///
/// [`refine_region`]: crate::refine::refine_region
pub fn resolve_delta(
    base: &Instance,
    k: usize,
    cfg: &PipelineConfig,
    delta: &InstanceDelta,
    previous: &Coloring,
) -> Result<DeltaSolve, SolveError> {
    check_run(k, cfg.p)?;
    if previous.k() != k {
        return Err(SolveError::WarmStartMismatch { what: "k" });
    }
    if previous.num_vertices() != base.num_vertices() {
        return Err(SolveError::WarmStartMismatch { what: "n" });
    }
    let applied = delta.apply(base)?;
    let inst2 = applied.instance;
    let (g, costs, weights) = (inst2.graph(), inst2.costs(), inst2.weights());

    // Project the incumbent onto the mutated instance (vertex ids of
    // survivors are stable; only appended vertices are new).
    let mut chi = Coloring::new_uncolored(inst2.num_vertices(), k);
    for v in 0..base.num_vertices() as u32 {
        if let Some(c) = previous.get(v) {
            chi.set(v, c);
        }
    }
    // Appended (and any previously uncolored) vertices go to the
    // lightest class — the same greedy that makes the ladder's floor
    // rungs strict in any order.
    assign_to_lightest(&mut chi, weights, 0..inst2.num_vertices() as u32);
    // KL repair, scoped to the touched closure, then one full-graph
    // sweep: the regional pass soaks up the local damage cheaply, and
    // the global pass lets repairs propagate past the closure when a
    // mutation shifted the balance landscape (still far cheaper than
    // a cold solve — no recognition, no Prop 7/11/12 stages).
    let params = crate::refine::KlParams::default();
    let chi = crate::refine::refine_region(g, costs, weights, &chi, &applied.touched, &params)?;
    let chi = crate::refine::refine(g, costs, weights, &chi, &params)?;
    // The mutation (or the repair's balance envelope, which is looser
    // than eq. (1)) may have broken strict balance; restore it with
    // the Proposition 12 pass. `OrderSplitter::by_id` needs no
    // structure recognition and is always available.
    let restore_strict = |chi: Coloring| {
        if chi.is_strictly_balanced(weights) {
            chi
        } else {
            binpack2(g, &OrderSplitter::by_id(g), &chi, inst2.domain(), weights)
        }
    };
    let chi = restore_strict(chi);

    // Second warm candidate: a full KL sweep seeded from the LPT
    // rung instead of the incumbent. When a mutation moves the
    // balance landscape enough that the incumbent's basin is no
    // longer the good one, this restart escapes it — still without
    // touching the pipeline.
    let (lpt, floor_cost) = verify::lpt_floor(&inst2, k);
    let restart = restore_strict(crate::refine::refine(g, costs, weights, &lpt, &params)?);

    // The same gate the resilient ladder serves through; of the
    // candidates that pass it, serve the cheapest.
    if let Some((coloring, max_boundary)) =
        verify::cheapest_passing(&inst2, [chi, restart], floor_cost)
    {
        return Ok(DeltaSolve {
            coloring,
            max_boundary,
            warm: true,
            instance: inst2,
        });
    }

    // Cold fallback: a fresh Auto-splitter solve of the mutated
    // instance, still gate-checked; if even the pipeline's output
    // fails the gate (it can exceed the LPT floor on adversarial
    // costs), serve the floor itself — it passes by construction.
    let report = Solver::for_instance(&inst2)
        .classes(k)
        .config(cfg.clone())
        .build()?
        .solve();
    let (coloring, max_boundary) = verify::cheapest_passing(&inst2, [report.coloring], floor_cost)
        .unwrap_or((lpt, floor_cost));
    Ok(DeltaSolve {
        coloring,
        max_boundary,
        warm: false,
        instance: inst2,
    })
}

/// The outcome of a [`resolve_delta`] warm re-solve.
///
/// Owns the mutated [`Instance`] (apply the next delta — or build a
/// solver — against it) and the served coloring, which passed
/// [`verify::gate`] on whichever path (`warm`) produced it.
#[derive(Debug)]
pub struct DeltaSolve {
    /// The mutated instance the coloring is for.
    pub instance: Instance,
    /// The served coloring: total, strictly balanced, within the floor.
    pub coloring: Coloring,
    /// `‖∂χ⁻¹‖_∞` of the served coloring.
    pub max_boundary: f64,
    /// `true` if the incumbent-repair path survived the gate; `false` if
    /// the result came from the cold fallback solve.
    pub warm: bool,
}

impl std::fmt::Debug for Solver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("k", &self.k)
            .field("p", &self.cfg.p)
            .field("splitter", &self.splitter.name())
            .field("family", &self.family)
            .finish()
    }
}

/// Solve one instance with per-item isolation: build, solve, and convert
/// any panic into a typed [`SolveError::Panicked`] — the shared guts of
/// the batch entry points. One bad request must not poison its batch.
#[expect(
    clippy::disallowed_methods,
    reason = "the batch isolation boundary: a panic in one instance's solve becomes that item's typed error instead of unwinding through the rayon worker and poisoning the whole batch. Per-item state is rebuilt from scratch each call and the pooled workspace rolls its epochs back via Drop, so the closure's captures are sound to reuse after an unwind"
)]
fn solve_one_isolated(
    inst: &Instance,
    k: usize,
    cfg: &PipelineConfig,
) -> Result<Report, SolveError> {
    crate::failpoint::raise("batch::item")?;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Solver::for_instance(inst)
            .classes(k)
            .config(cfg.clone())
            .build()
            .map(|solver| solver.solve())
    }))
    .unwrap_or_else(|payload| {
        Err(SolveError::Panicked {
            context: "solve_many",
            message: crate::failpoint::panic_message(payload.as_ref()),
        })
    })
}

/// Solve a batch of instances with a shared configuration — the
/// "serve many requests" entry point.
///
/// Instances are distributed over the `rayon` worker pool
/// (`RAYON_NUM_THREADS`-style override honored); each worker builds the
/// per-instance [`Solver`] with [`SplitterChoice::Auto`] and reuses its
/// **thread-local [`Workspace`]** across every instance it processes, so a
/// stream of requests pays for splitter construction once per instance and
/// for scratch allocation (almost) never.
///
/// **Partial-failure semantics:** each instance gets its own `Result`
/// slot, and a panic inside one item's solve is caught at the item
/// boundary and returned as that slot's [`SolveError::Panicked`] — one
/// poisoned request never takes down the rest of the batch (chaos-tested
/// in `tests/chaos.rs`).
///
/// Deterministic: results come back in input order, and each coloring is
/// bit-identical to what a one-at-a-time
/// `Solver::for_instance(inst).classes(k).config(cfg).build()?.solve()`
/// produces, for any thread count (property-tested in `tests/api.rs`).
pub fn solve_many(
    instances: &[Instance],
    k: usize,
    cfg: &PipelineConfig,
) -> Vec<Result<Report, SolveError>> {
    instances
        .par_iter()
        .map(|inst| solve_one_isolated(inst, k, cfg))
        .collect()
}

/// [`solve_many`] for **unvalidated** inputs: each `(graph, costs,
/// weights)` triple is validated into an [`Instance`] at its own batch
/// slot, so one malformed request (wrong vector length, NaN weight)
/// yields one typed `Err` — never a poisoned batch. The admission path a
/// serving edge puts in front of the solver pool.
pub fn solve_many_raw(
    inputs: Vec<(mmb_graph::Graph, Vec<f64>, Vec<f64>)>,
    k: usize,
    cfg: &PipelineConfig,
) -> Vec<Result<Report, SolveError>> {
    let admitted: Vec<Result<Instance, SolveError>> = inputs
        .into_iter()
        .map(|(g, costs, weights)| Instance::new(g, costs, weights).map_err(SolveError::from))
        .collect();
    admitted
        .par_iter()
        .map(|slot| match slot {
            Ok(inst) => solve_one_isolated(inst, k, cfg),
            Err(e) => Err(e.clone()),
        })
        .collect()
}
