//! `climate-direct`: a closed loop of `Solver::solve` calls on distinct
//! seeded climate meshes of 4·10^3–10^4 cells, on the theorem-faithful
//! path (no cascade).

use std::time::Instant;

use mmb_core::api::{auto_splitter, Instance, Solver};
use mmb_core::multibalance::multibalance_minmax_with_pi_ws;
use mmb_core::pi::splitting_cost_measure_within;
use mmb_core::pipeline::PipelineConfig;
use mmb_core::shrink::almost_strict_ws;
use mmb_core::strict::binpack2;
use mmb_graph::recognize::recognition_count;
use mmb_graph::workspace::{with_scratch_mode, Workspace};
use mmb_graph::Coloring;
use mmb_instances::climate::{climate, ClimateParams};

use crate::check::{bound_ratio, check_partition};
use crate::probe::SplitterProbe;
use crate::stats::{mean, median, percentile, Stream};
use crate::trace::Layers;
use crate::{peak_rss_mib, Args, Outcome, SETUP_REPEATS};

/// Distinct meshes per run; solves cycle through them.
const POOL: usize = 48;
/// Solves per second on a 2-vCPU x86-64 host at the commit that added the
/// benchmark. A run makes whole passes over the pool, as many as take
/// about `--seconds` there (at least one), so every run of one `--seconds`
/// does the same work however fast the code is.
const NOMINAL_SOLVES_PER_S: f64 = 10.0;
/// Stride of the size order: coprime to `POOL`, so consecutive meshes
/// differ in size and any prefix of the cycle spans the whole window.
const SIZE_STRIDE: usize = 23;
/// Cell-count window of a mesh.
const MIN_CELLS: usize = 4_000;
const MAX_CELLS: usize = 10_000;
/// Classes.
const K: usize = 16;
/// Percentile reported as `solve_tail_ms` and `warm_tail_ms`.
const TAIL_PCT: f64 = 90.0;

/// The run's inputs: `POOL` seeded climate meshes.
fn inputs(seed: u64) -> Vec<Instance> {
    (0..POOL as u64)
        .map(|i| {
            // Sizes step evenly through the window; the seed draws the
            // storm layouts.
            let mut s = Stream::new(seed, 0xD1EC_7000 + i);
            let rank = (i as usize * SIZE_STRIDE) % POOL;
            let cells = MIN_CELLS + (MAX_CELLS - MIN_CELLS) * rank / (POOL - 1);
            let lon = (cells as f64 * 2.0).sqrt().round() as usize;
            let lat = cells / lon;
            let w = climate(&ClimateParams {
                lon,
                lat,
                seed: s.next_u64(),
                ..ClimateParams::default()
            });
            Instance::from_grid(w.grid, w.costs, w.weights).expect("climate meshes are valid")
        })
        .collect()
}

fn build(inst: &Instance) -> Solver<'_> {
    Solver::for_instance(inst)
        .classes(K)
        .config(PipelineConfig::default())
        .build()
        .expect("k and p are valid")
}

/// `Solver::build` plus `Solver::solve` on `inst`, made of the calls they
/// make on the direct path, each timed.
fn solve_traced(inst: &Instance, layers: &mut Layers) -> Coloring {
    let cfg = PipelineConfig::default();
    let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
    let domain = inst.domain();
    let user: Vec<&[f64]> = std::iter::once(weights)
        .chain(inst.extra_measures().iter().map(Vec::as_slice))
        .collect();
    let (probe, pi) = layers.time("solver.build_s", || {
        let probe = SplitterProbe::new(auto_splitter(inst).0);
        let pi = splitting_cost_measure_within(g, costs, cfg.p, 1.0, domain);
        std::hint::black_box(inst.cost_norm(cfg.p));
        (probe, pi)
    });
    let coloring = with_scratch_mode(cfg.scratch, || {
        Workspace::with_local(|ws| {
            let stage1 = layers.time("multibalance.s", || {
                multibalance_minmax_with_pi_ws(g, costs, &probe, K, domain, &user, &pi, ws)
            });
            let stage2 = layers.time("shrink.s", || {
                almost_strict_ws(
                    g,
                    costs,
                    &probe,
                    &stage1.coloring,
                    domain,
                    weights,
                    cfg.p,
                    &cfg.shrink,
                    ws,
                )
            });
            let before = probe.counts();
            let stage3 = layers.time("strict.binpack2_s", || {
                binpack2(g, &probe, &stage2, domain, weights)
            });
            layers.add(
                "strict.split_calls",
                probe.counts().since(before).calls as f64,
            );
            stage3
        })
    });
    let counts = probe.counts();
    layers.add("splitters.calls", counts.calls as f64);
    layers.add("splitters.subset_vertices", counts.subset_vertices as f64);
    layers.add("splitters.split_s", counts.split_s);
    coloring
}

/// Spans that block a traced solve.
const BLOCKING: [&str; 5] = [
    "solver.build_s",
    "multibalance.s",
    "shrink.s",
    "strict.binpack2_s",
    "check.s",
];

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        instances = inputs(args.seed);
        let solvers: Vec<Solver<'_>> = instances.iter().map(build).collect();
        std::hint::black_box(solvers[0].solve());
        setup.push(t.elapsed().as_secs_f64());
    }
    // The solvers the loop uses, with each one's build time: a mesh's
    // cold cost is its build plus its first solve.
    let (solvers, build_ms): (Vec<Solver<'_>>, Vec<f64>) = instances
        .iter()
        .map(|inst| {
            let t = Instant::now();
            let solver = build(inst);
            (solver, t.elapsed().as_secs_f64() * 1e3)
        })
        .unzip();
    std::hint::black_box(solvers[0].solve());
    let mut cold = Vec::new();
    let cells: Vec<usize> = instances.iter().map(Instance::num_vertices).collect();
    out.notes.push(format!(
        "{POOL} climate meshes of {}..{} cells, k = {K}, no cascade",
        cells.iter().min().copied().unwrap_or(0),
        cells.iter().max().copied().unwrap_or(0),
    ));

    let mut solves = Vec::new();
    let mut walls = Vec::new();
    let mut ratios = Vec::new();
    let mut layers = Layers::default();
    let (mut traced_ops, mut traced_wall, mut untraced_wall) = (0usize, 0.0, 0.0);
    let recognitions = recognition_count();
    let start = Instant::now();
    let passes =
        ((args.seconds.as_secs_f64() * NOMINAL_SOLVES_PER_S / POOL as f64).round() as usize).max(1);
    for i in 0..passes * POOL {
        let (inst, solver) = (&instances[i % POOL], &solvers[i % POOL]);
        out.attempted += 1;
        let t0 = Instant::now();
        let report = solver.solve();
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
        match check_partition(g, costs, weights, K, &report.coloring, report.max_boundary) {
            Ok(cost) => {
                if i < POOL {
                    cold.push(build_ms[i] + solve_ms);
                }
                walls.push(t0.elapsed().as_secs_f64());
                solves.push(solve_ms);
                ratios.push(bound_ratio(costs, K, solver.config().p, cost));
            }
            Err(e) => {
                out.fail("solve", e);
                continue;
            }
        }
        // The first pass is traced: every mesh once.
        if args.trace && i < POOL {
            // The untraced reference for the overhead: build, solve, check.
            let tu = Instant::now();
            let reference = build(inst).solve();
            let reported = reference.max_boundary;
            std::hint::black_box(check_partition(
                g,
                costs,
                weights,
                K,
                &reference.coloring,
                reported,
            ))
            .ok();
            untraced_wall += tu.elapsed().as_secs_f64();
            Workspace::with_local(|ws| ws.reset_stats());
            let tt = Instant::now();
            let coloring = solve_traced(inst, &mut layers);
            let reported = crate::check::max_boundary(g, costs, &coloring);
            let checked = layers.time("check.s", || {
                check_partition(g, costs, weights, K, &coloring, reported)
            });
            traced_wall += tt.elapsed().as_secs_f64();
            traced_ops += 1;
            let ws = Workspace::with_local(|ws| ws.stats());
            layers.add("workspace.acquires", ws.acquires as f64);
            layers.add("workspace.fresh_allocs", ws.fresh_allocs as f64);
            layers.add(
                "workspace.peak_bytes",
                ws.peak_total_bytes(g.num_vertices()) as f64,
            );
            if let Err(e) = checked {
                out.fail("trace", e);
            } else if coloring != report.coloring {
                out.fail("trace", "traced coloring differs from Solver::solve");
            }
        }
    }
    let measured = start.elapsed().as_secs_f64();
    if solves.is_empty() {
        return out;
    }

    let (tail, beyond) = percentile(&solves, TAIL_PCT);
    out.notes.push(format!(
        "{} solves in {measured:.2} s; tail = p{TAIL_PCT} ({beyond} samples beyond)",
        solves.len()
    ));
    let e2e = &mut out.end_to_end;
    e2e.insert("setup_s", median(&setup));
    e2e.insert("partition_p50_s", median(&walls));
    e2e.insert("solve_p50_ms", median(&solves));
    e2e.insert("solve_tail_ms", tail);
    // Every solve reuses a solver built during set-up.
    e2e.insert("warm_p50_ms", median(&solves));
    e2e.insert("warm_tail_ms", tail);
    e2e.insert("cold_p50_ms", median(&cold));
    e2e.insert(
        "requests_per_s",
        solves.len() as f64 / (solves.iter().sum::<f64>() * 1e-3),
    );
    e2e.insert("bound_ratio_mean", mean(&ratios));
    e2e.insert("peak_rss_mib", peak_rss_mib());

    if args.trace && traced_ops > 0 {
        layers.add(
            "recognize.calls",
            (recognition_count() - recognitions) as f64,
        );
        let mut l = layers.per_op(traced_ops);
        let covered = layers.sum(&BLOCKING) / traced_ops as f64;
        let wall = traced_wall / traced_ops as f64;
        l.insert("trace.ops", traced_ops as f64);
        l.insert("trace.wall_s", wall);
        l.insert("trace.coverage_frac", covered / wall);
        l.insert("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
        out.layers = l;
    }
    out
}
