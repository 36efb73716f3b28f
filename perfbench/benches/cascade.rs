//! `climate-cascade`: a ~5·10^5-cell climate mesh handed over as METIS
//! bytes and partitioned on the coarsening-cascade path.

use std::time::Instant;

use mmb_core::api::{auto_splitter, Instance, Solver, SplitterChoice};
use mmb_core::coarsen::CoarseningFront;
use mmb_core::pi::splitting_cost_measure_within;
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::refine::refine;
use mmb_core::strict::binpack2;
use mmb_graph::io::{parse_metis_reader, write_metis};
use mmb_graph::recognize::recognition_count;
use mmb_graph::workspace::{with_scratch_mode, Workspace};
use mmb_graph::Coloring;
use mmb_instances::climate::{climate, ClimateParams};

use crate::check::{bound_ratio, check_partition};
use crate::probe::SplitterProbe;
use crate::stats::{mean, median, percentile};
use crate::trace::Layers;
use crate::{peak_rss_mib, Args, Outcome, SETUP_REPEATS};

/// Mesh extent (longitude × latitude cells).
const LON: usize = 1000;
const LAT: usize = 500;
/// Storm systems per mesh and their peak intensity.
const STORMS: usize = 5;
const STORM_INTENSITY: f64 = 20.0;
/// Storm layouts (generator seeds) of the meshes. See perfbench/README.md
/// for why they are fixed and how they were chosen: 2 and 3 are typical, 5
/// is a heavy case for host BinPack2.
const LAYOUTS: [u64; 3] = [2, 3, 5];
/// One pass: indices into [`LAYOUTS`], the typical layouts twice each so
/// the median partition is a typical one and the maximum the heavy one.
const PASS: [usize; 5] = [0, 1, 0, 1, 2];
/// Seconds one pass takes on a 2-vCPU x86-64 host at the commit that added
/// the benchmark. A run makes a fixed number of passes, as many as take
/// about `--seconds` there (at least one), so every run of one `--seconds`
/// does the same work however fast the code is.
const NOMINAL_PASS_S: f64 = 34.0;
/// Classes.
const K: usize = 8;

fn config() -> PipelineConfig {
    PipelineConfig {
        coarsen: Some(CoarsenConfig::default()),
        ..PipelineConfig::default()
    }
}

/// The run's inputs: the climate meshes of [`LAYOUTS`] as METIS documents.
fn inputs() -> Vec<Vec<u8>> {
    LAYOUTS
        .iter()
        .map(|&layout| {
            let w = climate(&ClimateParams {
                lon: LON,
                lat: LAT,
                storms: STORMS,
                storm_intensity: STORM_INTENSITY,
                seed: layout,
            });
            write_metis(&w.grid.graph, &w.weights, &w.costs).into_bytes()
        })
        .collect()
}

/// One untraced partition: what a user of the library does with METIS
/// bytes.
struct Partition {
    wall_s: f64,
    solve_ms: f64,
    bound_ratio: f64,
    coloring: Coloring,
}

fn partition(bytes: &[u8]) -> Result<Partition, String> {
    let cfg = config();
    let t0 = Instant::now();
    let parsed = parse_metis_reader(bytes).map_err(|e| format!("parse: {e:?}"))?;
    let inst = Instance::new(parsed.graph, parsed.costs, parsed.weights)
        .map_err(|e| format!("instance: {e}"))?;
    let solver = Solver::for_instance(&inst)
        .classes(K)
        .config(cfg.clone())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    let report = solver.solve();
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
    let cost = check_partition(
        inst.graph(),
        inst.costs(),
        inst.weights(),
        K,
        &report.coloring,
        report.max_boundary,
    )?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Partition {
        wall_s,
        solve_ms,
        bound_ratio: bound_ratio(inst.costs(), K, cfg.p, cost),
        coloring: report.coloring,
    })
}

/// The same partition as [`partition`], made of the calls `Solver::build`
/// and `Solver::solve` make on the cascade path, each timed. Returns the
/// coloring and the traced wall time.
fn partition_traced(bytes: &[u8], layers: &mut Layers) -> Result<(Coloring, f64), String> {
    let cfg = config();
    let cc = cfg.coarsen.expect("the cascade workload sets coarsening");
    let p = cfg.p;
    Workspace::with_local(|ws| ws.reset_stats());
    let recognitions = recognition_count();
    let t0 = Instant::now();

    let parsed = layers
        .time("io.parse_s", || parse_metis_reader(bytes))
        .map_err(|e| format!("parse: {e:?}"))?;
    let inst = layers
        .time("instance.validate_s", || {
            Instance::new(parsed.graph, parsed.costs, parsed.weights)
        })
        .map_err(|e| format!("instance: {e}"))?;
    let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
    layers.time("recognize.s", || {
        inst.structure();
    });
    // `SolverBuilder::build`: the Auto splitter, π and ‖c‖_p.
    let probe = layers.time("solver.build_s", || {
        let probe = SplitterProbe::new(auto_splitter(&inst).0);
        std::hint::black_box(splitting_cost_measure_within(
            g,
            costs,
            p,
            1.0,
            inst.domain(),
        ));
        std::hint::black_box(inst.cost_norm(p));
        probe
    });

    // `Solver::solve` on the cascade path.
    let (coloring, coarse_probe_counts) = with_scratch_mode(cfg.scratch, || {
        let front = layers.time("coarsen.build_s", || {
            CoarseningFront::build(g, costs, weights, &cc.params)
        });
        layers.add("coarsen.levels", front.num_levels() as f64);
        if front.num_levels() == 0 {
            return Err("the cascade contracted nothing".to_string());
        }
        let (coarse, coarse_counts) = layers.time("coarse.solve_s", || {
            let (cg, ccosts, cweights) = front.coarsest((g, costs, weights));
            let coarse_inst = Instance::new(cg.clone(), ccosts.to_vec(), cweights.to_vec())
                .map_err(|e| format!("coarse instance: {e}"))?;
            let coarse_probe = SplitterProbe::new(auto_splitter(&coarse_inst).0);
            let coarse_solver = Solver::for_instance(&coarse_inst)
                .classes(K)
                .config(PipelineConfig {
                    coarsen: None,
                    ..cfg.clone()
                })
                .splitter(SplitterChoice::Custom(Box::new(&coarse_probe)))
                .build()
                .map_err(|e| format!("coarse build: {e}"))?;
            let report = coarse_solver.solve();
            drop(coarse_solver);
            Ok::<_, String>((report, coarse_probe.counts()))
        })?;
        let (mut kl_s, mut kl_host_s) = (0.0, 0.0);
        let projected = layers.time("project.s", || {
            // The plain projections of the intermediate stages the
            // report carries.
            let host_map = front.host_map(g.num_vertices());
            for chi in [&coarse.stages.multibalanced, &coarse.stages.almost_strict] {
                let mut out = Coloring::new_uncolored(g.num_vertices(), K);
                for v in 0..g.num_vertices() as u32 {
                    if let Some(c) = chi.get(host_map[v as usize]) {
                        out.set(v, c);
                    }
                }
                std::hint::black_box(out);
            }
            front.project_to_host((g, costs, weights), coarse.coloring, |fg, fc, fw, chi| {
                let t = Instant::now();
                let out = refine(fg, fc, fw, chi, &cc.kl);
                // Levels are projected coarse to fine: the last call is
                // the host level.
                kl_host_s = t.elapsed().as_secs_f64();
                kl_s += kl_host_s;
                out
            })
        });
        let projected = projected.map_err(|e| format!("projection: {e}"))?;
        layers.add("refine.kl_s", kl_s);
        layers.add("refine.kl_host_s", kl_host_s);
        let before = probe.counts();
        let strict = layers.time("strict.binpack2_s", || {
            binpack2(g, &probe, &projected, inst.domain(), weights)
        });
        layers.add(
            "strict.split_calls",
            probe.counts().since(before).calls as f64,
        );
        Ok((strict, coarse_counts))
    })?;

    let reported = crate::check::max_boundary(g, costs, &coloring);
    layers.time("check.s", || {
        check_partition(g, costs, weights, K, &coloring, reported)
    })?;
    let wall_s = t0.elapsed().as_secs_f64();

    let counts = probe.counts();
    layers.add(
        "splitters.calls",
        (counts.calls + coarse_probe_counts.calls) as f64,
    );
    layers.add(
        "splitters.subset_vertices",
        (counts.subset_vertices + coarse_probe_counts.subset_vertices) as f64,
    );
    layers.add(
        "splitters.split_s",
        counts.split_s + coarse_probe_counts.split_s,
    );
    layers.add(
        "recognize.calls",
        (recognition_count() - recognitions) as f64,
    );
    let ws = Workspace::with_local(|ws| ws.stats());
    layers.add("workspace.acquires", ws.acquires as f64);
    layers.add("workspace.fresh_allocs", ws.fresh_allocs as f64);
    layers.add(
        "workspace.peak_bytes",
        ws.peak_total_bytes(g.num_vertices()) as f64,
    );
    Ok((coloring, wall_s))
}

/// Spans that block a traced partition, in order; for every partition
/// their sum must lie between 90 % and 100 % of its traced wall time.
const BLOCKING: [&str; 9] = [
    "io.parse_s",
    "instance.validate_s",
    "recognize.s",
    "solver.build_s",
    "coarsen.build_s",
    "coarse.solve_s",
    "project.s",
    "strict.binpack2_s",
    "check.s",
];

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut meshes = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        meshes = inputs();
        setup.push(t.elapsed().as_secs_f64());
    }
    out.notes.push(format!(
        "climate meshes {LON}x{LAT} with storm layouts {LAYOUTS:?} in passes {PASS:?}, \
         {STORMS} storms, k = {K}, cascade on; METIS documents of {} bytes",
        meshes.iter().map(Vec::len).sum::<usize>()
    ));

    let mut walls = Vec::new();
    let mut solves = Vec::new();
    let mut ratios = Vec::new();
    let mut layers = Layers::default();
    let (mut traced_ops, mut traced_wall, mut untraced_wall) = (0usize, 0.0, 0.0);
    let start = Instant::now();
    let passes = ((args.seconds.as_secs_f64() / NOMINAL_PASS_S).round() as usize).max(1);
    for i in 0..passes * PASS.len() {
        let bytes = &meshes[PASS[i % PASS.len()]];
        out.attempted += 1;
        let plain = match partition(bytes) {
            Ok(p) => p,
            Err(e) => {
                out.fail("partition", e);
                continue;
            }
        };
        walls.push(plain.wall_s);
        solves.push(plain.solve_ms);
        ratios.push(plain.bound_ratio);
        if args.trace {
            let covered_before = layers.sum(&BLOCKING);
            match partition_traced(bytes, &mut layers) {
                Ok((coloring, wall)) if coloring == plain.coloring => {
                    traced_ops += 1;
                    traced_wall += wall;
                    untraced_wall += plain.wall_s;
                    let covered = layers.sum(&BLOCKING) - covered_before;
                    if covered > wall || covered < 0.9 * wall {
                        out.fail(
                            "trace",
                            format!("blocking spans cover {covered} s of a {wall} s partition"),
                        );
                    }
                }
                Ok(_) => out.fail("trace", "traced coloring differs from Solver::solve"),
                Err(e) => out.fail("trace", e),
            }
        }
    }
    let measured = start.elapsed().as_secs_f64();
    if walls.is_empty() {
        return out;
    }

    let (tail, beyond) = percentile(&solves, 100.0);
    out.notes.push(format!(
        "{} partitions in {measured:.2} s; solve tail is the maximum ({beyond} beyond)",
        walls.len()
    ));
    let e2e = &mut out.end_to_end;
    e2e.insert("setup_s", median(&setup));
    e2e.insert("partition_p50_s", median(&walls));
    e2e.insert("solve_p50_ms", median(&solves));
    e2e.insert("solve_tail_ms", tail);
    // Every partition solves once on the solver it just built.
    e2e.insert("warm_p50_ms", median(&solves));
    e2e.insert("warm_tail_ms", tail);
    e2e.insert("cold_p50_ms", median(&walls) * 1e3);
    e2e.insert(
        "requests_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    e2e.insert("bound_ratio_mean", mean(&ratios));
    e2e.insert("peak_rss_mib", peak_rss_mib());

    if args.trace && traced_ops > 0 {
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
