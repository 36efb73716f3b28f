//! Bit-identity pin for `mmb_core::strict::binpack2`.
//!
//! The digests below were captured from the BinPack2 implementation that
//! re-summed every class per piece, rescanned it for a heavy vertex and
//! merged pieces through n-bit sets. The linear rewrite (heavy vertices
//! shed in one pass, incremental class loads, sparse pieces, direct
//! output) must reproduce them exactly wherever its bulk-carve branch does
//! not fire. All three pinned inputs stay below that branch's
//! threshold:
//!
//! * the stage-2 (almost strictly balanced) colorings of the quick corpus,
//!   whose classes sit within `2‖w‖∞` of the average (Proposition 11);
//! * a cascade-projected climate mesh, whose overweight classes shed only
//!   heavy singletons (no splitter call at all) — the heavy-first order,
//!   the Step-3/4 refill loops and the incremental loads are all on this
//!   path;
//! * a striped lattice whose one overweight class carries a light excess
//!   below `2‖w‖∞`, shed by splitter calls on the class remainder (the
//!   tail loop).
//!
//! A divergence here is a behaviour change, not an update-the-golden
//! event.

use mmb_core::api::{auto_splitter, Instance, Solver};
use mmb_core::coarsen::{CoarsenParams, CoarseningFront};
use mmb_core::pipeline::CoarsenConfig;
use mmb_core::refine::refine;
use mmb_core::strict::binpack2;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::{Coloring, VertexSet};
use mmb_instances::climate::{climate, ClimateParams};
use mmb_instances::corpus::Corpus;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::recording::RecordingSplitter;

/// FNV-1a over the color of every vertex (`u32::MAX` for uncolored).
fn digest(chi: &Coloring) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in 0..chi.num_vertices() as u32 {
        for b in chi.get(v).unwrap_or(u32::MAX).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const GOLDEN_QUICK_CORPUS: &[(&str, u64)] = &[
    ("pa-uniform-unit", 2662162475703840196),
    ("pa-bimodal-loguniform", 6649503820488252548),
    ("rgg-uniform-unit", 11747155233086113973),
    ("rgg-bimodal-loguniform", 7075396282775904373),
    ("ws-uniform-unit", 1847096863404556661),
    ("ws-bimodal-loguniform", 13094380075934440789),
    ("hypercube-uniform-unit", 6277671684515359445),
    ("hypercube-bimodal-loguniform", 12833003981618428164),
    ("torus-uniform-unit", 3931523029721263764),
    ("torus-bimodal-loguniform", 14809433518895062453),
    ("sbm-uniform-unit", 13448478851838414484),
    ("sbm-bimodal-loguniform", 4079765518928736644),
    ("grid-uniform-unit", 8071776160386661991),
    ("grid-bimodal-loguniform", 16698115410833221639),
    ("tree-uniform-unit", 1257444309110434261),
    ("tree-bimodal-loguniform", 17937259288131024788),
];

const GOLDEN_CASCADE_CLIMATE: u64 = 872426510215801840;

const GOLDEN_TAIL_SPLIT: u64 = 1578181532011810340;

#[test]
fn quick_corpus_stage2_colorings_pin_binpack2() {
    let mut got = Vec::new();
    for entry in Corpus::quick().entries() {
        let inst = &entry.instance;
        let report = Solver::for_instance(inst)
            .classes(entry.k)
            .build()
            .expect("corpus entries build")
            .solve();
        let (splitter, _) = auto_splitter(inst);
        let out = binpack2(
            inst.graph(),
            &splitter,
            &report.stages.almost_strict,
            inst.domain(),
            inst.weights(),
        );
        assert_eq!(
            out, report.coloring,
            "{}: solver stage 3 differs",
            entry.name
        );
        assert!(out.is_strictly_balanced(inst.weights()), "{}", entry.name);
        got.push((entry.name.clone(), digest(&out)));
    }
    let want: Vec<(String, u64)> = GOLDEN_QUICK_CORPUS
        .iter()
        .map(|&(name, d)| (name.to_owned(), d))
        .collect();
    assert_eq!(got, want, "quick-corpus BinPack2 digests changed");
}

/// A 200×100 climate mesh contracted to ≤ 1024 coarse vertices, solved
/// there and projected back with KL refinement: the input the cascade
/// hands to the host-level BinPack2.
fn cascade_projected_climate() -> (Instance, Coloring) {
    let w = climate(&ClimateParams {
        lon: 200,
        lat: 100,
        storms: 5,
        storm_intensity: 20.0,
        seed: 2,
    });
    let inst = Instance::from_grid(w.grid, w.costs, w.weights).expect("climate is valid");
    let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
    let params = CoarsenParams {
        target_vertices: 1024,
        ..CoarsenParams::default()
    };
    let front = CoarseningFront::build(g, costs, weights, &params);
    assert!(front.num_levels() > 0);
    let (cg, ccosts, cweights) = front.coarsest((g, costs, weights));
    let coarse_inst =
        Instance::new(cg.clone(), ccosts.to_vec(), cweights.to_vec()).expect("coarse is valid");
    let coarse = Solver::for_instance(&coarse_inst)
        .classes(8)
        .build()
        .expect("coarse build")
        .solve();
    let kl = CoarsenConfig::default().kl;
    let projected = front
        .project_to_host((g, costs, weights), coarse.coloring, |fg, fc, fw, chi| {
            refine(fg, fc, fw, chi, &kl)
        })
        .expect("projection");
    (inst, projected)
}

#[test]
fn cascade_projected_climate_sheds_heavy_singletons_only() {
    let (inst, projected) = cascade_projected_climate();
    let (splitter, _) = auto_splitter(&inst);
    let rec = RecordingSplitter::new(&splitter, inst.graph(), inst.costs());
    let out = binpack2(
        inst.graph(),
        &rec,
        &projected,
        inst.domain(),
        inst.weights(),
    );
    assert_eq!(rec.stats().calls, 0, "the pinned input must not split");
    assert_ne!(out, projected, "the pinned input must shed something");
    assert!(out.is_strictly_balanced(inst.weights()));
    assert_eq!(digest(&out), GOLDEN_CASCADE_CLIMATE);
}

#[test]
fn light_excess_below_the_bulk_threshold_pins_the_tail_splits() {
    // Four column stripes of a 32×32 lattice; stripe 0 steals six unit
    // vertices from stripe 1, and one spike of weight 4 in stripe 3 makes
    // every unit vertex light. Stripe 0's excess (≈ 5.25 < 2‖w‖∞ = 8)
    // is shed by splitter calls on the class remainder, not by the bulk
    // carve.
    let grid = GridGraph::lattice(&[32, 32]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let mut weights = vec![1.0; n];
    weights[1000] = 4.0;
    let chi = Coloring::from_fn(n, 4, |v| {
        let [x, y] = [grid.coord(v)[0], grid.coord(v)[1]];
        if x == 8 && y < 6 {
            0
        } else {
            (x / 8) as u32
        }
    });
    let sp = GridSplitter::new(&grid, &costs);
    let rec = RecordingSplitter::new(&sp, &grid.graph, &costs);
    let out = binpack2(&grid.graph, &rec, &chi, &VertexSet::full(n), &weights);
    assert!(rec.stats().calls > 0, "the pinned input must split");
    assert!(out.is_strictly_balanced(&weights));
    assert_eq!(digest(&out), GOLDEN_TAIL_SPLIT);
}
