//! Cross-crate integration: the full Theorem 4 pipeline on every graph
//! family × weight family × splitter combination, always checking the
//! machine-verifiable guarantee (eq. (1)) and sanity of the boundary.

use mmb_core::prelude::*;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::tree::{caterpillar, random_tree};
use mmb_instances::weights::{WeightFamily, ALL_FAMILIES};
use mmb_splitters::adversarial::AdversarialSplitter;
use mmb_splitters::bfs::BfsSplitter;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::recording::RecordingSplitter;
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;

/// Solve with the test's own splitter and assert eq. (1) through the
/// independent verifier.
fn check_strict<S: Splitter + ?Sized>(
    g: &mmb_graph::Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    sp: &S,
    label: &str,
) -> Report {
    let inst = Instance::new(g.clone(), costs.to_vec(), weights.to_vec())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let d = Solver::for_instance(&inst)
        .classes(k)
        .splitter(SplitterChoice::Custom(Box::new(sp)))
        .build()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .solve();
    let r = verify_decomposition(g, costs, weights, &d.coloring);
    assert!(r.is_partition, "{label}: not a partition");
    assert!(
        r.is_valid(),
        "{label}: eq. (1) violated, defect {} slack {}",
        r.strict_defect,
        r.strict_slack
    );
    d
}

#[test]
fn grids_times_weight_families() {
    let grid = GridGraph::lattice(&[20, 20]);
    let n = grid.graph.num_vertices();
    let costs: Vec<f64> = (0..grid.graph.num_edges())
        .map(|e| 1.0 + (e % 4) as f64)
        .collect();
    let sp = GridSplitter::new(&grid, &costs);
    for fam in ALL_FAMILIES {
        let weights = fam.generate(n, 77);
        for k in [2usize, 7, 16] {
            check_strict(
                &grid.graph,
                &costs,
                &weights,
                k,
                &sp,
                &format!("{}/k{k}", fam.name()),
            );
        }
    }
}

#[test]
fn three_dimensional_grid() {
    let grid = GridGraph::lattice(&[6, 6, 6]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let weights = WeightFamily::PowerLaw.generate(n, 5);
    let inst = Instance::from_grid(grid.clone(), costs.clone(), weights.clone()).unwrap();
    let d = Solver::for_instance(&inst)
        .classes(9)
        .p(1.5)
        .splitter(SplitterChoice::Custom(Box::new(&sp)))
        .build()
        .unwrap()
        .solve();
    assert!(d.coloring.is_strictly_balanced(&weights));
}

#[test]
fn forests_with_tree_splitter() {
    for (label, g) in [
        ("random_tree", random_tree(400, 3, 9)),
        ("caterpillar", caterpillar(80, 3)),
    ] {
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 3) as f64).collect();
        let sp = TreeSplitter::new(&g);
        let weights = WeightFamily::Uniform.generate(n, 3);
        check_strict(&g, &costs, &weights, 8, &sp, label);
    }
}

#[test]
fn irregular_grid_subsets() {
    let grid = GridGraph::percolation(&[24, 24], 0.8, 31);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let weights = WeightFamily::Bimodal.generate(n, 13);
    check_strict(&grid.graph, &costs, &weights, 6, &sp, "percolation");
}

#[test]
fn failure_injection_adversarial_splitter_keeps_strictness() {
    // A contract-honoring but quality-hostile splitter: the pipeline's
    // *balance* guarantee must survive; only boundary quality degrades.
    let grid = GridGraph::lattice(&[16, 16]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = AdversarialSplitter::new(n, 1234);
    let weights = WeightFamily::Exponential.generate(n, 3);
    let d = check_strict(&grid.graph, &costs, &weights, 8, &sp, "adversarial");
    // And the boundary really is much worse than with the honest splitter —
    // the experiment only makes sense if the injection bites.
    let honest = GridSplitter::new(&grid, &costs);
    let dh = check_strict(&grid.graph, &costs, &weights, 8, &honest, "honest");
    assert!(
        d.max_boundary > dh.max_boundary,
        "adversarial ({}) should be worse than honest ({})",
        d.max_boundary,
        dh.max_boundary
    );
}

#[test]
fn bfs_splitter_generic_graphs() {
    // BFS splitter has no quality guarantee but satisfies the contract;
    // strictness must hold on arbitrary graphs (here: a cycle with chords).
    let mut b = mmb_graph::GraphBuilder::new(60);
    for v in 0..60u32 {
        b.add_edge(v, (v + 1) % 60);
        if v % 5 == 0 {
            b.add_edge(v, (v + 30) % 60);
        }
    }
    let g = b.build();
    let costs = vec![1.0; g.num_edges()];
    let sp = BfsSplitter::new(&g);
    let weights = WeightFamily::Uniform.generate(60, 21);
    check_strict(&g, &costs, &weights, 5, &sp, "cycle+chords");
}

#[test]
fn recording_splitter_measures_work() {
    let grid = GridGraph::lattice(&[12, 12]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let inner = GridSplitter::new(&grid, &costs);
    let rec = RecordingSplitter::new(inner, &grid.graph, &costs);
    let weights = WeightFamily::Uniform.generate(n, 2);
    check_strict(&grid.graph, &costs, &weights, 6, &rec, "recording");
    let stats = rec.stats();
    assert!(stats.calls > 0, "pipeline must exercise the splitter");
    assert!(stats.total_cut_cost >= 0.0);
    assert!(stats.max_cut_cost <= stats.total_cut_cost + 1e-9);
}

#[test]
fn stage_outputs_are_consistent() {
    let grid = GridGraph::lattice(&[16, 16]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let weights = WeightFamily::Uniform.generate(n, 8);
    let d = check_strict(&grid.graph, &costs, &weights, 10, &sp, "stages");
    // Stage 1 and 2 are total colorings too.
    assert!(d.stages.multibalanced.is_total());
    assert!(d.stages.almost_strict.is_total());
    // Stage 2 is almost strict: within 2‖w‖∞ of the average.
    let cm = d.stages.almost_strict.class_measures(&weights);
    let avg: f64 = cm.iter().sum::<f64>() / cm.len() as f64;
    let wmax = weights.iter().cloned().fold(0.0, f64::max);
    for (i, &c) in cm.iter().enumerate() {
        assert!(
            (c - avg).abs() <= 2.0 * wmax + 1e-9,
            "stage-2 class {i} not almost strict: {c} vs avg {avg}"
        );
    }
}

#[test]
fn extreme_k_values() {
    let grid = GridGraph::lattice(&[8, 8]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let weights = WeightFamily::Uniform.generate(n, 1);
    for k in [1usize, 2, 63, 64, 100] {
        check_strict(&grid.graph, &costs, &weights, k, &sp, &format!("k={k}"));
    }
}

#[test]
fn zero_cost_edges_and_zero_weights() {
    let grid = GridGraph::lattice(&[10, 10]);
    let n = grid.graph.num_vertices();
    let costs: Vec<f64> = (0..grid.graph.num_edges())
        .map(|e| if e % 3 == 0 { 0.0 } else { 2.0 })
        .collect();
    let sp = GridSplitter::new(&grid, &costs);
    let mut weights = vec![1.0; n];
    for w in weights.iter_mut().step_by(4) {
        *w = 0.0;
    }
    check_strict(&grid.graph, &costs, &weights, 5, &sp, "zeros");
}
