//! Cross-crate property tests: the headline invariants hold for random
//! instances, weights, k, and splitter choices.

use mmb_core::prelude::*;
use mmb_core::strict::binpack2;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::{Coloring, VertexSet};
use mmb_splitters::adversarial::AdversarialSplitter;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;
use proptest::prelude::*;

/// One default-config solve driven by the case's own splitter.
fn solve_with<S: Splitter + ?Sized>(
    g: &mmb_graph::Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    sp: &S,
) -> Report {
    let inst = Instance::new(g.clone(), costs.to_vec(), weights.to_vec()).unwrap();
    let report = Solver::for_instance(&inst)
        .classes(k)
        .splitter(SplitterChoice::Custom(Box::new(sp)))
        .build()
        .unwrap()
        .solve();
    report
}

fn arb_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..20.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_always_strict_on_grids(
        side in 4usize..12,
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 0.5 + ((e as u64 ^ seed) % 7) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let weights: Vec<f64> = (0..n)
            .map(|v| ((seed >> (v % 53)) & 15) as f64 + 0.1)
            .collect();
        let d = solve_with(&grid.graph, &costs, &weights, k, &sp);
        prop_assert!(d.coloring.is_total());
        prop_assert!(
            d.coloring.is_strictly_balanced(&weights),
            "defect {}", d.strict_defect
        );
    }

    #[test]
    fn pipeline_always_strict_on_trees(
        n in 5usize..150,
        k in 1usize..10,
        seed in any::<u64>(),
        weights in arb_weights(150),
    ) {
        let g = random_tree(n, 3, seed);
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 3) as f64).collect();
        let sp = TreeSplitter::new(&g);
        let w = &weights[..n];
        let d = solve_with(&g, &costs, w, k, &sp);
        prop_assert!(d.coloring.is_strictly_balanced(w));
    }

    #[test]
    fn pipeline_strict_under_adversarial_splitter(
        side in 4usize..10,
        k in 2usize..8,
        salt in any::<u64>(),
    ) {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = AdversarialSplitter::new(n, salt);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v as u64 * 2654435761) % 9) as f64).collect();
        let d = solve_with(&grid.graph, &costs, &weights, k, &sp);
        prop_assert!(d.coloring.is_strictly_balanced(&weights));
    }

    #[test]
    fn binpack2_fixes_any_total_coloring(
        side in 3usize..10,
        k in 2usize..10,
        seed in any::<u64>(),
        weights in arb_weights(100),
    ) {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let w = &weights[..n];
        // Arbitrary (usually terrible) starting coloring.
        let chi = Coloring::from_fn(n, k, |v| ((seed >> (v % 48)) % k as u64) as u32);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, w);
        prop_assert!(out.is_total_on(&domain));
        prop_assert!(
            out.is_strictly_balanced(w),
            "defect {}", out.strict_balance_defect(w)
        );
    }

    #[test]
    fn boundary_costs_conserve_total(
        side in 4usize..10,
        k in 2usize..8,
    ) {
        // Σ_i ∂χ⁻¹(i) = 2 × (cost of bichromatic edges) for every pipeline
        // output — a consistency check across the Coloring plumbing.
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let costs: Vec<f64> = (0..grid.graph.num_edges()).map(|e| 1.0 + (e % 2) as f64).collect();
        let sp = GridSplitter::new(&grid, &costs);
        let weights = vec![1.0; n];
        let d = solve_with(&grid.graph, &costs, &weights, k, &sp);
        let per_class: f64 = d.boundary_costs.iter().sum();
        let bichromatic: f64 = grid.graph.edge_list().iter().enumerate()
            .filter(|(_, (u, v))| d.coloring.get(*u) != d.coloring.get(*v))
            .map(|(e, _)| costs[e])
            .sum();
        prop_assert!((per_class - 2.0 * bichromatic).abs() < 1e-6);
    }
}
