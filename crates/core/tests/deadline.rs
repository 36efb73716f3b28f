//! Deadline granularity of the branch-and-bound anytime contract: the
//! interrupt clock polls the very first node, the poll stride is
//! configurable, and wall-clock overshoot past an expired deadline stays
//! bounded by one stride of node expansions.

use std::time::{Duration, Instant};

use mmb_core::api::Instance;
use mmb_core::bnb::{self, BnbConfig, DEFAULT_DEADLINE_POLL_STRIDE};
use mmb_graph::gen::grid::GridGraph;

fn lattice_instance(dims: &[usize]) -> Instance {
    let grid = GridGraph::lattice(dims);
    let m = grid.graph.num_edges();
    let n = grid.graph.num_vertices();
    Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap()
}

#[test]
fn default_config_carries_the_documented_stride() {
    assert_eq!(
        BnbConfig::default().deadline_poll_stride,
        DEFAULT_DEADLINE_POLL_STRIDE
    );
    let cfg = BnbConfig::with_time_budget(Duration::from_millis(5), 64);
    assert_eq!(cfg.deadline_poll_stride, 64);
    assert_eq!(cfg.time_budget, Some(Duration::from_millis(5)));
}

#[test]
fn pre_expired_deadline_stops_at_the_first_node_for_any_stride() {
    let inst = lattice_instance(&[5, 4]);
    // Node 0 satisfies every stride (`0 % s == 0`), so a deadline that is
    // already expired must stop the search before a single expansion —
    // even with the coarsest possible stride.
    let mut solutions = Vec::new();
    for stride in [1, DEFAULT_DEADLINE_POLL_STRIDE, u64::MAX] {
        let cfg = BnbConfig::with_time_budget(Duration::ZERO, stride);
        let sol = bnb::solve(&inst, 4, &cfg).unwrap();
        assert_eq!(sol.nodes, 0, "stride {stride}: no node may be expanded");
        assert!(
            !sol.proven_optimal,
            "stride {stride}: a truncated run must not claim optimality"
        );
        assert!(
            sol.coloring.is_total(),
            "anytime: the seed incumbent serves"
        );
        solutions.push(sol);
    }
    // Truncation at node 0 is stride-independent: identical incumbents.
    assert!(solutions.windows(2).all(|w| w[0].coloring == w[1].coloring));
}

#[test]
fn fine_stride_keeps_deadline_overshoot_bounded() {
    // 5×4 lattice at k = 4: the full search space is far beyond what a
    // few milliseconds can exhaust, so the deadline must actually bite.
    let inst = lattice_instance(&[5, 4]);
    let budget = Duration::from_millis(5);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures deadline overshoot"
    )]
    let t0 = Instant::now();
    let sol = bnb::solve(&inst, 4, &BnbConfig::with_time_budget(budget, 1)).unwrap();
    let elapsed = t0.elapsed();
    assert!(!sol.proven_optimal, "5 ms cannot exhaust this search");
    assert!(sol.nodes > 0, "the deadline was not pre-expired");
    assert!(sol.coloring.is_total());
    // Stride 1 polls every node: overshoot is one node expansion plus
    // noise. The allowance is generous for CI, but a stride bug that
    // skips polling would run this search for minutes and trip it.
    assert!(
        elapsed < budget + Duration::from_millis(1500),
        "overshoot: {elapsed:?} against a {budget:?} budget"
    );
}

#[test]
fn node_budget_truncation_is_deterministic_for_any_stride() {
    // The node budget (not wall clock) truncates; the stride must not
    // perturb which prefix of the search tree is visited.
    let inst = lattice_instance(&[4, 4]);
    let mut runs = Vec::new();
    for stride in [1, 7, DEFAULT_DEADLINE_POLL_STRIDE] {
        let cfg = BnbConfig {
            node_budget: Some(500),
            time_budget: None,
            deadline_poll_stride: stride,
        };
        runs.push(bnb::solve(&inst, 3, &cfg).unwrap());
    }
    assert!(runs
        .windows(2)
        .all(|w| w[0].coloring == w[1].coloring && w[0].nodes == w[1].nodes));
}
