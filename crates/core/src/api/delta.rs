//! Typed instance mutations with incremental re-validation.
//!
//! An [`InstanceDelta`] describes a small edit to an existing
//! [`Instance`] — the churn a serving workload generates: weights drift
//! as load moves, link costs get remeasured, the occasional vertex or
//! edge joins the topology. [`InstanceDelta::apply`] materializes the
//! mutated instance **without re-running the `O(n + m)` validation sweep
//! on untouched entries**: only the values the delta introduces are
//! checked (finiteness, non-negativity, index ranges, self-loops,
//! duplicate edges), everything else was validated when the base instance
//! was admitted. The cheap derived aggregates (`‖w‖_∞`, `Δ_c`, …) are
//! recomputed in one branch-free streaming pass — they are data-dependent
//! on every entry, so there is nothing conditional to skip.
//!
//! ## Shared topology
//!
//! Most serving churn changes no edge: weights drift, link costs get
//! remeasured. Such a delta **shares the base instance's topology**: the
//! mutated instance holds the same `Arc<Graph>` (no re-sort, no CSR
//! rebuild), the same structure digest and, when the base's structure was
//! already detected, the same detected structure — recognition never runs
//! again down a chain of weight and cost deltas. It copies the weights,
//! and the costs only when the delta re-prices an edge. A delta that adds
//! or removes vertices or edges rebuilds the canonical CSR from the edited
//! edge list.
//!
//! `apply` also reports the **touched region**: every vertex whose
//! incident data changed. [`resolve_delta`](crate::api::resolve_delta)
//! repairs exactly this region (KL moves on the touched frontier, then a
//! strict re-pack only if eq. (1) broke) instead of solving from scratch.
//!
//! ## Edge-id canonicalization
//!
//! [`Graph`] stores edges canonically (`u < v`, sorted), so adding or
//! removing an edge renumbers the ids of later edges. Deltas therefore
//! reference edges by the **base** instance's edge ids; the mutated
//! instance re-canonicalizes, and chained deltas must be expressed
//! against the instance returned by the previous `apply`.

use mmb_graph::graph::graph_from_edges;
use mmb_graph::{EdgeId, Graph, VertexId};

use crate::api::error::InstanceError;
use crate::api::instance::Instance;

/// A typed batch of mutations against one base [`Instance`].
///
/// Build one with the chainable constructors, then run
/// [`InstanceDelta::apply`] (or hand it to
/// [`resolve_delta`](crate::api::resolve_delta) for the warm re-solve).
/// Empty deltas are valid and produce an identical instance.
#[derive(Clone, Debug, Default)]
pub struct InstanceDelta {
    /// Weights of appended vertices; the `i`-th gets id `n + i`.
    new_vertices: Vec<f64>,
    /// Added edges (may reference appended vertices) with their costs.
    new_edges: Vec<(VertexId, VertexId, f64)>,
    /// Removed edges, by base-instance edge id.
    removed_edges: Vec<EdgeId>,
    /// Weight overwrites `(vertex, new weight)` on existing vertices.
    weight_updates: Vec<(VertexId, f64)>,
    /// Cost overwrites `(edge, new cost)` by base-instance edge id.
    cost_updates: Vec<(EdgeId, f64)>,
}

/// The result of [`InstanceDelta::apply`]: the mutated instance plus the
/// sorted, deduplicated set of vertices whose incident data changed.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The mutated, validated instance.
    pub instance: Instance,
    /// Vertices touched by the delta (new vertices, endpoints of
    /// added/removed/re-priced edges, re-weighted vertices), sorted by
    /// id. The repair region of the warm re-solve.
    pub touched: Vec<VertexId>,
}

impl InstanceDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a vertex with the given weight. Its id in the mutated
    /// instance is `n + (number of vertices appended before it)`.
    pub fn add_vertex(mut self, weight: f64) -> Self {
        self.new_vertices.push(weight);
        self
    }

    /// Add edge `{u, v}` with the given cost. Endpoints may name
    /// appended vertices.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, cost: f64) -> Self {
        self.new_edges.push((u, v, cost));
        self
    }

    /// Remove the edge with base-instance id `e`.
    pub fn remove_edge(mut self, e: EdgeId) -> Self {
        self.removed_edges.push(e);
        self
    }

    /// Overwrite vertex `v`'s weight.
    pub fn set_weight(mut self, v: VertexId, weight: f64) -> Self {
        self.weight_updates.push((v, weight));
        self
    }

    /// Overwrite the cost of the edge with base-instance id `e`.
    pub fn set_cost(mut self, e: EdgeId, cost: f64) -> Self {
        self.cost_updates.push((e, cost));
        self
    }

    /// Whether the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.new_vertices.is_empty()
            && self.new_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.weight_updates.is_empty()
            && self.cost_updates.is_empty()
    }

    /// Number of individual mutations carried.
    pub fn len(&self) -> usize {
        self.new_vertices.len()
            + self.new_edges.len()
            + self.removed_edges.len()
            + self.weight_updates.len()
            + self.cost_updates.len()
    }

    /// Whether the delta leaves the vertex set and the edge set alone
    /// (weight and cost updates only), so the mutated instance can share
    /// `base`'s topology.
    fn keeps_topology(&self) -> bool {
        self.new_vertices.is_empty() && self.new_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// Apply the delta to `base`, validating **only the touched
    /// entries**, and return the mutated instance together with the
    /// touched vertex set.
    ///
    /// A delta of weight and cost updates only shares `base`'s topology
    /// ([`Instance::topology`] is `Arc::ptr_eq`), structure digest and
    /// detected structure, and — without cost updates — its cost vector;
    /// it copies the weights. A delta that adds or removes vertices or
    /// edges rebuilds the canonical CSR.
    ///
    /// Extra balance measures carry over; appended vertices contribute 0
    /// to every extra measure.
    pub fn apply(&self, base: &Instance) -> Result<AppliedDelta, InstanceError> {
        self.apply_with(base, self.keeps_topology())
    }

    /// [`InstanceDelta::apply`] with the materialization chosen by the
    /// caller: `share` reuses `base`'s topology (valid only when
    /// [`Self::keeps_topology`]), otherwise the edge list is re-sorted and
    /// the CSR rebuilt. The tests run every delta down the rebuild path
    /// too, as the reference the shared results must equal bit for bit.
    fn apply_with(&self, base: &Instance, share: bool) -> Result<AppliedDelta, InstanceError> {
        let g = base.graph();
        let n = g.num_vertices();
        let m = g.num_edges();
        let n2 = n + self.new_vertices.len();
        let mut touched: Vec<VertexId> = Vec::with_capacity(2 * self.len());

        // --- incremental validation: exactly the entries the delta touches.
        for &w in &self.new_vertices {
            if !w.is_finite() || w < 0.0 {
                return Err(InstanceError::NotFinite { what: "weights" });
            }
        }
        for &(v, w) in &self.weight_updates {
            if (v as usize) >= n {
                return Err(InstanceError::VertexOutOfRange { got: v, n });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(InstanceError::NotFinite { what: "weights" });
            }
            touched.push(v);
        }
        for &(e, c) in &self.cost_updates {
            if (e as usize) >= m {
                return Err(InstanceError::EdgeOutOfRange { got: e, m });
            }
            if !c.is_finite() || c < 0.0 {
                return Err(InstanceError::NotFinite { what: "costs" });
            }
            let (u, v) = g.endpoints(e);
            touched.push(u);
            touched.push(v);
        }
        for &e in &self.removed_edges {
            if (e as usize) >= m {
                return Err(InstanceError::EdgeOutOfRange { got: e, m });
            }
            let (u, v) = g.endpoints(e);
            touched.push(u);
            touched.push(v);
        }
        for &(u, v, c) in &self.new_edges {
            if (u as usize) >= n2 {
                return Err(InstanceError::VertexOutOfRange { got: u, n: n2 });
            }
            if (v as usize) >= n2 {
                return Err(InstanceError::VertexOutOfRange { got: v, n: n2 });
            }
            if u == v {
                return Err(InstanceError::SelfLoop { v });
            }
            if !c.is_finite() || c < 0.0 {
                return Err(InstanceError::NotFinite { what: "costs" });
            }
            touched.push(u);
            touched.push(v);
        }

        // --- weights: overwrite in place, append the new tail.
        let mut weights = base.weights().to_vec();
        for &(v, w) in &self.weight_updates {
            weights[v as usize] = w;
        }
        weights.extend_from_slice(&self.new_vertices);
        for i in 0..self.new_vertices.len() {
            touched.push((n + i) as VertexId);
        }

        // --- extras carry over; appended vertices contribute nothing.
        let extras: Vec<Vec<f64>> = base
            .extra_measures()
            .iter()
            .map(|ex| {
                let mut ex = ex.clone();
                ex.resize(n2, 0.0);
                ex
            })
            .collect();

        let instance = if share {
            // Same vertices, same edges, same canonical edge ids: only the
            // re-priced costs (if any) need a vector of their own.
            let costs = (!self.cost_updates.is_empty()).then(|| {
                let mut costs = base.costs().to_vec();
                for &(e, c) in &self.cost_updates {
                    costs[e as usize] = c;
                }
                costs
            });
            Instance::with_shared_topology(base, costs, weights, extras)
        } else {
            let (graph, costs) = self.rebuild_edges(base, n2)?;
            Instance::from_validated_parts(graph, costs, weights, extras)
        };

        touched.sort_unstable();
        touched.dedup();
        Ok(AppliedDelta { instance, touched })
    }

    /// The mutated graph on `n2` vertices and its cost vector, from
    /// `base`'s edges with this delta's (already validated) edge
    /// mutations: cost overwrites key by *base* edge id, so apply them on
    /// the base-indexed view first, then drop removed edges and append
    /// additions, and re-sort into the canonical CSR order so edge ids and
    /// the cost vector line up in the mutated instance.
    fn rebuild_edges(
        &self,
        base: &Instance,
        n2: usize,
    ) -> Result<(Graph, Vec<f64>), InstanceError> {
        let g = base.graph();
        let mut removed = vec![false; g.num_edges()];
        for &e in &self.removed_edges {
            removed[e as usize] = true;
        }
        let mut base_view: Vec<(VertexId, VertexId, f64)> = g
            .edge_list()
            .iter()
            .zip(base.costs())
            .map(|(&(u, v), &c)| (u, v, c))
            .collect();
        for &(e, c) in &self.cost_updates {
            base_view[e as usize].2 = c;
        }
        let mut edges: Vec<(VertexId, VertexId, f64)> =
            Vec::with_capacity(base_view.len() + self.new_edges.len());
        edges.extend(
            base_view
                .into_iter()
                .enumerate()
                .filter(|(e, _)| !removed[*e])
                .map(|(_, t)| t),
        );
        edges.extend(
            self.new_edges
                .iter()
                .map(|&(u, v, c)| (u.min(v), u.max(v), c)),
        );
        edges.sort_by_key(|e| (e.0, e.1));
        for w in edges.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                return Err(InstanceError::DuplicateEdge {
                    u: w[0].0,
                    v: w[0].1,
                });
            }
        }
        let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let costs: Vec<f64> = edges.iter().map(|&(_, _, c)| c).collect();
        let graph: Graph = graph_from_edges(n2, &pairs);
        debug_assert_eq!(graph.edge_list(), pairs.as_slice());
        Ok((graph, costs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::gen::misc::path;

    fn base() -> Instance {
        // path 0-1-2-3, unit costs, weights 1..4
        Instance::new(path(4), vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0, 4.0]).expect("valid base")
    }

    #[test]
    fn empty_delta_is_identity() {
        let b = base();
        let out = InstanceDelta::new().apply(&b).expect("empty delta applies");
        assert_eq!(out.instance.graph().edge_list(), b.graph().edge_list());
        assert_eq!(out.instance.costs(), b.costs());
        assert_eq!(out.instance.weights(), b.weights());
        assert!(out.touched.is_empty());
        assert_eq!(out.instance.fingerprint(), b.fingerprint());
    }

    #[test]
    fn weight_and_cost_updates_touch_the_right_vertices() {
        let b = base();
        let out = InstanceDelta::new()
            .set_weight(2, 9.0)
            .set_cost(0, 5.5)
            .apply(&b)
            .expect("update applies");
        assert_eq!(out.instance.weights(), &[1.0, 2.0, 9.0, 4.0]);
        assert_eq!(out.instance.costs(), &[5.5, 2.0, 3.0]);
        assert_eq!(out.touched, vec![0, 1, 2]);
        // Aggregates track the mutation.
        assert_eq!(out.instance.max_weight(), 9.0);
        assert_eq!(out.instance.max_cost(), 5.5);
        // Structure unchanged ⇒ structure digest unchanged.
        assert_eq!(
            out.instance.fingerprint().structure,
            b.fingerprint().structure
        );
        assert_ne!(out.instance.fingerprint().weights, b.fingerprint().weights);
    }

    #[test]
    fn vertex_and_edge_additions_renumber_canonically() {
        let b = base();
        let out = InstanceDelta::new()
            .add_vertex(7.0)
            .add_edge(4, 0, 0.5) // appended vertex, reversed endpoints
            .apply(&b)
            .expect("growth applies");
        assert_eq!(out.instance.num_vertices(), 5);
        assert_eq!(out.instance.num_edges(), 4);
        assert_eq!(out.instance.weights()[4], 7.0);
        // Canonical edge order: (0,1), (0,4), (1,2), (2,3).
        assert_eq!(
            out.instance.graph().edge_list(),
            &[(0, 1), (0, 4), (1, 2), (2, 3)]
        );
        assert_eq!(out.instance.costs(), &[1.0, 0.5, 2.0, 3.0]);
        assert_eq!(out.touched, vec![0, 4]);
    }

    #[test]
    fn edge_removal_compacts_costs() {
        let b = base();
        let out = InstanceDelta::new()
            .remove_edge(1)
            .apply(&b)
            .expect("removal applies");
        assert_eq!(out.instance.graph().edge_list(), &[(0, 1), (2, 3)]);
        assert_eq!(out.instance.costs(), &[1.0, 3.0]);
        assert_eq!(out.touched, vec![1, 2]);
    }

    #[test]
    fn every_touched_entry_validation_fires() {
        let b = base();
        assert_eq!(
            InstanceDelta::new()
                .set_weight(9, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::VertexOutOfRange { got: 9, n: 4 }
        );
        assert_eq!(
            InstanceDelta::new().set_cost(3, 1.0).apply(&b).unwrap_err(),
            InstanceError::EdgeOutOfRange { got: 3, m: 3 }
        );
        assert_eq!(
            InstanceDelta::new().remove_edge(7).apply(&b).unwrap_err(),
            InstanceError::EdgeOutOfRange { got: 7, m: 3 }
        );
        assert_eq!(
            InstanceDelta::new()
                .set_weight(0, f64::NAN)
                .apply(&b)
                .unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            InstanceDelta::new().add_vertex(-1.0).apply(&b).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 2, -3.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::NotFinite { what: "costs" }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(1, 1, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::SelfLoop { v: 1 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 9, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::VertexOutOfRange { got: 9, n: 4 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(1, 0, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::DuplicateEdge { u: 0, v: 1 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 2, 1.0)
                .add_edge(2, 0, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::DuplicateEdge { u: 0, v: 2 }
        );
    }

    #[test]
    fn untrusted_entries_are_not_revalidated_but_aggregates_refresh() {
        // A grid with a heavy corner: mutate one far-away weight and
        // check the max tracks correctly both up and down.
        let grid = GridGraph::lattice(&[3, 3]);
        let m = grid.graph.num_edges();
        let mut w = vec![1.0; 9];
        w[0] = 10.0;
        let b = Instance::new(grid.graph, vec![1.0; m], w).expect("valid");
        let up = InstanceDelta::new()
            .set_weight(8, 20.0)
            .apply(&b)
            .expect("up");
        assert_eq!(up.instance.max_weight(), 20.0);
        let down = InstanceDelta::new()
            .set_weight(0, 0.5)
            .apply(&b)
            .expect("down");
        assert_eq!(down.instance.max_weight(), 1.0);
    }

    #[test]
    fn extras_carry_over_and_pad_new_vertices() {
        let b = base()
            .with_extra_measure(vec![1.0, 1.0, 1.0, 1.0])
            .expect("measure fits");
        let out = InstanceDelta::new()
            .add_vertex(1.0)
            .apply(&b)
            .expect("applies");
        assert_eq!(out.instance.extra_measures().len(), 1);
        assert_eq!(
            out.instance.extra_measures()[0],
            vec![1.0, 1.0, 1.0, 1.0, 0.0]
        );
    }

    #[test]
    fn removing_then_adding_the_same_edge_reprices_it() {
        let b = base();
        let out = InstanceDelta::new()
            .remove_edge(0)
            .add_edge(0, 1, 9.0)
            .apply(&b)
            .expect("replace applies");
        assert_eq!(out.instance.graph().edge_list(), b.graph().edge_list());
        assert_eq!(out.instance.costs(), &[9.0, 2.0, 3.0]);
    }

    #[test]
    fn weight_and_cost_deltas_share_the_topology() {
        let b = base();
        b.structure();
        let weight = InstanceDelta::new().set_weight(1, 5.0).apply(&b).unwrap();
        let cost = InstanceDelta::new().set_cost(2, 0.5).apply(&b).unwrap();
        let both = InstanceDelta::new()
            .set_weight(0, 2.0)
            .set_cost(0, 7.0)
            .apply(&b)
            .unwrap();
        for out in [&weight, &cost, &both] {
            assert!(Arc::ptr_eq(out.instance.topology(), b.topology()));
            assert!(Arc::ptr_eq(
                out.instance.shared_structure(),
                b.shared_structure()
            ));
        }
        // Costs are shared unless re-priced: one buffer, same address.
        let same_costs = |x: &Instance, y: &Instance| std::ptr::eq(x.costs(), y.costs());
        assert!(same_costs(&weight.instance, &b));
        assert!(!same_costs(&cost.instance, &b));
        assert!(!same_costs(&both.instance, &b));
        // Sharing is transitive down a chain.
        let chained = InstanceDelta::new()
            .set_weight(3, 1.5)
            .apply(&cost.instance)
            .unwrap();
        assert!(Arc::ptr_eq(chained.instance.topology(), b.topology()));
        assert!(same_costs(&chained.instance, &cost.instance));
    }

    #[test]
    fn structural_deltas_get_a_fresh_topology() {
        let b = base();
        for delta in [
            InstanceDelta::new().add_edge(0, 3, 1.0),
            InstanceDelta::new().remove_edge(1),
            InstanceDelta::new().add_vertex(1.0),
            // A remove-and-re-add leaves the edge set as it was, but the
            // delta still rebuilds.
            InstanceDelta::new().remove_edge(0).add_edge(0, 1, 1.0),
        ] {
            let out = delta.apply(&b).unwrap();
            assert!(
                !Arc::ptr_eq(out.instance.topology(), b.topology()),
                "{delta:?} must rebuild"
            );
        }
    }

    #[test]
    fn a_grid_hosted_base_shares_one_copy_of_its_graph() {
        let grid = GridGraph::percolation(&[6, 6], 0.6, 2);
        let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
        let b = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
        // Detection on the bare graph refuses this subset; the given
        // embedding still makes the grid-hosted base a grid.
        assert_ne!(mmb_graph::recognize::recognize(b.graph()).name(), "grid");
        assert_eq!(b.structure().name(), "grid");
        let one = InstanceDelta::new().set_weight(0, 2.0).apply(&b).unwrap();
        let two = InstanceDelta::new().set_weight(1, 2.0).apply(&b).unwrap();
        assert!(Arc::ptr_eq(
            one.instance.topology(),
            two.instance.topology()
        ));
        assert_eq!(one.instance.graph().edge_list(), b.graph().edge_list());
        // The mutated instance is bare: it does not inherit the given
        // embedding, and detection runs on its graph as before.
        assert_ne!(one.instance.family(), "grid");
    }

    /// splitmix64 — seeded deltas, replayable.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(rng: &mut u64, n: usize) -> u32 {
        (splitmix(rng) % n.max(1) as u64) as u32
    }

    fn value(rng: &mut u64) -> f64 {
        0.25 + (splitmix(rng) % 1000) as f64 / 250.0
    }

    /// The graphs of `mmb_instances::corpus::Corpus::quick`, with seeded
    /// costs and weights and their structure already detected.
    fn quick_corpus() -> Vec<(&'static str, Instance)> {
        use mmb_graph::gen::attachment::preferential_attachment;
        use mmb_graph::gen::community::planted_partition;
        use mmb_graph::gen::geometric::random_geometric;
        use mmb_graph::gen::lattice::{hypercube, torus};
        use mmb_graph::gen::smallworld::watts_strogatz;
        use mmb_graph::gen::tree::random_tree;
        let mut rng = 0xc0ff_ee00u64;
        [
            ("pa", preferential_attachment(90, 2, 5)),
            ("rgg", random_geometric(80, 0.18, 2).graph),
            ("ws", watts_strogatz(90, 2, 0.08, 3)),
            ("hypercube", hypercube(6)),
            ("torus", torus(&[10, 10])),
            ("sbm", planted_partition(80, 4, 0.16, 0.01, 4).graph),
            ("grid", GridGraph::lattice(&[12, 12]).graph),
            ("tree", random_tree(90, 3, 8)),
            ("path", path(40)),
        ]
        .into_iter()
        .map(|(label, g)| {
            let costs = (0..g.num_edges()).map(|_| value(&mut rng)).collect();
            let weights = (0..g.num_vertices()).map(|_| value(&mut rng)).collect();
            let inst = Instance::new(g, costs, weights).expect("valid corpus instance");
            inst.structure();
            (label, inst)
        })
        .collect()
    }

    /// A seeded valid delta against `inst`; `kind` picks the mutation mix
    /// (0–2 keep the topology, 3–6 change it).
    fn random_delta(rng: &mut u64, inst: &Instance, kind: u64) -> InstanceDelta {
        let (n, m) = (inst.num_vertices(), inst.num_edges());
        let mut d = InstanceDelta::new();
        let weights = kind != 1;
        let costs = kind == 1 || kind == 2 || kind == 6;
        for _ in 0..1 + splitmix(rng) % 3 {
            if weights {
                d = d.set_weight(below(rng, n), value(rng));
            }
            if costs && m > 0 {
                d = d.set_cost(below(rng, m), value(rng));
            }
        }
        match kind {
            3 => {
                d = d
                    .add_vertex(value(rng))
                    .add_edge(n as u32, below(rng, n), value(rng))
            }
            4 => {
                // A non-edge (or, rarely, an existing edge: a typed
                // `DuplicateEdge` both paths must agree on).
                let (u, v) = (below(rng, n), below(rng, n));
                if u != v {
                    d = d.add_edge(u, v, value(rng));
                }
            }
            5 | 6 if m > 0 => d = d.remove_edge(below(rng, m)),
            _ => {}
        }
        d
    }

    /// Everything observable of two materializations agrees bit for bit.
    fn assert_same(label: &str, shared: &AppliedDelta, reference: &AppliedDelta) {
        let (a, b) = (&shared.instance, &reference.instance);
        assert_eq!(
            a.graph().edge_list(),
            b.graph().edge_list(),
            "{label}: edges"
        );
        assert_eq!(a.num_vertices(), b.num_vertices(), "{label}: n");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.costs()), bits(b.costs()), "{label}: costs");
        assert_eq!(bits(a.weights()), bits(b.weights()), "{label}: weights");
        assert_eq!(shared.touched, reference.touched, "{label}: touched");
        assert_eq!(a.fingerprint(), b.fingerprint(), "{label}: fingerprint");
        let aggregates = |i: &Instance| {
            bits(&[
                i.max_weight(),
                i.total_weight(),
                i.max_cost(),
                i.total_cost(),
                i.max_cost_degree(),
            ])
        };
        assert_eq!(aggregates(a), aggregates(b), "{label}: aggregates");
        assert_eq!(a.domain().len(), b.domain().len(), "{label}: domain");
    }

    #[test]
    fn shared_apply_matches_the_rebuild_reference_on_the_quick_corpus() {
        let mut rng = 0x5eed_de17u64;
        let mut shared_steps = 0;
        for (label, inst) in quick_corpus() {
            // A chain per graph: each step's shared result is the next
            // step's base, so inherited digests and structures compound.
            let mut current = inst;
            for step in 0..40 {
                let kind = splitmix(&mut rng) % 7;
                let delta = random_delta(&mut rng, &current, kind);
                let label = format!("{label} step {step} kind {kind}");
                let shared = delta.apply(&current);
                let reference = delta.apply_with(&current, false);
                let (shared, reference) = match (shared, reference) {
                    (Ok(s), Ok(r)) => (s, r),
                    (s, r) => {
                        assert_eq!(s.err(), r.err(), "{label}: outcome");
                        continue;
                    }
                };
                let kept = delta.keeps_topology();
                assert_eq!(
                    Arc::ptr_eq(shared.instance.topology(), current.topology()),
                    kept,
                    "{label}: sharing"
                );
                shared_steps += usize::from(kept);
                // Skip some fingerprints so a later step inherits digests
                // from a base that never computed its own.
                if step % 3 != 1 {
                    assert_same(&label, &shared, &reference);
                }
                if kept {
                    assert_eq!(
                        shared.instance.family(),
                        reference.instance.family(),
                        "{label}: structure"
                    );
                }
                current = shared.instance;
            }
        }
        assert!(shared_steps > 100, "only {shared_steps} sharing steps");
    }

    /// A delta against `inst` carrying one invalid mutation (picked by
    /// `fault`) among valid ones.
    fn faulty_delta(rng: &mut u64, inst: &Instance, fault: u64) -> (InstanceDelta, InstanceError) {
        let (n, m) = (inst.num_vertices(), inst.num_edges());
        let bad = [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY][(splitmix(rng) % 4) as usize];
        let kind = splitmix(rng) % 3;
        let mut d = random_delta(rng, inst, kind);
        let err = match fault {
            0 => {
                let v = n as u32 + below(rng, 1000);
                d = d.set_weight(v, 1.0);
                InstanceError::VertexOutOfRange { got: v, n }
            }
            1 => {
                d = d.set_weight(below(rng, n), bad);
                InstanceError::NotFinite { what: "weights" }
            }
            2 => {
                d = d.add_vertex(bad);
                InstanceError::NotFinite { what: "weights" }
            }
            3 => {
                let e = m as u32 + below(rng, 1000);
                d = d.set_cost(e, 1.0);
                InstanceError::EdgeOutOfRange { got: e, m }
            }
            4 => {
                let e = m as u32 + below(rng, 1000);
                d = d.remove_edge(e);
                InstanceError::EdgeOutOfRange { got: e, m }
            }
            5 => {
                d = d.set_cost(below(rng, m), bad);
                InstanceError::NotFinite { what: "costs" }
            }
            6 => {
                let v = below(rng, n);
                d = d.add_edge(v, v, 1.0);
                InstanceError::SelfLoop { v }
            }
            7 => {
                let u = n as u32 + below(rng, 1000);
                d = d.add_edge(u, 0, 1.0);
                InstanceError::VertexOutOfRange { got: u, n }
            }
            8 => {
                d = d.add_edge(0, 1, bad);
                InstanceError::NotFinite { what: "costs" }
            }
            9 => {
                let (u, v) = inst.graph().endpoints(below(rng, m));
                d = d.add_edge(v, u, 1.0);
                InstanceError::DuplicateEdge { u, v }
            }
            _ => {
                let (u, v) = (n as u32, below(rng, n));
                d = d.add_vertex(1.0).add_edge(u, v, 1.0).add_edge(v, u, 2.0);
                InstanceError::DuplicateEdge { u: v, v: u }
            }
        };
        (d, err)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        // Deltas carrying an out-of-range id, a NaN, infinite or negative
        // value, a self-loop or a duplicate edge are refused with the
        // typed error naming it — on both materializations, never a
        // panic — and leave the base untouched.
        #[test]
        fn malformed_deltas_are_typed_errors(
            graph in 0usize..9,
            fault in 0u64..11,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let corpus = quick_corpus_cached();
            let inst = &corpus[graph].1;
            let before = inst.fingerprint();
            let mut rng = seed;
            let (delta, expected) = faulty_delta(&mut rng, inst, fault);
            proptest::prop_assert_eq!(delta.apply(inst).err(), Some(expected.clone()));
            proptest::prop_assert_eq!(delta.apply_with(inst, false).err(), Some(expected));
            proptest::prop_assert_eq!(inst.fingerprint(), before);
        }
    }

    fn quick_corpus_cached() -> &'static [(&'static str, Instance)] {
        static CORPUS: std::sync::OnceLock<Vec<(&'static str, Instance)>> =
            std::sync::OnceLock::new();
        CORPUS.get_or_init(quick_corpus)
    }
}
