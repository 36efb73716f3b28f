//! The validated, cached problem instance.
//!
//! An [`Instance`] bundles everything Theorem 4 takes as given — the host
//! graph, edge costs `c`, vertex weights `w`, and any extra measures for
//! the multi-balanced variant — behind a constructor that validates once
//! (lengths, finiteness, non-negativity) and precomputes the derived
//! quantities every downstream consumer keeps re-deriving: `‖w‖_∞`,
//! `‖w‖₁`, `‖c‖_∞`, `‖c‖₁`, the maximum cost-weighted degree `Δ_c`, and
//! the full-domain [`VertexSet`]. Construction is `O(n + m)`; everything
//! after is a field read.
//!
//! Geometry travels with the instance: [`Instance::from_grid`] keeps the
//! integer embedding a [`GridGraph`] carries, and [`Instance::new`]
//! lazily runs structure detection ([`mmb_graph::recognize`]) the first
//! time someone asks — which is how
//! [`SplitterChoice::Auto`](crate::api::SplitterChoice) picks GridSplit
//! for lattices, the DFS splitter for forests, prefix splitting for
//! paths, and the BFS fallback for everything else.
//!
//! ## Shared, immutable topology
//!
//! The graph, the cost vector and the detected [`Structure`] sit behind
//! `Arc`s and are never mutated after construction. An instance derived
//! by a weight or cost delta ([`InstanceDelta::apply`]) therefore shares
//! its base's CSR ([`Instance::topology`] is `Arc::ptr_eq` to the base's),
//! its recognized structure and its structure digest, and — when no cost
//! changed — its cost vector too. Only the weights (and extra measures)
//! are its own. This is what keeps a serving memo of many tickets over one
//! mesh at roughly one mesh's worth of topology.
//!
//! [`InstanceDelta::apply`]: crate::api::InstanceDelta::apply

use std::sync::{Arc, OnceLock};

use mmb_graph::fingerprint::{cost_digest, structure_digest, weight_digest, Fingerprint};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::measure::{cost_degree_measure, norm_1, norm_inf, total_edge_norm_p};
use mmb_graph::recognize::{recognize, Structure};
use mmb_graph::stats::InstanceStats;
use mmb_graph::{Graph, VertexSet};

use crate::api::error::{validate_costs, validate_weights, InstanceError};

/// How the instance holds its graph: bare, or with grid geometry.
enum Host {
    Plain(Arc<Graph>),
    /// `topology` is a shared copy of `grid.graph`, made the first time
    /// [`Instance::topology`] is asked for it (geometry-carrying instances
    /// own their `GridGraph`, whose graph is not behind an `Arc`).
    Grid {
        grid: GridGraph,
        topology: OnceLock<Arc<Graph>>,
    },
}

/// A validated decomposition instance `(G, c, w[, extra measures])` with
/// cached derived quantities.
///
/// Build one with [`Instance::new`] (bare graph, structure detected
/// lazily) or [`Instance::from_grid`] (geometry preserved), then hand it
/// to [`Solver::for_instance`](crate::api::Solver::for_instance) — or to
/// any [`Partitioner`](crate::api::Partitioner).
pub struct Instance {
    host: Host,
    costs: Arc<Vec<f64>>,
    weights: Vec<f64>,
    extras: Vec<Vec<f64>>,
    domain: VertexSet,
    w_max: f64,
    w_total: f64,
    c_max: f64,
    c_total: f64,
    delta_c: f64,
    detected: OnceLock<Arc<Structure>>,
    /// Fingerprint parts inherited from a base instance whose topology
    /// (and, for `costs`, cost vector) this one shares.
    inherited: Inherited,
    fingerprint: OnceLock<Fingerprint>,
}

/// Digests an instance need not recompute because it shares the data they
/// were taken over with the instance it was derived from.
#[derive(Clone, Copy, Default)]
struct Inherited {
    structure: Option<u64>,
    costs: Option<u64>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("n", &self.graph().num_vertices())
            .field("m", &self.graph().num_edges())
            .field("extras", &self.extras.len())
            .field("family", &self.family())
            .finish()
    }
}

fn validate(graph: &Graph, costs: &[f64], weights: &[f64]) -> Result<(), InstanceError> {
    validate_weights(graph.num_vertices(), weights)?;
    validate_costs(graph.num_edges(), costs)
}

impl Instance {
    /// Validate and cache an instance over a bare [`Graph`]. The graph
    /// family (for automatic splitter choice) is detected lazily on first
    /// use.
    pub fn new(graph: Graph, costs: Vec<f64>, weights: Vec<f64>) -> Result<Self, InstanceError> {
        validate(&graph, &costs, &weights)?;
        Ok(Self::build(
            Host::Plain(Arc::new(graph)),
            Arc::new(costs),
            weights,
        ))
    }

    /// Validate and cache an instance over a [`GridGraph`], preserving its
    /// integer embedding so `SplitterChoice::Auto` (and explicit
    /// `SplitterChoice::Grid`) can run GridSplit on *any* grid subset —
    /// including irregular ones structure detection would refuse.
    pub fn from_grid(
        grid: GridGraph,
        costs: Vec<f64>,
        weights: Vec<f64>,
    ) -> Result<Self, InstanceError> {
        validate(&grid.graph, &costs, &weights)?;
        let host = Host::Grid {
            grid,
            topology: OnceLock::new(),
        };
        Ok(Self::build(host, Arc::new(costs), weights))
    }

    fn build(host: Host, costs: Arc<Vec<f64>>, weights: Vec<f64>) -> Self {
        let graph = match &host {
            Host::Plain(g) => g,
            Host::Grid { grid, .. } => &grid.graph,
        };
        let domain = VertexSet::full(graph.num_vertices());
        let delta_c = norm_inf(&cost_degree_measure(graph, &costs));
        let (w_max, w_total) = (norm_inf(&weights), norm_1(&weights));
        let (c_max, c_total) = (norm_inf(&costs), norm_1(&costs));
        Instance {
            host,
            costs,
            weights,
            extras: Vec::new(),
            domain,
            w_max,
            w_total,
            c_max,
            c_total,
            delta_c,
            detected: OnceLock::new(),
            inherited: Inherited::default(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Assemble an instance over a freshly built graph from parts whose
    /// touched entries were already validated by
    /// [`InstanceDelta::apply`](crate::api::InstanceDelta) — the warm
    /// constructor for deltas that change the topology. Skips the
    /// `O(n + m)` finiteness checks (the untouched entries passed them when
    /// the base instance was built); the cheap derived aggregates
    /// (`‖w‖_∞`, `Δ_c`, …) are recomputed in one streaming pass, since each
    /// is data-dependent on every entry.
    pub(crate) fn from_validated_parts(
        graph: Graph,
        costs: Vec<f64>,
        weights: Vec<f64>,
        extras: Vec<Vec<f64>>,
    ) -> Self {
        let mut inst = Self::build(Host::Plain(Arc::new(graph)), Arc::new(costs), weights);
        inst.extras = extras;
        inst
    }

    /// The warm constructor for deltas that keep `base`'s topology: the new
    /// instance shares `base`'s graph, its structure digest and (for a bare
    /// graph) its detected structure by refcount. `costs` is `None` when no
    /// cost changed, and then the cost vector, its digest and the
    /// cost-derived aggregates (`‖c‖_∞`, `‖c‖₁`, `Δ_c`) are shared or
    /// copied too; otherwise they are recomputed over the new vector.
    /// Weights and extras are the caller's, already validated.
    pub(crate) fn with_shared_topology(
        base: &Instance,
        costs: Option<Vec<f64>>,
        weights: Vec<f64>,
        extras: Vec<Vec<f64>>,
    ) -> Self {
        let topology = Arc::clone(base.topology());
        let (w_max, w_total) = (norm_inf(&weights), norm_1(&weights));
        let known = base.fingerprint.get();
        let (costs, c_max, c_total, delta_c, costs_digest) = match costs {
            None => (
                Arc::clone(&base.costs),
                base.c_max,
                base.c_total,
                base.delta_c,
                known.map(|fp| fp.costs).or(base.inherited.costs),
            ),
            Some(c) => {
                let delta_c = norm_inf(&cost_degree_measure(&topology, &c));
                let (c_max, c_total) = (norm_inf(&c), norm_1(&c));
                (Arc::new(c), c_max, c_total, delta_c, None)
            }
        };
        // A detected structure only carries over from a bare-graph base:
        // a geometry-carrying base's `Structure::Grid` is its given
        // embedding, which detection on the bare graph might refuse.
        let detected = OnceLock::new();
        if let (Host::Plain(_), Some(s)) = (&base.host, base.detected.get()) {
            let _ = detected.set(Arc::clone(s));
        }
        Instance {
            host: Host::Plain(topology),
            costs,
            weights,
            extras,
            domain: base.domain.clone(),
            w_max,
            w_total,
            c_max,
            c_total,
            delta_c,
            detected,
            inherited: Inherited {
                structure: known.map(|fp| fp.structure).or(base.inherited.structure),
                costs: costs_digest,
            },
            fingerprint: OnceLock::new(),
        }
    }

    /// Seed the memoized structure slot from a cached recognition result
    /// (`SolverArtifacts`), so a warm build never re-runs detection. A
    /// refcount bump, not a copy; a no-op if detection already ran on
    /// this instance.
    pub(crate) fn seed_structure(&self, s: Arc<Structure>) {
        let _ = self.detected.set(s);
    }

    /// Add an extra measure to be weakly balanced alongside the weights
    /// (the conclusion's multi-balanced variant). Validates length and
    /// finiteness; chainable.
    pub fn with_extra_measure(mut self, measure: Vec<f64>) -> Result<Self, InstanceError> {
        let n = self.graph().num_vertices();
        if measure.len() != n {
            return Err(InstanceError::MeasureLength {
                index: self.extras.len(),
                got: measure.len(),
                expected: n,
            });
        }
        if measure.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(InstanceError::NotFinite {
                what: "extra measure",
            });
        }
        self.extras.push(measure);
        Ok(self)
    }

    /// The host graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        match &self.host {
            Host::Plain(g) => g,
            Host::Grid { grid, .. } => &grid.graph,
        }
    }

    /// The host graph as a shared handle: instances derived by weight or
    /// cost deltas hold the same `Arc` (compare with [`Arc::ptr_eq`]). A
    /// geometry-carrying instance ([`Instance::from_grid`]) makes its
    /// shared copy on the first call.
    pub fn topology(&self) -> &Arc<Graph> {
        match &self.host {
            Host::Plain(g) => g,
            Host::Grid { grid, topology } => topology.get_or_init(|| Arc::new(grid.graph.clone())),
        }
    }

    /// The shared topology handle if one exists, without making one.
    pub(crate) fn shared_topology(&self) -> Option<&Arc<Graph>> {
        match &self.host {
            Host::Plain(g) => Some(g),
            Host::Grid { topology, .. } => topology.get(),
        }
    }

    /// Grid geometry, if any: the embedding given to
    /// [`Instance::from_grid`], or the one structure detection
    /// reconstructed for a full lattice.
    pub fn grid(&self) -> Option<&GridGraph> {
        match &self.host {
            Host::Grid { grid, .. } => Some(grid),
            Host::Plain(_) => match self.structure() {
                Structure::Grid(gg) => Some(gg),
                _ => None,
            },
        }
    }

    /// Edge costs `c`, indexed by edge id.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Vertex weights `w`, indexed by vertex id.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The extra measures, in insertion order.
    pub fn extra_measures(&self) -> &[Vec<f64>] {
        &self.extras
    }

    /// `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    /// `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    /// The full vertex set, cached (the pipeline's working domain).
    #[inline]
    pub fn domain(&self) -> &VertexSet {
        &self.domain
    }

    /// `‖w‖_∞`, cached.
    #[inline]
    pub fn max_weight(&self) -> f64 {
        self.w_max
    }

    /// `‖w‖₁`, cached.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.w_total
    }

    /// `‖c‖_∞`, cached.
    #[inline]
    pub fn max_cost(&self) -> f64 {
        self.c_max
    }

    /// `‖c‖₁`, cached.
    #[inline]
    pub fn total_cost(&self) -> f64 {
        self.c_total
    }

    /// The maximum cost-weighted degree `Δ_c = max_v c(δ(v))`, cached.
    #[inline]
    pub fn max_cost_degree(&self) -> f64 {
        self.delta_c
    }

    /// `‖c‖_p` (computed on demand, `O(m)`; the [`Solver`] caches it per
    /// configured `p`).
    ///
    /// [`Solver`]: crate::api::Solver
    pub fn cost_norm(&self, p: f64) -> f64 {
        total_edge_norm_p(self.graph(), &self.costs, p)
    }

    /// Full "well-behavedness" statistics (fluctuations, degrees);
    /// computed on demand.
    pub fn stats(&self) -> InstanceStats {
        InstanceStats::compute(self.graph(), &self.costs)
    }

    /// The detected structure of the host graph (memoized; runs
    /// [`mmb_graph::recognize::recognize`] on first call for bare-graph
    /// instances).
    pub fn structure(&self) -> &Structure {
        self.shared_structure()
    }

    /// [`Instance::structure`] as the shared handle the artifact cache
    /// stores.
    pub(crate) fn shared_structure(&self) -> &Arc<Structure> {
        self.detected.get_or_init(|| {
            Arc::new(match &self.host {
                Host::Grid { grid, .. } => Structure::Grid(Box::new(grid.clone())),
                Host::Plain(g) => recognize(g),
            })
        })
    }

    /// Short family name: `"grid"`, `"forest"`, `"path"`, or
    /// `"arbitrary"`. Grid-hosted instances report `"grid"` without
    /// running detection.
    pub fn family(&self) -> &'static str {
        match &self.host {
            Host::Grid { .. } => "grid",
            Host::Plain(_) => self.structure().name(),
        }
    }

    /// The instance's canonical [`Fingerprint`] (structure, cost and
    /// weight digests; see [`mmb_graph::fingerprint`]). Computed on first
    /// use (`O(n + m)`; `O(n)` for a weight delta's result, which inherits
    /// the structure and cost digests), memoized after — the identity the
    /// warm-path caches key on.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| {
            let Inherited { structure, costs } = self.inherited;
            Fingerprint {
                structure: structure.unwrap_or_else(|| structure_digest(self.graph())),
                costs: costs.unwrap_or_else(|| cost_digest(&self.costs)),
                weights: weight_digest(&self.weights),
            }
        })
    }

    /// The measures the pipeline weakly balances: `w` first, then the
    /// extras (borrowed view).
    pub(crate) fn balance_measures(&self) -> Vec<&[f64]> {
        std::iter::once(self.weights.as_slice())
            .chain(self.extras.iter().map(|m| m.as_slice()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::path;
    use mmb_graph::graph::graph_from_edges;

    #[test]
    fn caches_derived_quantities() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = Instance::new(g, vec![1.0, 2.0, 4.0], vec![1.0, 3.0, 0.5, 2.0]).unwrap();
        assert_eq!(inst.max_weight(), 3.0);
        assert_eq!(inst.total_weight(), 6.5);
        assert_eq!(inst.max_cost(), 4.0);
        assert_eq!(inst.total_cost(), 7.0);
        assert_eq!(inst.max_cost_degree(), 6.0); // vertex 2: 2 + 4
        assert_eq!(inst.domain().len(), 4);
        assert!((inst.cost_norm(2.0) - 21f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn every_validation_error_fires() {
        let g = path(3);
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0; 2]).unwrap_err(),
            InstanceError::WeightLength {
                got: 2,
                expected: 3
            }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 5], vec![1.0; 3]).unwrap_err(),
            InstanceError::CostLength {
                got: 5,
                expected: 2
            }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0, f64::NAN, 1.0]).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0, -2.0, 1.0]).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0, f64::INFINITY], vec![1.0; 3]).unwrap_err(),
            InstanceError::NotFinite { what: "costs" }
        );
        let inst = Instance::new(g.clone(), vec![1.0; 2], vec![1.0; 3]).unwrap();
        assert_eq!(
            inst.with_extra_measure(vec![1.0; 4]).unwrap_err(),
            InstanceError::MeasureLength {
                index: 0,
                got: 4,
                expected: 3
            }
        );
        let inst = Instance::new(g, vec![1.0; 2], vec![1.0; 3]).unwrap();
        assert_eq!(
            inst.with_extra_measure(vec![1.0, -1.0, 0.0]).unwrap_err(),
            InstanceError::NotFinite {
                what: "extra measure"
            }
        );
    }

    #[test]
    fn family_detection_is_lazy_and_memoized() {
        let inst = Instance::new(path(6), vec![1.0; 5], vec![1.0; 6]).unwrap();
        assert_eq!(inst.family(), "path");
        assert_eq!(inst.family(), "path"); // second call hits the memo
    }

    #[test]
    fn grid_host_reports_grid_without_detection() {
        let grid = GridGraph::percolation(&[8, 8], 0.7, 3);
        let n = grid.graph.num_vertices();
        let m = grid.graph.num_edges();
        let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
        assert_eq!(inst.family(), "grid");
        assert!(inst.grid().is_some());
    }

    #[test]
    fn plain_lattice_gets_reconstructed_geometry() {
        let grid = GridGraph::lattice(&[4, 5]);
        let m = grid.graph.num_edges();
        let inst = Instance::new(grid.graph, vec![1.0; m], vec![1.0; 20]).unwrap();
        assert_eq!(inst.family(), "grid");
        assert_eq!(inst.grid().unwrap().dim, 2);
    }

    #[test]
    fn digests_are_inherited_down_a_chain_of_weight_deltas() {
        use crate::api::InstanceDelta;
        let base = Instance::new(path(5), vec![1.0; 4], vec![1.0; 5]).unwrap();
        let fp = base.fingerprint();
        let middle = InstanceDelta::new()
            .set_weight(0, 2.0)
            .apply(&base)
            .unwrap();
        // `middle` never computes its own fingerprint; `last` still
        // inherits both digests through it.
        let last = InstanceDelta::new()
            .set_weight(1, 3.0)
            .apply(&middle.instance)
            .unwrap()
            .instance;
        assert_eq!(last.inherited.structure, Some(fp.structure));
        assert_eq!(last.inherited.costs, Some(fp.costs));
        let repriced = InstanceDelta::new().set_cost(0, 5.0).apply(&last).unwrap();
        assert_eq!(repriced.instance.inherited.structure, Some(fp.structure));
        assert_eq!(repriced.instance.inherited.costs, None);
    }
}
