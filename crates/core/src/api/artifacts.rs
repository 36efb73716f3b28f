//! Cacheable solver-construction artifacts and the LRU cache over them.
//!
//! Of what [`SolverBuilder::build`](crate::api::SolverBuilder::build)
//! computes, structure recognition (`recognize`, `O((n + m)·d)`) is the
//! one part that depends on the **topology alone** — not on the costs,
//! the weights, `k`, or the run. [`SolverArtifacts`] keeps its verdict
//! next to a refcounted handle on the graph it was taken over (nothing is
//! copied: an instance's topology is immutable and shared, see
//! [`Instance::topology`]). A [`SolverCache`] keyed by the structure
//! digest ([`Fingerprint::structure`](mmb_graph::Fingerprint::structure))
//! ⊕ `p` hands the snapshot back to `SolverBuilder::artifacts`, which
//! then skips recognition. Costs never enter the key, so a re-priced edge
//! still hits; the cost-dependent build products — the splitting-cost
//! measure `π` (Definition 10) and `‖c‖_p` — are recomputed from the
//! instance's own costs at every build, one `O(n + m)` pass.
//!
//! ## Fingerprints filter, equality decides
//!
//! The 64-bit key is a *filter*, not a proof: on every hit the cache
//! re-checks the candidate against the instance with
//! [`SolverArtifacts::matches`] — bit-equality of `p`, and either the very
//! same shared graph (`Arc::ptr_eq`, what weight and cost churn produce)
//! or full structural equality of the edge list. A colliding key is
//! reported as [`CacheLookup::Collision`] and recomputed; a stale or
//! poisoned entry can be dropped with [`SolverCache::evict_for`]. Served
//! results therefore never depend on the hash being collision-free.
//!
//! ## Determinism
//!
//! The cache is a plain most-recently-used-first `Vec` — no `HashMap`,
//! no random state. Identical request sequences produce identical
//! hit/miss/eviction traces on every run and platform.

use std::sync::Arc;

use mmb_graph::recognize::Structure;
use mmb_graph::Graph;

use crate::api::instance::Instance;

/// The build-phase products that depend only on the topology (and the
/// exponent `p` the cache is keyed by).
///
/// Create with [`SolverArtifacts::compute`], share via `Arc`, and feed to
/// [`SolverBuilder::artifacts`](crate::api::SolverBuilder::artifacts) to
/// warm-start construction on instances with the same topology (costs
/// and weights may differ freely).
#[derive(Clone, Debug)]
pub struct SolverArtifacts {
    /// The graph the artifacts were computed over (the instance's shared
    /// topology, used for the exact collision check).
    topology: Arc<Graph>,
    /// The exponent `p` the entry is keyed by.
    p: f64,
    /// Recognition verdict, reusable via `Instance::seed_structure`.
    structure: Arc<Structure>,
    /// The cache key: structure digest ⊕ `p` bits.
    key: u64,
}

impl SolverArtifacts {
    /// Run the cacheable build phase for `inst` at exponent `p`.
    ///
    /// Triggers structure recognition (memoized on `inst`); the result is
    /// independent of `inst`'s costs and weights.
    pub fn compute(inst: &Instance, p: f64) -> Self {
        SolverArtifacts {
            topology: Arc::clone(inst.topology()),
            p,
            structure: Arc::clone(inst.shared_structure()),
            key: mix_key(inst, p),
        }
    }

    /// Exact applicability check: does this snapshot describe `inst` at
    /// exponent `p`? `p` bits must agree; then either `inst` holds the very
    /// graph the artifacts were computed over (pointer equality, `O(1)`),
    /// or the edge lists are compared in full — so a fingerprint collision
    /// can never smuggle in a wrong recognition verdict.
    pub fn matches(&self, inst: &Instance, p: f64) -> bool {
        self.p.to_bits() == p.to_bits()
            && (inst
                .shared_topology()
                .is_some_and(|g| Arc::ptr_eq(g, &self.topology))
                || (self.topology.num_vertices() == inst.num_vertices()
                    && self.topology.edge_list() == inst.graph().edge_list()))
    }

    /// The exponent the entry is keyed by.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The cached recognition verdict.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The cached recognition verdict as the shared handle
    /// `Instance::seed_structure` takes.
    pub(crate) fn shared_structure(&self) -> &Arc<Structure> {
        &self.structure
    }
}

/// Splitmix of the instance's structure digest with `p`'s bit pattern —
/// the 64-bit cache key.
fn mix_key(inst: &Instance, p: f64) -> u64 {
    let mut z = inst
        .fingerprint()
        .structure
        .wrapping_add(0x9e37_79b9_7f4a_7c15 ^ p.to_bits());
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of one [`SolverCache::get_or_compute`] lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// Key matched and the exact check confirmed: artifacts reused.
    Hit,
    /// No entry under the key: artifacts computed and inserted.
    Miss,
    /// Key matched but the exact check refused (hash collision):
    /// artifacts computed and inserted alongside.
    Collision,
}

/// Cumulative counters of a [`SolverCache`]'s lookup outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Confirmed hits (exact check passed).
    pub hits: u64,
    /// Cold lookups (no entry under the key).
    pub misses: u64,
    /// Key matches refused by the exact check.
    pub collisions: u64,
    /// Entries dropped by the LRU bound or [`SolverCache::evict_for`].
    pub evictions: u64,
}

/// A bounded, deterministic LRU cache of [`SolverArtifacts`].
///
/// Most-recently-used entries sit at the front of a plain `Vec`; lookups
/// scan by 64-bit key and confirm with the exact [`SolverArtifacts::matches`]
/// check. Capacity 0 degenerates to "always compute" (still counted).
#[derive(Debug)]
pub struct SolverCache {
    entries: Vec<(u64, Arc<SolverArtifacts>)>,
    capacity: usize,
    stats: CacheStats,
}

impl SolverCache {
    /// An empty cache holding at most `capacity` artifact snapshots.
    pub fn new(capacity: usize) -> Self {
        SolverCache {
            entries: Vec::with_capacity(capacity.min(64)),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Look up artifacts for `(inst, p)`; compute, insert, and evict the
    /// least-recently-used entry on a miss. Returns the artifacts and
    /// how they were obtained.
    pub fn get_or_compute(
        &mut self,
        inst: &Instance,
        p: f64,
    ) -> (Arc<SolverArtifacts>, CacheLookup) {
        let key = mix_key(inst, p);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            if self.entries[pos].1.matches(inst, p) {
                self.stats.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.insert(0, entry);
                return (Arc::clone(&self.entries[0].1), CacheLookup::Hit);
            }
            // Same 64-bit key, different instance: a genuine collision.
            // Recompute; the insert below replaces the colliding entry's
            // slot ordering but both remain addressable by exact check.
            self.stats.collisions += 1;
            let artifacts = Arc::new(SolverArtifacts::compute(inst, p));
            self.insert(Arc::clone(&artifacts));
            return (artifacts, CacheLookup::Collision);
        }
        self.stats.misses += 1;
        let artifacts = Arc::new(SolverArtifacts::compute(inst, p));
        self.insert(Arc::clone(&artifacts));
        (artifacts, CacheLookup::Miss)
    }

    /// Insert precomputed artifacts at the most-recently-used position.
    pub fn insert(&mut self, artifacts: Arc<SolverArtifacts>) {
        if self.capacity == 0 {
            return;
        }
        self.entries.insert(0, (artifacts.key, artifacts));
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.stats.evictions += 1;
        }
    }

    /// Drop the entry that exactly matches `(inst, p)`, if present.
    /// Returns whether anything was evicted. The poisoned-entry hatch:
    /// a serving layer that observes a fault while using cached
    /// artifacts evicts them instead of ever serving from them again.
    pub fn evict_for(&mut self, inst: &Instance, p: f64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(_, a)| !a.matches(inst, p));
        let dropped = before - self.entries.len();
        self.stats.evictions += dropped as u64;
        dropped > 0
    }

    /// Cumulative lookup counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    fn grid_instance(side: usize, w0: f64) -> Instance {
        let gg = GridGraph::lattice(&[side, side]);
        let m = gg.graph.num_edges();
        let n = gg.graph.num_vertices();
        let mut w = vec![1.0; n];
        w[0] = w0;
        Instance::from_grid(gg, vec![1.0; m], w).expect("valid grid instance")
    }

    #[test]
    fn weight_churn_hits_the_cache() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(4, 1.0);
        let b = grid_instance(4, 7.0); // same topology+costs, new weights
        let (_, first) = cache.get_or_compute(&a, 2.0);
        let (art, second) = cache.get_or_compute(&b, 2.0);
        assert_eq!(first, CacheLookup::Miss);
        assert_eq!(second, CacheLookup::Hit);
        assert!(art.matches(&b, 2.0));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_p_or_topology_misses() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(4, 1.0);
        let b = grid_instance(5, 1.0);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&a, 1.5).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = SolverCache::new(2);
        let a = grid_instance(3, 1.0);
        let b = grid_instance(4, 1.0);
        let c = grid_instance(5, 1.0);
        cache.get_or_compute(&a, 2.0);
        cache.get_or_compute(&b, 2.0);
        cache.get_or_compute(&a, 2.0); // refresh a; b is now coldest
        cache.get_or_compute(&c, 2.0); // evicts b
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Hit);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Miss);
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn evict_for_removes_exactly_the_target() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(3, 1.0);
        let b = grid_instance(4, 1.0);
        cache.get_or_compute(&a, 2.0);
        cache.get_or_compute(&b, 2.0);
        assert!(cache.evict_for(&a, 2.0));
        assert!(!cache.evict_for(&a, 2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Hit);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
    }

    #[test]
    fn zero_capacity_always_computes() {
        let mut cache = SolverCache::new(0);
        let a = grid_instance(3, 1.0);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn artifacts_agree_with_a_fresh_build() {
        let a = grid_instance(4, 1.0);
        let art = SolverArtifacts::compute(&a, 2.0);
        assert!(Arc::ptr_eq(&art.topology, a.topology()));
        assert!(Arc::ptr_eq(art.shared_structure(), a.shared_structure()));
        assert!(matches!(art.structure(), Structure::Grid(_)));
        assert_eq!(art.p(), 2.0);
    }

    fn bare_grid_instance(side: usize, cost: f64) -> Instance {
        let g = GridGraph::lattice(&[side, side]).graph;
        let (n, m) = (g.num_vertices(), g.num_edges());
        Instance::new(g, vec![cost; m], vec![1.0; n]).expect("valid grid instance")
    }

    #[test]
    fn matches_by_pointer_then_by_full_comparison() {
        let a = bare_grid_instance(4, 1.0);
        let art = SolverArtifacts::compute(&a, 2.0);
        assert!(Arc::ptr_eq(&art.topology, a.topology()));
        // A weight delta shares the topology handle: the O(1) path.
        let warm = crate::api::InstanceDelta::new()
            .set_weight(3, 9.0)
            .apply(&a)
            .expect("applies")
            .instance;
        assert!(art.matches(&warm, 2.0));
        assert!(!art.matches(&warm, 1.5));
        // An equal instance built separately: the full comparison.
        let twin = bare_grid_instance(4, 1.0);
        assert!(!Arc::ptr_eq(twin.topology(), a.topology()));
        assert!(art.matches(&twin, 2.0));
        // Same topology pointer, one re-priced edge: costs are not part
        // of the artifacts, so it still matches.
        let repriced = crate::api::InstanceDelta::new()
            .set_cost(0, 1.0 + 1e-12)
            .apply(&a)
            .expect("applies")
            .instance;
        assert!(Arc::ptr_eq(repriced.topology(), a.topology()));
        assert!(art.matches(&repriced, 2.0));
        // Equal costs, different graph: refused.
        assert!(!art.matches(&bare_grid_instance(5, 1.0), 2.0));
        // Costs of any bit pattern match, by pointer or by comparison.
        let zero = bare_grid_instance(3, 0.0);
        let art0 = SolverArtifacts::compute(&zero, 2.0);
        assert!(art0.matches(&bare_grid_instance(3, -0.0), 2.0));
    }

    #[test]
    fn a_warm_build_shares_the_cached_structure() {
        let a = bare_grid_instance(5, 1.0);
        let art = Arc::new(SolverArtifacts::compute(&a, 2.0));
        let b = bare_grid_instance(5, 1.0);
        crate::api::Solver::for_instance(&b)
            .classes(2)
            .artifacts(Arc::clone(&art))
            .build()
            .expect("builds");
        assert!(Arc::ptr_eq(b.shared_structure(), art.shared_structure()));
        assert_eq!(b.family(), "grid");
    }

    #[test]
    fn a_repriced_twin_hits_and_builds_its_own_pi() {
        let mut cache = SolverCache::new(4);
        let a = bare_grid_instance(6, 1.0);
        let (art, first) = cache.get_or_compute(&a, 2.0);
        assert_eq!(first, CacheLookup::Miss);
        // Built separately, every edge re-priced: a different cost
        // digest on an equal topology.
        let g = GridGraph::lattice(&[6, 6]).graph;
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 7) as f64).collect();
        let n = g.num_vertices();
        let fresh = Instance::new(g.clone(), costs.clone(), vec![1.0; n]).expect("valid");
        let twin = Instance::new(g, costs, vec![1.0; n]).expect("valid");
        assert_ne!(twin.fingerprint().costs, a.fingerprint().costs);
        let (hit, second) = cache.get_or_compute(&twin, 2.0);
        assert_eq!(second, CacheLookup::Hit);
        assert!(Arc::ptr_eq(&hit, &art));
        let warm = crate::api::Solver::for_instance(&twin)
            .classes(3)
            .artifacts(hit)
            .build()
            .expect("builds");
        assert!(Arc::ptr_eq(twin.shared_structure(), art.shared_structure()));
        let cold = crate::api::Solver::for_instance(&fresh)
            .classes(3)
            .build()
            .expect("builds");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(warm.pi()), bits(cold.pi()));
        let (w, c) = (warm.solve(), cold.solve());
        assert_eq!(w.coloring, c.coloring);
        assert_eq!(w.bound_ratio.to_bits(), c.bound_ratio.to_bits());
    }
}
