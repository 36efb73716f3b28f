//! # mmb-service
//!
//! The warm-path serving front end over `mmb-core`'s solver stack: a
//! long-lived [`Service`] that admits raw requests, caches the
//! topology-only construction artifacts of cold solves across requests,
//! re-solves mutated instances incrementally from their previous
//! colorings, and emits a structured [`ServingRecord`] per request.
//!
//! ## Request model
//!
//! * [`Request::Solve`] — a raw `(graph, costs, weights)` triple.
//!   Admission runs the same typed [`InstanceError`](mmb_core::api::InstanceError) validation the
//!   library's `Instance::new` constructor enforces; malformed input
//!   yields one typed rejection, never a poisoned batch.
//! * [`Request::Mutate`] — a [`InstanceDelta`] against the *ticket* of a
//!   previously served response. The service repairs the incumbent
//!   coloring (`mmb_core::api::resolve_delta`): KL repair on the touched
//!   region, a strict re-pack only if eq. (1) broke, and the serving gate
//!   before anything is served. No solver is built (unless the gate
//!   rejects the repair and the mutated instance is solved cold), and the
//!   artifact cache is never consulted.
//!
//! Both paths serve through `mmb-core`'s one gate (`verify::gate`):
//! a served coloring is total, strictly balanced (eq. (1)) and no worse
//! than the LPT floor (`verify::lpt_floor`). A cold solve the floor
//! beats is answered with the floor itself.
//!
//! Batches are distributed over the same `rayon` worker pool that backs
//! `solve_many`; each request is isolated — a panic in one becomes that
//! request's typed [`SolveError::Panicked`], not the batch's.
//!
//! ## Cache discipline
//!
//! Only a cold [`Request::Solve`] consults the artifact cache. Its
//! entries hold what the topology alone determines — the shared graph
//! and its recognized structure — keyed by the structure digest and `p`,
//! so a known mesh hits whatever its weights and costs; `π` and `‖c‖_p`
//! are recomputed from the request's own costs at every build. Every hit
//! is confirmed by an exact structural check; a fault observed during
//! the lookup (the `service::cache` failpoint) evicts the matching entry
//! and rebuilds cold: a poisoned entry is never served, and the event is
//! visible as [`CacheEvent::Poisoned`] in the record. A
//! [`Request::Mutate`] records [`CacheEvent::NotConsulted`]: the warm
//! repair needs neither a splitter nor `π`.
//!
//! ## Tickets: what they share, what they copy
//!
//! Every served response is remembered under its ticket as the instance
//! plus the served coloring. Instance topology is immutable and shared
//! (`Instance::topology`): a ticket produced by a weight or cost mutation
//! shares its base ticket's graph, detected structure and structure
//! digest, and its cost vector unless the mutation re-priced an edge; it
//! owns only its weights (and re-priced costs) and its coloring. The
//! artifact cache holds a handle to the same graph, not a copy. A cold
//! [`Request::Solve`] brings its own graph; mutations that add or remove
//! vertices or edges build a new one. A mutation looks its ticket up in
//! the memo and touches nothing else that is shared.
//!
//! The memo is bounded by [`ServiceConfig::memo_capacity`]: past it, the
//! least recently used ticket (recency set by insert and by a successful
//! [`Request::Mutate`] lookup) is evicted, deterministically — no clock,
//! no hashing. A mutation against an evicted ticket is rejected like an
//! unknown one, with the typed [`SolveError::WarmStartMismatch`]
//! (`what: "ticket"`); an evicted ticket is never served.
//!
//! ```
//! use mmb_graph::gen::grid::GridGraph;
//! use mmb_service::{Request, Service, ServiceConfig};
//! use mmb_core::api::InstanceDelta;
//!
//! let service = Service::new(ServiceConfig::new(4));
//! let grid = GridGraph::lattice(&[8, 8]);
//! let m = grid.graph.num_edges();
//! let solve = Request::Solve {
//!     graph: grid.graph,
//!     costs: vec![1.0; m],
//!     weights: vec![1.0; 64],
//! };
//! let cold = service.serve(vec![solve]);
//! let ticket = cold[0].outcome.as_ref().unwrap().ticket;
//!
//! // Weight churn against the served ticket: warm re-solve.
//! let mutate = Request::Mutate {
//!     base: ticket,
//!     delta: InstanceDelta::new().set_weight(0, 2.0),
//! };
//! let warm = service.serve(vec![mutate]);
//! assert!(warm[0].outcome.is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use mmb_core::api::{
    self, CacheLookup, CacheStats, Instance, InstanceDelta, SolveError, Solver, SolverArtifacts,
    SolverCache,
};
use mmb_core::pipeline::PipelineConfig;
use mmb_core::{failpoint, verify};
use mmb_graph::{Coloring, Graph};
use rayon::prelude::*;

pub use record::{CacheEvent, ServePath, ServingRecord};

/// Static configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of decomposition classes `k` served for every request.
    pub k: usize,
    /// Pipeline configuration shared by all solves (in particular the
    /// exponent `p`, which keys the artifact cache with the topology).
    pub pipeline: PipelineConfig,
    /// Artifact-cache capacity (LRU entries). 0 disables reuse.
    pub cache_capacity: usize,
    /// Ticket-memo capacity: how many tickets the service remembers for
    /// [`Request::Mutate`]. Past it the least recently used ticket is
    /// evicted, and a mutation against it is rejected like an unknown
    /// ticket. 0 remembers none.
    pub memo_capacity: usize,
}

impl ServiceConfig {
    /// Defaults: the given `k`, [`PipelineConfig::default`], artifact
    /// cache of 16 entries, ticket memo of 4096 tickets.
    pub fn new(k: usize) -> Self {
        ServiceConfig {
            k,
            pipeline: PipelineConfig::default(),
            cache_capacity: 16,
            memo_capacity: 4096,
        }
    }
}

/// One serving request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Solve a raw, not-yet-validated instance cold.
    Solve {
        /// The topology.
        graph: Graph,
        /// Edge costs, indexed by the graph's canonical edge ids.
        costs: Vec<f64>,
        /// Vertex weights.
        weights: Vec<f64>,
    },
    /// Mutate a previously served instance and re-solve warm.
    Mutate {
        /// The ticket of an earlier successful response ([`Served::ticket`]).
        base: u64,
        /// The mutation, expressed against that instance.
        delta: InstanceDelta,
    },
}

/// The payload of a successful response.
#[derive(Clone, Debug)]
pub struct Served {
    /// Handle for follow-up [`Request::Mutate`] requests: the combined
    /// fingerprint of the (post-mutation) instance this coloring is for.
    pub ticket: u64,
    /// The served coloring — total, strictly balanced (eq. (1)) and no
    /// worse than the LPT floor, enforced before anything leaves the
    /// service.
    pub coloring: Coloring,
    /// `‖∂χ⁻¹‖_∞` of the served coloring.
    pub max_boundary: f64,
}

/// One request's response: the structured record plus either the served
/// payload or a typed error.
#[derive(Clone, Debug)]
pub struct Response {
    /// What happened, structurally.
    pub record: ServingRecord,
    /// The payload or the typed failure.
    pub outcome: Result<Served, SolveError>,
}

/// A warm incumbent: the instance a ticket refers to and the coloring
/// that was served for it.
struct WarmState {
    instance: Instance,
    coloring: Coloring,
}

/// The ticket memo: a bounded LRU over tickets. Recency is a per-memo
/// counter stamped on insert and on a successful lookup — no clock, no
/// hashing — so one request sequence always evicts the same tickets.
struct Memo {
    capacity: usize,
    next_stamp: u64,
    /// Ticket → (recency stamp, warm state).
    by_ticket: BTreeMap<u64, (u64, Arc<WarmState>)>,
    /// Recency stamp → ticket; the first entry is the eviction victim.
    by_stamp: BTreeMap<u64, u64>,
}

impl Memo {
    fn new(capacity: usize) -> Self {
        Memo {
            capacity,
            next_stamp: 0,
            by_ticket: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    fn stamp(&mut self, ticket: u64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, ticket);
        stamp
    }

    /// The ticket's state, marked most recently used.
    fn touch(&mut self, ticket: u64) -> Option<Arc<WarmState>> {
        let stamp = self.by_ticket.get(&ticket)?.0;
        self.by_stamp.remove(&stamp);
        let fresh = self.stamp(ticket);
        let entry = self.by_ticket.get_mut(&ticket)?;
        entry.0 = fresh;
        Some(Arc::clone(&entry.1))
    }

    /// Remember `state` under `ticket` as most recently used, evicting the
    /// least recently used tickets past the capacity.
    fn insert(&mut self, ticket: u64, state: Arc<WarmState>) {
        self.remove(ticket);
        let stamp = self.stamp(ticket);
        self.by_ticket.insert(ticket, (stamp, state));
        while self.by_ticket.len() > self.capacity {
            let Some((_, victim)) = self.by_stamp.pop_first() else {
                break;
            };
            self.by_ticket.remove(&victim);
        }
    }

    fn remove(&mut self, ticket: u64) -> bool {
        match self.by_ticket.remove(&ticket) {
            Some((stamp, _)) => {
                self.by_stamp.remove(&stamp);
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.by_ticket.len()
    }
}

/// The long-lived serving front end. See the [module docs](self).
pub struct Service {
    cfg: ServiceConfig,
    cache: Mutex<SolverCache>,
    memo: Mutex<Memo>,
}

impl Service {
    /// A fresh service with an empty cache and no known tickets.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cache = SolverCache::new(cfg.cache_capacity);
        let memo = Memo::new(cfg.memo_capacity);
        Service {
            cfg,
            cache: Mutex::new(cache),
            memo: Mutex::new(memo),
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serve a batch. Responses come back in request order; each request
    /// is isolated (its own typed error slot, panic containment at the
    /// request boundary) and carries a [`ServingRecord`].
    pub fn serve(&self, requests: Vec<Request>) -> Vec<Response> {
        let indexed: Vec<(usize, Request)> = requests.into_iter().enumerate().collect();
        indexed
            .into_par_iter()
            .map(|(index, req)| self.serve_one(index, req))
            .collect()
    }

    /// Cumulative artifact-cache counters (cold solves only consult it).
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Number of tickets the service currently remembers (at most
    /// [`ServiceConfig::memo_capacity`]).
    pub fn known_tickets(&self) -> usize {
        self.lock_memo().len()
    }

    /// Drop one ticket's warm state. Returns whether it existed.
    pub fn forget(&self, ticket: u64) -> bool {
        self.lock_memo().remove(ticket)
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, SolverCache> {
        // A panic while holding the lock is already contained at the
        // request boundary; recover the guard rather than cascading.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn serve_one(&self, index: usize, req: Request) -> Response {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timestamps feed only the record's observational `elapsed_millis`, never a coloring"
        )]
        let t0 = std::time::Instant::now();
        let hooked = AssertUnwindSafe(|| self.dispatch(req));
        #[expect(
            clippy::disallowed_methods,
            reason = "the request isolation boundary: a panic (injected or genuine) in one request's solve becomes that request's typed error instead of unwinding through the rayon worker and taking down the batch. Shared state is lock-guarded and locks recover from poisoning in `lock_cache`/`lock_memo`"
        )]
        let caught = std::panic::catch_unwind(hooked);
        let (outcome, cache, path) = caught.unwrap_or_else(|payload| {
            (
                Err(SolveError::Panicked {
                    context: "service",
                    message: failpoint::panic_message(payload.as_ref()),
                }),
                CacheEvent::NotConsulted,
                ServePath::Rejected,
            )
        });
        let admitted = !matches!(
            outcome,
            Err(SolveError::Instance(_))
                | Err(SolveError::Transient {
                    site: "service::admit"
                })
        );
        Response {
            record: ServingRecord {
                index,
                admitted,
                cache,
                path,
                elapsed_millis: t0.elapsed().as_secs_f64() * 1e3,
            },
            outcome,
        }
    }

    fn dispatch(&self, req: Request) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        if let Err(e) = failpoint::raise("service::admit") {
            return (Err(e), CacheEvent::NotConsulted, ServePath::Rejected);
        }
        match req {
            Request::Solve {
                graph,
                costs,
                weights,
            } => match Instance::new(graph, costs, weights) {
                Ok(inst) => self.solve_cold(inst),
                Err(e) => (Err(e.into()), CacheEvent::NotConsulted, ServePath::Rejected),
            },
            Request::Mutate { base, delta } => self.mutate(base, &delta),
        }
    }

    /// Consult the artifact cache for `inst`. A fault at the
    /// `service::cache` failpoint poisons the lookup: the matching entry
    /// is evicted and `None` is returned, forcing a cold rebuild —
    /// cached state observed under a fault is never served.
    fn lookup_artifacts(&self, inst: &Instance) -> (Option<Arc<SolverArtifacts>>, CacheEvent) {
        let p = self.cfg.pipeline.p;
        let mut cache = self.lock_cache();
        match failpoint::raise("service::cache") {
            Ok(()) => {
                let (artifacts, lookup) = cache.get_or_compute(inst, p);
                let event = match lookup {
                    CacheLookup::Hit => CacheEvent::Hit,
                    CacheLookup::Miss => CacheEvent::Miss,
                    CacheLookup::Collision => CacheEvent::Collision,
                };
                (Some(artifacts), event)
            }
            Err(_) => {
                cache.evict_for(inst, p);
                (None, CacheEvent::Poisoned)
            }
        }
    }

    /// Memoize `coloring` as the warm incumbent of `instance`'s ticket and
    /// return the response payload.
    fn remember(&self, instance: Instance, coloring: Coloring, max_boundary: f64) -> Served {
        let ticket = instance.fingerprint().combined();
        let served = Served {
            ticket,
            coloring: coloring.clone(),
            max_boundary,
        };
        let state = WarmState { instance, coloring };
        self.lock_memo().insert(ticket, Arc::new(state));
        served
    }

    fn solve_cold(&self, inst: Instance) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        let (artifacts, cache_event) = self.lookup_artifacts(&inst);
        if let Err(e) = failpoint::raise("service::worker") {
            return (Err(e), cache_event, ServePath::Rejected);
        }
        let mut builder = Solver::for_instance(&inst)
            .classes(self.cfg.k)
            .config(self.cfg.pipeline.clone());
        if let Some(a) = artifacts {
            builder = builder.artifacts(a);
        }
        let report = match builder.build() {
            Ok(solver) => solver.solve(),
            Err(e) => return (Err(e), cache_event, ServePath::Rejected),
        };
        // The serving gate, as on the warm path: nothing leaves the
        // service that is not strictly balanced and within the LPT
        // floor; when the pipeline loses to the floor, the floor serves.
        let floor = verify::lpt_floor(&inst, self.cfg.k);
        let (coloring, max_boundary) =
            verify::cheapest_passing(&inst, [report.coloring], floor.1).unwrap_or(floor);
        let served = self.remember(inst, coloring, max_boundary);
        (Ok(served), cache_event, ServePath::Cold)
    }

    /// The warm path: memo lookup, then `api::resolve_delta` (apply the
    /// delta, repair, gate), then remember. It needs no solver and never
    /// consults the artifact cache.
    fn mutate(
        &self,
        base: u64,
        delta: &InstanceDelta,
    ) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        let rejected = |e| (Err(e), CacheEvent::NotConsulted, ServePath::Rejected);
        let Some(state) = self.lock_memo().touch(base) else {
            return rejected(SolveError::WarmStartMismatch { what: "ticket" });
        };
        if let Err(e) = failpoint::raise("service::worker") {
            return rejected(e);
        }
        let cfg = &self.cfg;
        let ds = match api::resolve_delta(
            &state.instance,
            cfg.k,
            &cfg.pipeline,
            delta,
            &state.coloring,
        ) {
            Ok(ds) => ds,
            Err(e) => return rejected(e),
        };
        let path = if ds.warm {
            ServePath::Warm
        } else {
            ServePath::ColdFallback
        };
        let served = self.remember(ds.instance, ds.coloring, ds.max_boundary);
        (Ok(served), CacheEvent::NotConsulted, path)
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("k", &self.cfg.k)
            .field("cache_capacity", &self.cfg.cache_capacity)
            .field("known_tickets", &self.known_tickets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    fn grid_solve_request(side: usize, w0: f64) -> Request {
        let grid = GridGraph::lattice(&[side, side]);
        let m = grid.graph.num_edges();
        let n = grid.graph.num_vertices();
        let mut weights = vec![1.0; n];
        weights[0] = w0;
        Request::Solve {
            graph: grid.graph,
            costs: vec![1.0; m],
            weights,
        }
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let service = Service::new(ServiceConfig::new(4));
        let cold = service.serve(vec![grid_solve_request(8, 1.0)]);
        assert_eq!(cold.len(), 1);
        let served = cold[0].outcome.as_ref().expect("cold solve serves");
        assert_eq!(cold[0].record.path, ServePath::Cold);
        assert_eq!(cold[0].record.cache, CacheEvent::Miss);
        assert!(cold[0].record.admitted);

        let warm = service.serve(vec![Request::Mutate {
            base: served.ticket,
            delta: InstanceDelta::new().set_weight(5, 3.0),
        }]);
        let out = warm[0].outcome.as_ref().expect("mutation serves");
        assert_ne!(out.ticket, served.ticket, "mutation must re-ticket");
        assert!(
            matches!(
                warm[0].record.path,
                ServePath::Warm | ServePath::ColdFallback
            ),
            "mutation must take a delta path, got {:?}",
            warm[0].record.path
        );
        // The warm repair needs no solver, so it never consults the cache.
        assert_eq!(warm[0].record.cache, CacheEvent::NotConsulted);
        assert_eq!(service.known_tickets(), 2);
    }

    #[test]
    fn unknown_ticket_is_a_typed_rejection() {
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![Request::Mutate {
            base: 0xdead_beef,
            delta: InstanceDelta::new(),
        }]);
        assert!(matches!(
            out[0].outcome,
            Err(SolveError::WarmStartMismatch { what: "ticket" })
        ));
        assert_eq!(out[0].record.path, ServePath::Rejected);
    }

    #[test]
    fn malformed_input_is_admission_rejected() {
        let grid = GridGraph::lattice(&[4, 4]);
        let m = grid.graph.num_edges();
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![Request::Solve {
            graph: grid.graph,
            costs: vec![1.0; m],
            weights: vec![f64::NAN; 16],
        }]);
        assert!(matches!(out[0].outcome, Err(SolveError::Instance(_))));
        assert!(!out[0].record.admitted);
        assert_eq!(out[0].record.path, ServePath::Rejected);
    }

    #[test]
    fn every_served_coloring_is_strict() {
        let service = Service::new(ServiceConfig::new(3));
        let batch: Vec<Request> = (0..4)
            .map(|i| grid_solve_request(6, 1.0 + i as f64))
            .collect();
        for resp in service.serve(batch) {
            let served = resp.outcome.expect("valid grids serve");
            assert!(served.coloring.is_total());
            assert!(served.max_boundary.is_finite());
        }
    }

    #[test]
    fn cold_path_never_serves_worse_than_the_lpt_floor() {
        // A path whose cheap edges sit where the pipeline does not cut:
        // its coloring costs 200, the LPT greedy's 103.
        let graph = mmb_graph::gen::misc::path(7);
        let costs = vec![3.0, 2.0, 100.0, 100.0, 1.0, 100.0];
        let weights = vec![5.0, 3.0, 6.0, 1.0, 6.0, 9.0, 4.0];
        let k = 2;
        let service = Service::new(ServiceConfig::new(k));
        let out = service.serve(vec![Request::Solve {
            graph: graph.clone(),
            costs: costs.clone(),
            weights: weights.clone(),
        }]);
        assert_eq!(out[0].record.path, ServePath::Cold);
        let served = out[0].outcome.as_ref().expect("a valid path serves");
        assert!(served.coloring.is_total());
        assert!(served.coloring.is_strictly_balanced(&weights));
        let cost = served.coloring.max_boundary_cost(&graph, &costs);
        assert_eq!(served.max_boundary, cost);

        // LPT recomputed here: descending weight (ties by id), each
        // vertex into the lightest class.
        let mut order: Vec<u32> = (0..7).collect();
        order.sort_by(|&a, &b| weights[b as usize].total_cmp(&weights[a as usize]));
        let mut loads = [0.0f64; 2];
        let mut lpt = Coloring::new_uncolored(7, k);
        for v in order {
            let c = usize::from(loads[1] < loads[0]);
            loads[c] += weights[v as usize];
            lpt.set(v, c as u32);
        }
        let floor = lpt.max_boundary_cost(&graph, &costs);
        assert_eq!(floor, 103.0);
        assert!(
            cost <= floor,
            "cold path served {cost} above the floor {floor}"
        );
    }

    #[test]
    fn forget_drops_the_ticket() {
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![grid_solve_request(4, 1.0)]);
        let ticket = out[0].outcome.as_ref().expect("serves").ticket;
        assert!(service.forget(ticket));
        assert!(!service.forget(ticket));
        let retry = service.serve(vec![Request::Mutate {
            base: ticket,
            delta: InstanceDelta::new(),
        }]);
        assert!(retry[0].outcome.is_err());
    }

    #[test]
    fn a_weight_chain_shares_one_topology_and_never_recognizes_again() {
        // ... and never consults the artifact cache: the warm repair
        // builds no solver, re-priced edges included.
        use mmb_graph::recognize::recognition_count;
        let service = Service::new(ServiceConfig::new(4));
        let cold = service.serve(vec![grid_solve_request(10, 1.0)]);
        let mut ticket = cold[0].outcome.as_ref().expect("cold serves").ticket;
        let topology = Arc::clone(
            service
                .lock_memo()
                .touch(ticket)
                .expect("remembered")
                .instance
                .topology(),
        );
        // One request per batch runs on this thread, so the thread-local
        // recognition counter sees every solve.
        let after_cold = recognition_count();
        let stats = service.cache_stats();
        let mut rng = 0x5eed_c4a1u64;
        for step in 0..50u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((rng >> 33) % 100) as u32;
            let mut delta = InstanceDelta::new().set_weight(v, 1.0 + (step % 7) as f64);
            // Every fifth step also re-prices an edge, as serving churn
            // does: still no recognition and no cache lookup.
            if step % 5 == 4 {
                delta = delta.set_cost(((rng >> 17) % 180) as u32, 1.5);
            }
            let out = service.serve(vec![Request::Mutate {
                base: ticket,
                delta,
            }]);
            assert_eq!(out[0].record.cache, CacheEvent::NotConsulted, "step {step}");
            ticket = out[0].outcome.as_ref().expect("mutation serves").ticket;
            let state = service.lock_memo().touch(ticket).expect("remembered");
            assert!(Arc::ptr_eq(state.instance.topology(), &topology));
        }
        assert_eq!(recognition_count(), after_cold);
        assert_eq!(service.cache_stats(), stats);
    }

    #[test]
    fn a_malformed_delta_is_rejected_without_touching_the_cache() {
        let service = Service::new(ServiceConfig::new(2));
        let cold = service.serve(vec![grid_solve_request(4, 1.0)]);
        let ticket = cold[0].outcome.as_ref().expect("cold serves").ticket;
        let (stats, cached) = (service.cache_stats(), service.lock_cache().len());
        for delta in [
            InstanceDelta::new().set_weight(16, 1.0),
            InstanceDelta::new().set_cost(0, f64::NAN),
            InstanceDelta::new().add_edge(0, 1, 1.0),
        ] {
            let out = service.serve(vec![Request::Mutate {
                base: ticket,
                delta,
            }]);
            assert!(matches!(out[0].outcome, Err(SolveError::Instance(_))));
            assert!(!out[0].record.admitted);
            assert_eq!(out[0].record.path, ServePath::Rejected);
            assert_eq!(out[0].record.cache, CacheEvent::NotConsulted);
        }
        assert_eq!(service.cache_stats(), stats);
        assert_eq!(service.lock_cache().len(), cached);
        assert_eq!(service.known_tickets(), 1);
    }

    #[test]
    fn the_memo_evicts_the_least_recently_used_ticket() {
        let service = Service::new(ServiceConfig {
            memo_capacity: 2,
            ..ServiceConfig::new(2)
        });
        let ticket = |side| {
            service.serve(vec![grid_solve_request(side, 1.0)])[0]
                .outcome
                .as_ref()
                .expect("serves")
                .ticket
        };
        let (a, b) = (ticket(3), ticket(4));
        // A served mutation of `a` refreshes it and adds its result, so
        // `b` is now the least recently used and goes.
        let out = service.serve(vec![Request::Mutate {
            base: a,
            delta: InstanceDelta::new().set_weight(0, 2.0),
        }]);
        let a2 = out[0].outcome.as_ref().expect("a is live").ticket;
        assert_eq!(service.known_tickets(), 2);
        let lookup = |t| service.lock_memo().by_ticket.contains_key(&t);
        assert!(lookup(a) && lookup(a2) && !lookup(b));
        let rejected = service.serve(vec![Request::Mutate {
            base: b,
            delta: InstanceDelta::new(),
        }]);
        assert!(matches!(
            rejected[0].outcome,
            Err(SolveError::WarmStartMismatch { what: "ticket" })
        ));

        let none = Service::new(ServiceConfig {
            memo_capacity: 0,
            ..ServiceConfig::new(2)
        });
        assert!(none.serve(vec![grid_solve_request(3, 1.0)])[0]
            .outcome
            .is_ok());
        assert_eq!(none.known_tickets(), 0);
    }
}
