//! Chaos coverage for the serving layer: the `service::admit`,
//! `service::cache`, and `service::worker` failpoint sites under seeded
//! fault schedules.
//!
//! The serving contract under faults:
//!
//! 1. **No-escape** — no panic crosses `Service::serve`; injected panics
//!    come back as that request's typed `SolveError::Panicked`.
//! 2. **Poisoned-cache** — a fault observed during the cache lookup
//!    evicts the matching entry and the request rebuilds cold; the
//!    poisoned entry is never served again (the next clean lookup is a
//!    `Miss`, not a `Hit`).
//! 3. **Validity** — every successful response is a total coloring with
//!    a consistent serving record.
//! 4. **Anti-vacuous** — the schedules actually fire; a sweep that
//!    injects zero faults tests nothing and fails.
//!
//! Failpoint schedules are thread-local, so every armed serve runs under
//! `rayon::with_num_threads(1, ..)` — the shim executes singleton
//! batches inline on the arming thread.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mmb_core::api::InstanceDelta;
use mmb_core::failpoint::{with_faults, FaultAction, FaultSchedule, SERVICE_SITES};
use mmb_graph::gen::grid::GridGraph;
use mmb_service::{CacheEvent, Request, ServePath, Service, ServiceConfig};

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

/// Serve a batch with a fault schedule armed, inline on this thread.
fn serve_armed(
    service: &Service,
    schedule: &FaultSchedule,
    batch: Vec<Request>,
) -> (Vec<mmb_service::Response>, usize) {
    let (out, log) = rayon::with_num_threads(1, || with_faults(schedule, || service.serve(batch)));
    (out, log.len())
}

#[test]
fn poisoned_cache_entry_is_evicted_never_served() {
    let service = Service::new(ServiceConfig::new(4));

    // Warm the cache with a clean solve.
    let cold = service.serve(vec![grid_solve_request(8, 1.0)]);
    assert_eq!(cold[0].record.cache, CacheEvent::Miss);
    assert!(cold[0].outcome.is_ok());

    // Same topology under a cache fault: the lookup is poisoned, the
    // warm entry must be evicted, and the request rebuilds cold — still
    // served, because a poisoned cache is an internal event, not a
    // client error.
    let schedule = FaultSchedule::new().once("service::cache", 0, FaultAction::Transient);
    let evictions_before = service.cache_stats().evictions;
    let (poisoned, injected) = serve_armed(&service, &schedule, vec![grid_solve_request(8, 2.0)]);
    assert!(injected > 0, "anti-vacuous: the cache fault never fired");
    assert_eq!(poisoned[0].record.cache, CacheEvent::Poisoned);
    let served = poisoned[0]
        .outcome
        .as_ref()
        .expect("poisoned lookup still serves");
    assert!(served.coloring.is_total());
    assert!(
        service.cache_stats().evictions > evictions_before,
        "the poisoned entry must be evicted"
    );

    // Clean traffic after the eviction: the poisoned entry is gone (the
    // lookup misses), and only the freshly inserted entry is served.
    let after = service.serve(vec![grid_solve_request(8, 3.0)]);
    assert_eq!(
        after[0].record.cache,
        CacheEvent::Miss,
        "poisoned entry must not be served as a hit"
    );
    let again = service.serve(vec![grid_solve_request(8, 4.0)]);
    assert_eq!(again[0].record.cache, CacheEvent::Hit);
}

#[test]
fn injected_panics_are_contained_per_request() {
    let service = Service::new(ServiceConfig::new(3));
    for site in SERVICE_SITES {
        let schedule = FaultSchedule::new().once(site, 0, FaultAction::Panic);
        let (out, injected) = serve_armed(&service, &schedule, vec![grid_solve_request(6, 1.0)]);
        assert!(injected > 0, "anti-vacuous: no fault fired at {site}");
        let err = out[0].outcome.as_ref().expect_err("panic must reject");
        assert!(
            matches!(err, mmb_core::api::SolveError::Panicked { .. }),
            "panic at {site} must surface as Panicked, got {err:?}"
        );
        assert_eq!(out[0].record.path, ServePath::Rejected);
        // The service survives: the next clean request serves normally.
        let next = service.serve(vec![grid_solve_request(6, 2.0)]);
        assert!(
            next[0].outcome.is_ok(),
            "service poisoned after {site} panic"
        );
    }
}

#[test]
fn admit_transient_is_a_typed_rejection() {
    let service = Service::new(ServiceConfig::new(2));
    let schedule = FaultSchedule::new().once("service::admit", 0, FaultAction::Transient);
    let (out, injected) = serve_armed(&service, &schedule, vec![grid_solve_request(4, 1.0)]);
    assert!(injected > 0);
    assert!(matches!(
        out[0].outcome,
        Err(mmb_core::api::SolveError::Transient {
            site: "service::admit"
        })
    ));
    assert!(!out[0].record.admitted);
    assert_eq!(out[0].record.cache, CacheEvent::NotConsulted);
}

#[test]
fn seeded_service_chaos_sweep_holds_the_contract() {
    let mut total_injected = 0usize;
    for seed in 0..12u64 {
        let service = Service::new(ServiceConfig::new(4));
        // A clean incumbent so the sweep exercises the mutate path too.
        let cold = service.serve(vec![grid_solve_request(8, 1.0)]);
        let ticket = cold[0].outcome.as_ref().expect("clean solve serves").ticket;

        let schedule = FaultSchedule::chaos_over(seed, SERVICE_SITES);
        let batch = vec![
            grid_solve_request(8, 2.0),
            Request::Mutate {
                base: ticket,
                delta: InstanceDelta::new().set_weight(3, 5.0),
            },
            grid_solve_request(6, 1.0),
            Request::Mutate {
                base: 0x000b_ad71_cce7, // unknown ticket: typed rejection even under faults
                delta: InstanceDelta::new(),
            },
        ];
        // No-escape prong: the whole armed serve must return normally.
        #[expect(
            clippy::disallowed_methods,
            reason = "the test catches any panic that escapes `Service::serve`"
        )]
        let witness = rayon::with_num_threads(1, || {
            with_faults(&schedule, || {
                catch_unwind(AssertUnwindSafe(|| service.serve(batch)))
            })
        });
        let (outcome, log) = witness;
        total_injected += log.len();
        let responses = outcome.expect("panic escaped Service::serve");
        assert_eq!(responses.len(), 4);
        for resp in &responses {
            match &resp.outcome {
                Ok(served) => {
                    assert!(served.coloring.is_total());
                    assert!(served.max_boundary.is_finite());
                    assert!(
                        !matches!(resp.record.path, ServePath::Rejected),
                        "served response with a Rejected record"
                    );
                }
                Err(_) => {
                    assert_eq!(resp.record.path, ServePath::Rejected);
                }
            }
            assert!(resp.record.elapsed_millis >= 0.0);
        }
    }
    assert!(
        total_injected > 0,
        "anti-vacuous: the seeded sweep injected nothing"
    );
}
