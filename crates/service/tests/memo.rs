//! Sustained-trace test of the bounded ticket memo.
//!
//! A long mixed request stream — cold solves on a few topologies,
//! mutations of live tickets, mutations of evicted ones — runs against a
//! service with a small `memo_capacity`, next to a reference LRU model of
//! which tickets the service should still remember. After every request:
//!
//! - the service remembers exactly the model's tickets, at most the cap;
//! - a mutation of a ticket the model evicted is rejected with the typed
//!   `SolveError::WarmStartMismatch { what: "ticket" }` — an evicted
//!   ticket is never served;
//! - a mutation of a live ticket is served.

use std::collections::BTreeMap;

use mmb_core::api::{InstanceDelta, SolveError};
use mmb_graph::gen::grid::GridGraph;
use mmb_service::{Request, ServePath, Service, ServiceConfig};

const CAP: usize = 16;
/// Requests in the trace: 600 in the tier-1 (debug) run, a longer trace
/// in the release CI step.
const REQUESTS: usize = if cfg!(debug_assertions) { 600 } else { 4000 };

/// splitmix64 — the trace is seeded and replayable.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(rng: &mut u64, n: usize) -> usize {
    (splitmix(rng) % n as u64) as usize
}

/// The reference LRU: tickets, least recently used first.
#[derive(Default)]
struct Model {
    order: Vec<u64>,
}

impl Model {
    fn touch(&mut self, ticket: u64) -> bool {
        match self.order.iter().position(|&t| t == ticket) {
            Some(i) => {
                let t = self.order.remove(i);
                self.order.push(t);
                true
            }
            None => false,
        }
    }

    /// Insert as most recently used; returns the evicted tickets.
    fn insert(&mut self, ticket: u64) -> Vec<u64> {
        if !self.touch(ticket) {
            self.order.push(ticket);
        }
        let excess = self.order.len().saturating_sub(CAP);
        self.order.drain(..excess).collect()
    }
}

#[test]
fn a_capped_memo_never_serves_an_evicted_ticket() {
    let service = Service::new(ServiceConfig {
        memo_capacity: CAP,
        ..ServiceConfig::new(3)
    });
    let sides = [6usize, 7, 8];
    let mut rng = 0x3e30_0017u64;
    let mut model = Model::default();
    // Every ticket ever served, with its vertex count (to draw deltas).
    let mut served: BTreeMap<u64, usize> = BTreeMap::new();
    let (mut evictions, mut rejections, mut warm) = (0usize, 0usize, 0usize);
    for step in 0..REQUESTS {
        let evicted: Vec<u64> = served
            .keys()
            .copied()
            .filter(|t| !model.order.contains(t))
            .collect();
        let roll = below(&mut rng, 10);
        if roll < 2 || model.order.is_empty() {
            // Cold solve with fresh weights on one of the topologies.
            let grid = GridGraph::lattice(&[sides[step % 3], sides[step % 3]]);
            let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
            let weights = (0..n).map(|_| 1.0 + below(&mut rng, 8) as f64).collect();
            let out = service.serve(vec![Request::Solve {
                graph: grid.graph,
                costs: vec![1.0; m],
                weights,
            }]);
            let ticket = out[0].outcome.as_ref().expect("cold solve serves").ticket;
            served.insert(ticket, n);
            evictions += model.insert(ticket).len();
        } else if roll < 4 && !evicted.is_empty() {
            let ticket = evicted[below(&mut rng, evicted.len())];
            let out = service.serve(vec![Request::Mutate {
                base: ticket,
                delta: InstanceDelta::new().set_weight(0, 2.0),
            }]);
            assert!(
                matches!(
                    out[0].outcome,
                    Err(SolveError::WarmStartMismatch { what: "ticket" })
                ),
                "step {step}: evicted ticket {ticket:#x} was not rejected"
            );
            assert_eq!(out[0].record.path, ServePath::Rejected);
            rejections += 1;
        } else {
            let base = model.order[below(&mut rng, model.order.len())];
            let n = served[&base];
            let mut delta = InstanceDelta::new();
            for _ in 0..2 {
                let v = below(&mut rng, n) as u32;
                delta = delta.set_weight(v, 1.0 + below(&mut rng, 8) as f64);
            }
            let out = service.serve(vec![Request::Mutate { base, delta }]);
            let ticket = out[0]
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("step {step}: live ticket {base:#x} refused: {e}"))
                .ticket;
            assert!(model.touch(base));
            served.insert(ticket, n);
            evictions += model.insert(ticket).len();
            warm += 1;
        }
        assert!(service.known_tickets() <= CAP, "step {step}: memo over cap");
        assert_eq!(
            service.known_tickets(),
            model.order.len(),
            "step {step}: memo and model disagree"
        );
    }
    // The trace exercised every branch many times over.
    assert!(evictions > 100, "only {evictions} evictions");
    assert!(rejections > 50, "only {rejections} rejections");
    assert!(warm > 200, "only {warm} served mutations");
    // A final sweep: exactly the model's tickets are still served.
    for (&ticket, _) in served.iter() {
        let live = model.order.contains(&ticket);
        let out = service.serve(vec![Request::Mutate {
            base: ticket,
            delta: InstanceDelta::new(),
        }]);
        assert_eq!(out[0].outcome.is_ok(), live, "ticket {ticket:#x}");
        if live {
            // The empty delta re-serves the same instance: same ticket.
            model.touch(ticket);
        }
    }
}
