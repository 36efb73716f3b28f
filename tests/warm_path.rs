//! Warm-vs-cold differential suite: the warm path must be a pure
//! acceleration, never a quality or correctness regression.
//!
//! Over every quick-corpus entry:
//!
//! - `Solver::resolve_delta` under seeded weight (and occasional cost)
//!   churn serves a total, strictly balanced coloring whose cost is no
//!   worse than a from-scratch solve of the mutated instance (up to fp
//!   tolerance).
//! - A solver built from cached artifacts (cache hit) produces a coloring
//!   bit-identical to one built cold (cache miss) — reusing a recognition
//!   verdict, even one taken on another cost profile's instance of the
//!   same topology, must not perturb a single decision downstream.
//! - The warm entry point `api::resolve_delta` and the solver method
//!   report the same typed errors in the same precedence.

use std::collections::BTreeSet;

use mmb_core::api::{self, CacheLookup, InstanceError};
use mmb_core::prelude::*;
use mmb_graph::Coloring;
use mmb_instances::corpus::Corpus;

/// splitmix64 — seeded churn, replayable.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn entry_config(p: f64) -> PipelineConfig {
    PipelineConfig {
        p: p.max(1.5),
        ..PipelineConfig::default()
    }
}

#[test]
fn resolve_delta_matches_fresh_solves_across_the_corpus() {
    let corpus = Corpus::quick();
    let mut seed = 0x5eed_0001u64;
    let mut warm_serves = 0usize;
    for e in &corpus {
        let inst = &e.instance;
        let n = inst.num_vertices();
        let cfg = entry_config(e.p);
        let solver = Solver::for_instance(inst)
            .classes(e.k)
            .config(cfg.clone())
            .build()
            .unwrap_or_else(|err| panic!("{}: base build failed: {err}", e.name));
        let base = solver.solve();

        // Seeded churn: three weight moves, one cost re-price.
        let mut delta = InstanceDelta::new();
        for _ in 0..3 {
            let v = (splitmix(&mut seed) % n as u64) as u32;
            let w = 0.5 + (splitmix(&mut seed) % 1000) as f64 / 500.0;
            delta = delta.set_weight(v, w);
        }
        let m = inst.graph().num_edges();
        let ec = (splitmix(&mut seed) % m as u64) as u32;
        delta = delta.set_cost(ec, inst.costs()[ec as usize] * 1.25);

        let warm = solver
            .resolve_delta(&delta, &base.coloring)
            .unwrap_or_else(|err| panic!("{}: resolve_delta failed: {err}", e.name));
        if warm.warm {
            warm_serves += 1;
        }

        // Validity: total, strictly balanced, consistent cost accounting.
        assert!(
            warm.coloring.is_total(),
            "{}: partial warm coloring",
            e.name
        );
        assert!(
            warm.coloring.is_strictly_balanced(warm.instance.weights()),
            "{}: warm coloring violates strict balance",
            e.name
        );
        let recomputed = warm
            .coloring
            .max_boundary_cost(warm.instance.graph(), warm.instance.costs());
        assert!(
            (recomputed - warm.max_boundary).abs() <= 1e-9 * recomputed.max(1.0),
            "{}: served cost {} disagrees with recomputation {}",
            e.name,
            warm.max_boundary,
            recomputed
        );

        // Quality: no worse than solving the mutated instance cold.
        let fresh = Solver::for_instance(&warm.instance)
            .classes(e.k)
            .config(cfg)
            .build()
            .unwrap_or_else(|err| panic!("{}: fresh build failed: {err}", e.name))
            .solve();
        assert!(
            warm.max_boundary <= fresh.max_boundary * (1.0 + 1e-9),
            "{}: warm re-solve cost {} worse than fresh {}",
            e.name,
            warm.max_boundary,
            fresh.max_boundary
        );
    }
    assert!(
        warm_serves * 2 >= corpus.len(),
        "warm repair path taken on only {warm_serves}/{} entries — the suite \
         is mostly testing the cold fallback",
        corpus.len()
    );
}

#[test]
fn cache_hit_solves_are_bit_identical_to_cache_miss_solves() {
    let corpus = Corpus::quick();
    let mut cache = SolverCache::new(corpus.len());
    let mut keys = BTreeSet::new();
    let mut cross_profile_hits = 0usize;
    for e in &corpus {
        let inst = &e.instance;
        let cfg = entry_config(e.p);

        // Cold: no artifacts.
        let cold = Solver::for_instance(inst)
            .classes(e.k)
            .config(cfg.clone())
            .build()
            .unwrap_or_else(|err| panic!("{}: cold build failed: {err}", e.name))
            .solve();

        // The first lookup misses only on a topology (and `p`) not seen
        // yet: the second cost profile of a family hits the first's
        // entry. The second lookup always hits.
        let new_key = keys.insert((inst.fingerprint().structure, cfg.p.to_bits()));
        let (_, first) = cache.get_or_compute(inst, cfg.p);
        let expected = if new_key {
            CacheLookup::Miss
        } else {
            CacheLookup::Hit
        };
        assert_eq!(first, expected, "{}: first lookup", e.name);
        cross_profile_hits += usize::from(!new_key);
        let (artifacts, second) = cache.get_or_compute(inst, cfg.p);
        assert_eq!(
            second,
            CacheLookup::Hit,
            "{}: expected a warm lookup",
            e.name
        );

        let warm = Solver::for_instance(inst)
            .classes(e.k)
            .config(cfg)
            .artifacts(artifacts)
            .build()
            .unwrap_or_else(|err| panic!("{}: warm build failed: {err}", e.name))
            .solve();

        assert_eq!(
            cold.coloring, warm.coloring,
            "{}: artifact reuse changed the coloring",
            e.name
        );
        assert_eq!(
            cold.max_boundary.to_bits(),
            warm.max_boundary.to_bits(),
            "{}: artifact reuse changed the served cost",
            e.name
        );
    }
    assert!(
        cross_profile_hits > 0,
        "no entry shared a topology with an earlier one: the cross-profile hit is untested"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, keys.len());
    assert_eq!(stats.hits as usize, 2 * corpus.len() - keys.len());
    assert_eq!(stats.collisions, 0);
}

/// Run one warm re-solve through both entry points — the free
/// `api::resolve_delta` and a built solver's method — and require the
/// same typed error from each (`Debug` text, so a NaN exponent compares).
fn warm_error(
    inst: &Instance,
    k: usize,
    p: f64,
    delta: &InstanceDelta,
    previous: &Coloring,
) -> SolveError {
    let cfg = PipelineConfig {
        p,
        ..PipelineConfig::default()
    };
    let free = api::resolve_delta(inst, k, &cfg, delta, previous);
    let method = Solver::for_instance(inst)
        .classes(k)
        .config(cfg.clone())
        .build()
        .and_then(|solver| solver.resolve_delta(delta, previous));
    let (Err(a), Err(b)) = (free, method) else {
        panic!("k = {k}, p = {p}: expected both entry points to fail");
    };
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "k = {k}, p = {p}");
    a
}

#[test]
fn warm_start_errors_are_typed_and_ordered_alike_on_both_entry_points() {
    let corpus = Corpus::quick();
    let inst = &corpus.entries()[0].instance;
    let n = inst.num_vertices();
    let good = Coloring::new_uncolored(n, 2);
    let wrong_k = Coloring::new_uncolored(n, 3);
    let wrong_n = Coloring::new_uncolored(n - 1, 2);
    let ok_delta = InstanceDelta::new().set_weight(0, 2.0);
    let bad_delta = InstanceDelta::new().set_weight(n as u32, 1.0);
    let out_of_range = SolveError::Instance(InstanceError::VertexOutOfRange { got: n as u32, n });

    // Each failure alone.
    assert_eq!(
        warm_error(inst, 0, 2.0, &ok_delta, &good),
        SolveError::ZeroColors
    );
    for p in [f64::NAN, 0.5] {
        let err = warm_error(inst, 2, p, &ok_delta, &good);
        assert!(
            matches!(err, SolveError::InvalidExponent { p: got } if got.to_bits() == p.to_bits()),
            "p = {p}: {err:?}"
        );
    }
    assert_eq!(
        warm_error(inst, 2, 2.0, &ok_delta, &wrong_k),
        SolveError::WarmStartMismatch { what: "k" }
    );
    assert_eq!(
        warm_error(inst, 2, 2.0, &ok_delta, &wrong_n),
        SolveError::WarmStartMismatch { what: "n" }
    );
    assert_eq!(warm_error(inst, 2, 2.0, &bad_delta, &good), out_of_range);

    // Precedence: ZeroColors, InvalidExponent, k, n, then the delta.
    let k_and_n = Coloring::new_uncolored(n - 1, 3);
    assert_eq!(
        warm_error(inst, 0, f64::NAN, &bad_delta, &k_and_n),
        SolveError::ZeroColors
    );
    assert!(matches!(
        warm_error(inst, 2, 0.5, &bad_delta, &k_and_n),
        SolveError::InvalidExponent { .. }
    ));
    assert_eq!(
        warm_error(inst, 2, 2.0, &bad_delta, &k_and_n),
        SolveError::WarmStartMismatch { what: "k" }
    );
    assert_eq!(
        warm_error(inst, 2, 2.0, &bad_delta, &wrong_n),
        SolveError::WarmStartMismatch { what: "n" }
    );
}
