//! Canonical, seeded-deterministic fingerprints for graphs and instances.
//!
//! A [`Fingerprint`] is the identity the serving layer keys on: three
//! 64-bit digests — one over the graph *structure* (vertex count, edge
//! count, canonical edge list), one over the edge costs, one over the
//! vertex weights — computed by a fixed-seed splitmix64 stream fold. The
//! split matters downstream: solver artifacts (`mmb-core`'s
//! `SolverCache`, holding the recognition verdict) depend on the
//! structure alone, so weight and cost mutations keep a cache entry hot,
//! while [`Fingerprint::combined`] names the whole instance (the
//! `mmb-service` ticket).
//!
//! ## Canonicality
//!
//! [`Graph`] stores its edges canonically — `u < v`, sorted, deduplicated —
//! so two graphs built from the same edge multiset in any insertion order
//! share one [`Graph::edge_list`] bit for bit, and therefore one structure
//! digest. In particular a METIS serialize → re-ingest round-trip is
//! fingerprint-stable by construction (tested in `tests/fingerprint.rs` at
//! the workspace root).
//!
//! ## Determinism
//!
//! The digest is a fixed-seed stream: no `RandomState`, no per-process
//! keys, no pointer identity. Same inputs, same fingerprint — across
//! threads, processes and scratch policies. Floats contribute their exact
//! IEEE-754 bit patterns ([`f64::to_bits`]), so digests distinguish `0.0`
//! from `-0.0` and never hit NaN comparison traps.
//!
//! A fingerprint is a *filter*, not a proof: 64-bit digests can collide,
//! so every cache consumer confirms a hit by full comparison against the
//! stored graph before reusing anything (see
//! `SolverArtifacts::matches` in `mmb-core`).

use crate::graph::Graph;

/// Fixed digest seed ("mmb-fp01" as ASCII); bump to invalidate every
/// persisted fingerprint if the digest scheme ever changes.
const SEED: u64 = 0x6d6d_622d_6670_3031;

/// A seeded streaming hash: splitmix64 applied to `state ^ word` per
/// 64-bit word. Not cryptographic — a fast scatter whose collisions are
/// caught by the full comparison cache hits always perform.
#[derive(Clone, Copy, Debug)]
struct Digest {
    state: u64,
}

impl Digest {
    fn new(domain: u64) -> Self {
        Digest {
            state: SEED ^ domain,
        }
    }

    fn mix(&mut self, word: u64) {
        // splitmix64 (Steele, Lea & Flood 2014) — the same tiny mixer the
        // failpoint chaos schedules use.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15 ^ word);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
    }

    fn finish(self) -> u64 {
        let mut d = self;
        d.mix(0x6669_6e69_7368_6564); // "finished"
        d.state
    }
}

/// The canonical fingerprint of a weighted instance: structure, cost and
/// weight digests, separable so consumers can key on exactly the parts
/// their cached data depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Digest of `(n, m, canonical edge list)`.
    pub structure: u64,
    /// Digest of the edge-cost vector (exact IEEE-754 bits).
    pub costs: u64,
    /// Digest of the vertex-weight vector (exact IEEE-754 bits).
    pub weights: u64,
}

impl Fingerprint {
    /// Fingerprint a full instance triple. `O(n + m)`.
    pub fn of_parts(g: &Graph, costs: &[f64], weights: &[f64]) -> Self {
        Fingerprint {
            structure: structure_digest(g),
            costs: cost_digest(costs),
            weights: weight_digest(weights),
        }
    }

    /// All three digests folded into one word — the "whole instance"
    /// identity a serving layer can hand out as a ticket.
    pub fn combined(&self) -> u64 {
        let mut d = Digest::new(4);
        d.mix(self.structure);
        d.mix(self.costs);
        d.mix(self.weights);
        d.finish()
    }
}

/// Digest of the graph structure alone: `n`, `m`, then every canonical
/// edge as one packed word. `O(m)`.
pub fn structure_digest(g: &Graph) -> u64 {
    let mut d = Digest::new(0);
    d.mix(g.num_vertices() as u64);
    d.mix(g.num_edges() as u64);
    for &(u, v) in g.edge_list() {
        d.mix(((u as u64) << 32) | v as u64);
    }
    d.finish()
}

/// The [`Fingerprint::costs`] part alone, for a consumer that already
/// holds the other parts. `O(m)`.
pub fn cost_digest(costs: &[f64]) -> u64 {
    measure_digest(1, costs)
}

/// The [`Fingerprint::weights`] part alone. `O(n)`.
pub fn weight_digest(weights: &[f64]) -> u64 {
    measure_digest(2, weights)
}

/// Digest of one measure vector (costs, weights, or an extra measure),
/// domain-tagged so equal vectors in different roles do not collide
/// trivially.
pub fn measure_digest(domain: u64, xs: &[f64]) -> u64 {
    let mut d = Digest::new(domain);
    d.mix(xs.len() as u64);
    for &x in xs {
        d.mix(x.to_bits());
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid::GridGraph;
    use crate::gen::misc::path;
    use crate::graph::{graph_from_edges, GraphBuilder};

    #[test]
    fn identical_inputs_share_a_fingerprint() {
        let g = path(12);
        let costs = vec![1.5; 11];
        let weights: Vec<f64> = (0..12).map(|v| v as f64).collect();
        assert_eq!(
            Fingerprint::of_parts(&g, &costs, &weights),
            Fingerprint::of_parts(&g, &costs, &weights)
        );
    }

    #[test]
    fn insertion_order_cannot_change_the_structure_digest() {
        // CSR canonicalization makes this hold by construction; the test
        // pins it against a representation change.
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3)];
        let fwd = graph_from_edges(4, &edges);
        let mut b = GraphBuilder::new(4);
        for &(u, v) in edges.iter().rev() {
            b.add_edge(v, u); // reversed order AND swapped endpoints
        }
        assert_eq!(structure_digest(&fwd), structure_digest(&b.build()));
    }

    #[test]
    fn each_component_responds_only_to_its_input() {
        let g = GridGraph::lattice(&[4, 4]).graph;
        let m = g.num_edges();
        let costs = vec![1.0; m];
        let weights = vec![1.0; 16];
        let base = Fingerprint::of_parts(&g, &costs, &weights);

        let mut w2 = weights.clone();
        w2[3] = 7.0;
        let fp_w = Fingerprint::of_parts(&g, &costs, &w2);
        assert_eq!(fp_w.structure, base.structure);
        assert_eq!(fp_w.costs, base.costs);
        assert_ne!(fp_w.weights, base.weights);
        assert_ne!(fp_w.combined(), base.combined());

        let mut c2 = costs.clone();
        c2[0] = 2.0;
        let fp_c = Fingerprint::of_parts(&g, &c2, &weights);
        assert_eq!(fp_c.structure, base.structure);
        assert_ne!(fp_c.costs, base.costs);
    }

    #[test]
    fn distinct_structures_get_distinct_digests() {
        // Not a collision-resistance proof — a smoke check over a family
        // sweep that the digest actually uses its input.
        let mut seen = std::collections::BTreeSet::new();
        for dims in [[2usize, 2], [2, 3], [3, 3], [4, 4], [2, 8], [8, 2]] {
            assert!(seen.insert(structure_digest(&GridGraph::lattice(&dims).graph)));
        }
        for n in [3usize, 5, 9, 17] {
            assert!(seen.insert(structure_digest(&path(n))));
        }
    }

    #[test]
    fn float_bit_patterns_are_distinguished() {
        assert_ne!(measure_digest(1, &[0.0]), measure_digest(1, &[-0.0]));
        assert_ne!(
            measure_digest(1, &[1.0, 2.0]),
            measure_digest(1, &[2.0, 1.0])
        );
        assert_ne!(measure_digest(1, &[]), measure_digest(1, &[0.0]));
    }
}
