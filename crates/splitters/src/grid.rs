//! GridSplit — the separator theorem for `d`-dimensional grid graphs with
//! arbitrary edge costs (Section 6, Theorem 19).
//!
//! The algorithm follows the paper's `GridSplit` procedure exactly:
//!
//! 1. Scale costs so the minimum positive cost is 1 (then the fluctuation is
//!    `φ = ‖c‖_∞`).
//! 2. Pick the cell side `ℓ = max(⌈(‖c‖₁/d)^{1/d}⌉, 1)` and the cheapest of
//!    the `ℓ` shifted coarsenings `ϕ_α^{(ℓ)}(a) = ⌊(a + (α−1)·1)/ℓ⌋`
//!    (Lemma 20: the cheapest has coarse cost `‖c/ϕ‖₁ ≤ ‖c‖₁/ℓ`, because
//!    every grid edge is cut by exactly one shift `α`).
//! 3. Order the cells lexicographically, take whole cells while they fit
//!    under the splitting value (a *monotone* prefix — Lemmas 21–24), and
//!    recurse into the straddling cell with reduced costs
//!    `c′ = (c − 1)/2`, discarding edges of cost ≤ 1.
//! 4. When `ℓ = 1` the coarse graph is the grid itself; a lexicographic
//!    vertex prefix finishes the job.
//!
//! Costs halve per level, so there are `O(log φ)` levels (Lemma 27) and the
//! returned set costs `O(d·log^{1/d}(φ+1)·‖c‖_{d/(d−1)})` (Theorem 19).

use std::cell::RefCell;
#[expect(
    clippy::disallowed_types,
    reason = "per-shift sums and cell grouping; see the iteration sites for why order never leaks"
)]
use std::collections::HashMap;

use mmb_graph::gen::grid::GridGraph;
use mmb_graph::workspace::{scratch_mode, ScratchMode};
use mmb_graph::{VertexId, VertexSet};

use crate::{prefix_split, Splitter};

/// Reusable per-thread buffers of the fast `split` path: one split call
/// makes `O(levels)` uses of each, and a solve makes thousands of split
/// calls, so pulling these out of the call eliminates the per-call malloc
/// traffic entirely.
#[derive(Default)]
struct SplitScratch {
    members: Vec<VertexId>,
    edges: Vec<(i64, f64)>,
    #[expect(
        clippy::disallowed_types,
        reason = "sparse per-shift sums, reduced only by `pick_alpha`"
    )]
    per_alpha: HashMap<i64, f64>,
    alpha_dense: Vec<f64>,
    keyed: Vec<(u64, u32, VertexId)>,
    keys_buf: Vec<u32>,
    counts: Vec<u32>,
    grouped: Vec<VertexId>,
    extents: Vec<u64>,
    shifts: Vec<u64>,
}

thread_local! {
    static SPLIT_SCRATCH: RefCell<SplitScratch> = RefCell::default();
}

/// `val / ell` for `val < 2^51` via reciprocal multiplication with an
/// exact fixup — the packed-key hot loop's division.
#[inline]
fn udiv_rcp(val: u64, ell: u64, inv: f64) -> u64 {
    let mut q = (val as f64 * inv) as u64;
    // The estimate is within a couple of ulps of the true quotient; the
    // saturating loops make the result exact regardless.
    while (q + 1).saturating_mul(ell) <= val {
        q += 1;
    }
    while q.saturating_mul(ell) > val {
        q -= 1;
    }
    q
}

/// Splitting sets for grid graphs with arbitrary positive edge costs.
pub struct GridSplitter<'g> {
    grid: &'g GridGraph,
    /// Costs scaled so the minimum positive cost is 1 (zero costs stay 0,
    /// they are free to cut and vanish after the first level).
    scaled: Vec<f64>,
    /// Rank of each vertex in the lexicographic coordinate order —
    /// `sort_unstable_by_key(lex_rank)` replaces comparator sorts over
    /// coordinate slices in the hot path.
    lex_rank: Vec<u32>,
    /// Per-axis coordinate minima/maxima of the whole instance.
    mins: Vec<i64>,
    /// See [`GridSplitter::mins`].
    maxs: Vec<i64>,
    /// Global coordinate bounds over all axes (`min(mins)` / `max(maxs)`).
    coord_lo: i64,
    /// See [`GridSplitter::coord_lo`].
    coord_hi: i64,
    /// Whether `Π (max_a − min_a + 2)` fits in `u64`, i.e. cell keys of
    /// every coarsening level pack into one machine word. (False only for
    /// astronomically spread-out point sets; those route to the legacy
    /// path.)
    pack_safe: bool,
    /// `‖scaled‖_∞`: the first level `L` with `(c_max + 1)/2^L − 1 ≤ 0`
    /// has **no** surviving edges, so the fast path can skip its edge scan
    /// (`c1 = 0` exactly) and go straight to the lexicographic prefix.
    max_scaled: f64,
    /// Per edge: the smaller coordinate along the (unique) axis the edge
    /// spans — the `t` of the Lemma 20 shift accounting, precomputed so
    /// the hot scan does one load instead of two coordinate lookups.
    edge_t: Vec<i64>,
    /// Whether every scaled cost is exactly 1.0 (unit-cost instances):
    /// the scan then skips the cost load entirely.
    uniform_cost: bool,
    name: &'static str,
}

impl<'g> GridSplitter<'g> {
    /// Bind to a grid graph and its edge costs.
    pub fn new(grid: &'g GridGraph, costs: &[f64]) -> Self {
        assert_eq!(
            costs.len(),
            grid.graph.num_edges(),
            "cost vector length mismatch"
        );
        assert!(
            costs.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "costs must be finite and >= 0"
        );
        let cmin = costs
            .iter()
            .copied()
            .filter(|&c| c > 0.0)
            .fold(f64::INFINITY, f64::min);
        let scaled = if cmin.is_finite() && cmin > 0.0 {
            costs.iter().map(|&c| c / cmin).collect()
        } else {
            costs.to_vec()
        };
        Self::finish(grid, scaled, "gridsplit")
    }

    /// The naive unit-cost variant: ignores the actual costs when choosing
    /// cuts (the `σ_p(G, c) ≤ σ_p(G, 1)·φ` generalization the paper calls
    /// out as wasteful; ablation experiment E9).
    pub fn unit_cost(grid: &'g GridGraph) -> Self {
        Self::finish(grid, vec![1.0; grid.graph.num_edges()], "gridsplit/unit")
    }

    /// Shared construction tail: precompute the lex ranks and coordinate
    /// bounds the fast path keys off. `O(n log n)` once per splitter,
    /// amortized across every `split` call of a solver's lifetime.
    fn finish(grid: &'g GridGraph, scaled: Vec<f64>, name: &'static str) -> Self {
        let n = grid.graph.num_vertices();
        let d = grid.dim;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| grid.coord(a).cmp(grid.coord(b)));
        let mut lex_rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            lex_rank[v as usize] = r as u32;
        }
        let mut mins = vec![i64::MAX; d];
        let mut maxs = vec![i64::MIN; d];
        for v in 0..n as u32 {
            for (a, &x) in grid.coord(v).iter().enumerate() {
                mins[a] = mins[a].min(x);
                maxs[a] = maxs[a].max(x);
            }
        }
        // Fast-path eligibility: per-axis cell ranges must pack into a
        // u64 product, and absolute coordinate magnitudes must leave
        // headroom for the shift arithmetic (`x + α − 1`, `base =
        // (hi/ℓ + 1)·ℓ` with `ℓ ≤ 2^40`) — i64 overflow near the extremes
        // routes to the legacy path instead.
        let pack_safe = n > 0
            && mins
                .iter()
                .zip(&maxs)
                .try_fold(1u128, |acc, (&lo, &hi)| {
                    acc.checked_mul((hi as i128 - lo as i128) as u128 + 2)
                })
                .is_some_and(|p| p <= u64::MAX as u128)
            && mins.iter().all(|&lo| lo > i64::MIN / 4)
            && maxs.iter().all(|&hi| hi < i64::MAX / 4);
        let max_scaled = scaled.iter().copied().fold(0.0f64, f64::max);
        let coord_lo = mins.iter().copied().min().unwrap_or(0);
        let coord_hi = maxs.iter().copied().max().unwrap_or(0);
        let edge_t = grid
            .graph
            .edge_list()
            .iter()
            .map(|&(u, v)| {
                let (cu, cv) = (grid.coord(u), grid.coord(v));
                let axis = (0..d)
                    .find(|&a| cu[a] != cv[a])
                    .expect("edge endpoints share coords");
                cu[axis].min(cv[axis])
            })
            .collect();
        #[expect(
            clippy::float_cmp,
            reason = "1.0 is exactly representable; this is a fast-path dispatch on the scaler's exact sentinel, not arithmetic"
        )]
        let uniform_cost = scaled.iter().all(|&c| c == 1.0);
        Self {
            grid,
            scaled,
            lex_rank,
            mins,
            maxs,
            coord_lo,
            coord_hi,
            pack_safe,
            max_scaled,
            edge_t,
            uniform_cost,
            name,
        }
    }

    /// Effective cost of edge `e` at recursion `level`:
    /// `c_L = (c + 1)/2^L − 1`; the edge is present iff `c_L > 0`
    /// (level 0 keeps every edge).
    #[inline]
    fn level_cost(&self, e: u32, level: u32) -> f64 {
        let c = self.scaled[e as usize];
        (c + 1.0) / (1u64 << level.min(62)) as f64 - 1.0
    }

    /// [`GridSplitter::pick_alpha`] over the dense per-shift sums
    /// (`sums[a − 1]` = cut cost of shift `a`; positive costs mean an
    /// untouched shift is exactly `0.0`). Same selection rule: first uncut
    /// shift if any, else cheapest with smallest-α tie-break.
    fn pick_alpha_dense(sums: &[f64]) -> i64 {
        if let Some(i) = sums.iter().position(|&s| s == 0.0) {
            return i as i64 + 1;
        }
        let mut best = 0usize;
        for (i, &s) in sums.iter().enumerate() {
            if s < sums[best] {
                best = i;
            }
        }
        best as i64 + 1
    }

    /// The cheapest shift α (ties to the smallest α so two splitters built
    /// from the same instance always cut identically), or any uncut shift.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "min under total_cmp with the α tie-break is iteration-order independent"
    )]
    fn pick_alpha(per_alpha: &HashMap<i64, f64>, ell: i64) -> i64 {
        if (per_alpha.len() as i64) < ell {
            // Some shift cuts nothing at all.
            (1..=ell)
                .find(|a| !per_alpha.contains_key(a))
                .expect("len < ell guarantees an uncut shift")
        } else {
            *per_alpha
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .map(|(a, _)| a)
                .expect("ell >= 1 shifts exist in this branch")
        }
    }

    /// The pre-overhaul coarsening (single edge pass into a scratch `Vec`,
    /// HashMap cell grouping with per-member key vectors). Kept verbatim
    /// as the [`ScratchMode::Transient`] reference so perf baselines can
    /// A/B old vs new on identical inputs.
    #[expect(
        clippy::disallowed_types,
        reason = "per-shift sums and cell grouping; the cells are sorted by key before they are returned"
    )]
    fn coarsen_legacy(&self, members: &[VertexId], level: u32) -> Option<Vec<Vec<VertexId>>> {
        let d = self.grid.dim;
        let in_s = VertexSet::from_iter(self.grid.graph.num_vertices(), members.iter().copied());

        // Inner edges with positive current cost, described by the axis they
        // span and the smaller coordinate along it.
        let mut c1 = 0.0f64;
        let mut edges: Vec<(i64, f64)> = Vec::new(); // (min coordinate on the differing axis, cost)
        for &v in members {
            for &(nb, e) in self.grid.graph.neighbors(v) {
                if nb <= v || !in_s.contains(nb) {
                    continue;
                }
                let cur = if level == 0 {
                    self.scaled[e as usize]
                } else {
                    self.level_cost(e, level)
                };
                if cur <= 0.0 {
                    continue;
                }
                c1 += cur;
                let (cv, cn) = (self.grid.coord(v), self.grid.coord(nb));
                let axis = (0..d)
                    .find(|&a| cv[a] != cn[a])
                    .expect("edge endpoints share coords");
                edges.push((cv[axis].min(cn[axis]), cur));
            }
        }

        let ell = ((c1 / d as f64).powf(1.0 / d as f64).ceil() as i64).max(1);
        // Guard against pathological cost magnitudes.
        let ell = ell.min(1 << 40);
        if ell <= 1 {
            return None;
        }

        // Lemma 20: each edge is cut by exactly one shift α ∈ [1, ℓ];
        // accumulate per-shift cost sparsely and pick the cheapest.
        let mut per_alpha: HashMap<i64, f64> = HashMap::new();
        for &(t, cost) in edges.iter() {
            let mut alpha = (-t).rem_euclid(ell);
            if alpha == 0 {
                alpha = ell;
            }
            *per_alpha.entry(alpha).or_insert(0.0) += cost;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "min under total_cmp with the α tie-break is iteration-order independent"
        )]
        let alpha = if (per_alpha.len() as i64) < ell {
            // Some shift cuts nothing at all.
            (1..=ell)
                .find(|a| !per_alpha.contains_key(a))
                .expect("len < ell guarantees an uncut shift")
        } else {
            // Cheapest shift, ties broken by smallest α so two splitters
            // built from the same instance always cut identically.
            *per_alpha
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .map(|(a, _)| a)
                .expect("ell >= 1 shifts exist in this branch")
        };

        // Assign members to cells ϕ_α(x) = ⌊(x + (α−1)·1)/ℓ⌋.
        let mut cell_map: HashMap<Vec<i64>, Vec<VertexId>> = HashMap::new();
        for &v in members {
            let key: Vec<i64> = self
                .grid
                .coord(v)
                .iter()
                .map(|&x| (x + alpha - 1).div_euclid(ell))
                .collect();
            cell_map.entry(key).or_default().push(v);
        }
        let mut keyed: Vec<(Vec<i64>, Vec<VertexId>)> = cell_map.into_iter().collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Some(keyed.into_iter().map(|(_, vs)| vs).collect())
    }

    /// Lexicographic order of `members` by coordinates (the ℓ = 1 case).
    fn lex_order(&self, members: &mut [VertexId]) {
        members.sort_unstable_by(|&a, &b| self.grid.coord(a).cmp(self.grid.coord(b)));
    }

    /// The pre-overhaul `split` loop over [`GridSplitter::coarsen_legacy`]:
    /// per-level cell materialization with per-member key allocations.
    /// Kept as the [`ScratchMode::Transient`] perf-baseline reference (and
    /// the fallback for point sets whose coordinate spread defeats key
    /// packing).
    fn split_legacy(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        let n = self.grid.graph.num_vertices();
        let mut members: Vec<VertexId> = w_set.iter().collect();
        let total: f64 = members.iter().map(|&v| weights[v as usize]).sum();
        let mut rem = target.clamp(0.0, total);
        let mut taken = VertexSet::empty(n);
        let mut level = 0u32;

        loop {
            match self.coarsen_legacy(&members, level) {
                None => {
                    // ℓ = 1: lexicographic vertex prefix within the cell.
                    self.lex_order(&mut members);
                    let local = prefix_split(n, &members, weights, rem);
                    taken.union_with(&local);
                    return taken;
                }
                Some(cells) => {
                    // Take whole cells in lex order while they fit; recurse
                    // into the straddling cell.
                    let mut straddle: Option<Vec<VertexId>> = None;
                    for cell in cells {
                        let wcell: f64 = cell.iter().map(|&v| weights[v as usize]).sum();
                        if straddle.is_none() && wcell <= rem {
                            rem -= wcell;
                            for &v in &cell {
                                taken.insert(v);
                            }
                        } else if straddle.is_none() {
                            straddle = Some(cell);
                        }
                        // Cells after the straddling one are left out.
                    }
                    match straddle {
                        None => return taken, // everything fit (rem ≈ 0 now)
                        Some(cell) => {
                            members = cell;
                            level += 1;
                        }
                    }
                }
            }
        }
    }

    /// The overhauled `split` loop: counting-sort cell grouping over
    /// packed `u64` keys, thread-local scratch buffers (zero steady-state
    /// allocation beyond the returned set), reciprocal-multiply cell
    /// arithmetic, and dead-level skipping — `O(vol)`-ish per level.
    ///
    /// On the counting-sort grouping path (anything but sparse point sets
    /// spread over astronomically large coordinate ranges) members keep
    /// their id order inside every cell, so cell weight sums accumulate in
    /// **exactly the legacy order** and the returned set is bit-identical
    /// to [`GridSplitter::split_legacy`]. On the comparison-sort fallback
    /// the within-cell order is lexicographic instead, which can flip
    /// floating-point ties on inputs whose partial sums are inexact —
    /// still within the Definition 3 contract.
    fn split_fast(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        SPLIT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.split_fast_in(&mut scratch, w_set, weights, target),
            // Defensive: if a caller ever re-enters split on this thread,
            // fall back to fresh buffers instead of panicking.
            Err(_) => self.split_fast_in(&mut SplitScratch::default(), w_set, weights, target),
        })
    }

    fn split_fast_in(
        &self,
        scratch: &mut SplitScratch,
        w_set: &VertexSet,
        weights: &[f64],
        target: f64,
    ) -> VertexSet {
        let n = self.grid.graph.num_vertices();
        let d = self.grid.dim;
        let SplitScratch {
            members,
            edges,
            per_alpha,
            alpha_dense,
            keyed,
            keys_buf,
            counts,
            grouped,
            extents,
            shifts,
        } = scratch;
        members.clear();
        members.extend(w_set.iter());
        let total: f64 = members.iter().map(|&v| weights[v as usize]).sum();
        let mut rem = target.clamp(0.0, total);
        let mut taken = VertexSet::empty(n);
        let mut level = 0u32;

        loop {
            if members.is_empty() {
                return taken;
            }
            // Inner edges with positive current cost: total + per-axis
            // minimum coordinate (for the Lemma 20 shift accounting). Once
            // the level's cost reduction has extinguished even the most
            // expensive edge, `c1 = 0` without scanning anything.
            let mut c1 = 0.0f64;
            edges.clear();
            let level_alive =
                level == 0 || (self.max_scaled + 1.0) / (1u64 << level.min(62)) as f64 - 1.0 > 0.0;
            if level_alive {
                // Level 0 works on exactly `w_set`; deeper levels mark the
                // straddling cell in a fresh bitset.
                let owned;
                let in_s = if level == 0 {
                    w_set
                } else {
                    owned = VertexSet::from_iter(n, members.iter().copied());
                    &owned
                };
                let uniform = self.uniform_cost && level == 0;
                for &v in members.iter() {
                    for &(nb, e) in self.grid.graph.neighbors(v) {
                        if nb <= v || !in_s.contains(nb) {
                            continue;
                        }
                        let cur = if uniform {
                            1.0
                        } else if level == 0 {
                            self.scaled[e as usize]
                        } else {
                            self.level_cost(e, level)
                        };
                        if cur <= 0.0 {
                            continue;
                        }
                        c1 += cur;
                        edges.push((self.edge_t[e as usize], cur));
                    }
                }
            }
            let ell = ((c1 / d as f64).powf(1.0 / d as f64).ceil() as i64).max(1);
            let ell = ell.min(1 << 40);
            if ell <= 1 {
                // ℓ = 1: lexicographic vertex prefix within the cell — one
                // u32 key sort instead of a coordinate-comparator sort, and
                // the prefix lands in `taken` directly (the shared
                // [`prefix_cut_len`] decision rule, no intermediate set).
                members.sort_unstable_by_key(|&v| self.lex_rank[v as usize]);
                let cut = crate::prefix_cut_len(members, weights, rem);
                for &v in &members[..cut] {
                    taken.insert(v);
                }
                return taken;
            }
            // Lemma 20 per-shift accounting: a dense (reused) buffer when
            // ℓ is small — direct indexing instead of hashing every edge —
            // with the HashMap as the big-ℓ fallback. Same edge order, so
            // identical sums and the identical α either way. The per-edge
            // `(−t) mod ℓ` runs through the same reciprocal trick as the
            // cell packing when the coordinate magnitudes allow it:
            // `base − t ≥ 0` for `base` the smallest multiple of ℓ above
            // every coordinate, and `(base − t) mod ℓ = (−t) mod ℓ`.
            let ell_u = ell as u64;
            let inv = 1.0 / ell as f64;
            let alpha = if ell <= (1 << 16) {
                alpha_dense.clear();
                alpha_dense.resize(ell as usize, 0.0);
                let base = (self.coord_hi.div_euclid(ell) + 1) * ell;
                if (base - self.coord_lo) < 1 << 51 {
                    for &(t, cost) in edges.iter() {
                        let val = (base - t) as u64;
                        let r = val - udiv_rcp(val, ell_u, inv) * ell_u;
                        let idx = if r == 0 { ell_u - 1 } else { r - 1 };
                        alpha_dense[idx as usize] += cost;
                    }
                } else {
                    for &(t, cost) in edges.iter() {
                        let mut alpha = (-t).rem_euclid(ell);
                        if alpha == 0 {
                            alpha = ell;
                        }
                        alpha_dense[(alpha - 1) as usize] += cost;
                    }
                }
                Self::pick_alpha_dense(alpha_dense)
            } else {
                per_alpha.clear();
                for &(t, cost) in edges.iter() {
                    let mut alpha = (-t).rem_euclid(ell);
                    if alpha == 0 {
                        alpha = ell;
                    }
                    *per_alpha.entry(alpha).or_insert(0.0) += cost;
                }
                Self::pick_alpha(per_alpha, ell)
            };

            // Pack each member's cell ϕ_α(x) = ⌊(x + (α−1)·1)/ℓ⌋, offset
            // to the instance's minimum cell, into one u64 (mixed radix
            // over the per-axis cell ranges; `pack_safe` guaranteed the
            // product fits). The per-axis offset folds into a shifted
            // non-negative division `(x − min_a + r_a) / ℓ`, computed by
            // reciprocal multiplication with an exact fixup when the
            // coordinate span allows it.
            shifts.clear();
            extents.clear();
            let mut rcp_ok = true;
            for a in 0..d {
                shifts.push((self.mins[a] + alpha - 1).rem_euclid(ell) as u64);
                rcp_ok &= ((self.maxs[a] - self.mins[a]) as u64).saturating_add(ell_u) < 1 << 51;
            }
            let cell_of = |x: i64, a: usize| -> u64 {
                let val = (x - self.mins[a]) as u64 + shifts[a];
                if rcp_ok {
                    udiv_rcp(val, ell_u, inv)
                } else {
                    val / ell_u
                }
            };
            let mut cell_count: u128 = 1;
            for a in 0..d {
                let extent = cell_of(self.maxs[a], a) + 1;
                extents.push(extent);
                cell_count = cell_count.saturating_mul(extent as u128);
            }
            let extents = &*extents;
            let pack_key = |v: VertexId| {
                let c = self.grid.coord(v);
                let mut key = 0u64;
                for a in 0..d {
                    key = key * extents[a] + cell_of(c[a], a);
                }
                key
            };

            // Take whole cells (= maximal equal-key runs) in order while
            // they fit; recurse into the straddling cell.
            //
            // Primary grouping is a **counting sort** over the packed
            // keys: stable, so members keep their id order inside every
            // cell — the exact iteration (and f64 summation) order of the
            // legacy HashMap grouping, at `O(vol + cells)`. When the cell
            // universe is too large relative to the member count (sparse
            // point sets over huge coordinate ranges), a comparison sort
            // on (key, lex rank) steps in instead.
            let mut straddle = false;
            if cell_count <= (members.len() * 4 + 64) as u128 && cell_count <= u32::MAX as u128 {
                keys_buf.clear();
                counts.clear();
                counts.resize(cell_count as usize, 0);
                for &v in members.iter() {
                    let k = pack_key(v) as u32;
                    keys_buf.push(k);
                    counts[k as usize] += 1;
                }
                // Prefix-sum into running positions, then stable placement.
                let mut running = 0u32;
                for c in counts.iter_mut() {
                    let here = *c;
                    *c = running;
                    running += here;
                }
                grouped.clear();
                grouped.resize(members.len(), 0);
                for (idx, &v) in members.iter().enumerate() {
                    let k = keys_buf[idx] as usize;
                    grouped[counts[k] as usize] = v;
                    counts[k] += 1;
                }
                // After placement counts[k] is cell k's end offset.
                let mut start = 0usize;
                for &end in counts.iter() {
                    let end = end as usize;
                    if end == start {
                        continue;
                    }
                    let cell = &grouped[start..end];
                    let wcell: f64 = cell.iter().map(|&v| weights[v as usize]).sum();
                    if wcell <= rem {
                        rem -= wcell;
                        for &v in cell {
                            taken.insert(v);
                        }
                        start = end;
                    } else {
                        members.clear();
                        members.extend_from_slice(cell);
                        straddle = true;
                        break;
                    }
                }
            } else {
                keyed.clear();
                for &v in members.iter() {
                    keyed.push((pack_key(v), self.lex_rank[v as usize], v));
                }
                keyed.sort_unstable();
                let mut i = 0usize;
                while i < keyed.len() {
                    let mut j = i + 1;
                    while j < keyed.len() && keyed[j].0 == keyed[i].0 {
                        j += 1;
                    }
                    let wcell: f64 = keyed[i..j]
                        .iter()
                        .map(|&(_, _, v)| weights[v as usize])
                        .sum();
                    if wcell <= rem {
                        rem -= wcell;
                        for &(_, _, v) in &keyed[i..j] {
                            taken.insert(v);
                        }
                        i = j;
                    } else {
                        let run: Vec<VertexId> = keyed[i..j].iter().map(|&(_, _, v)| v).collect();
                        members.clear();
                        members.extend(run);
                        straddle = true;
                        break;
                    }
                }
            }
            if !straddle {
                return taken; // everything fit (rem ≈ 0 now)
            }
            level += 1;
        }
    }
}

impl Splitter for GridSplitter<'_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        if self.pack_safe && scratch_mode() == ScratchMode::Reuse {
            self.split_fast(w_set, weights, target)
        } else {
            self.split_legacy(w_set, weights, target)
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Theorem 19's cost bound with unit constant:
/// `d · log^{1/d}(φ + 1) · ‖c|_W‖_{d/(d−1)}` (the `log` term is taken as
/// `max(log₂(φ+1), 1)` so the bound stays positive for φ ≤ 1).
pub fn theorem19_bound(d: usize, fluctuation: f64, c_norm_p: f64) -> f64 {
    let lg = (fluctuation + 1.0).log2().max(1.0);
    d as f64 * lg.powf(1.0 / d as f64) * c_norm_p
}

/// Check that `set` is *monotone* in `within` (Section 6): for every
/// `y ∈ set` and `x ∈ within` with `x ≤ y` componentwise, `x ∈ set`.
/// Quadratic; intended for tests (Lemma 24 verification).
pub fn is_monotone_in(grid: &GridGraph, set: &VertexSet, within: &VertexSet) -> bool {
    let members: Vec<VertexId> = set.iter().collect();
    for x in within.iter() {
        if set.contains(x) {
            continue;
        }
        let cx = grid.coord(x);
        for &y in &members {
            let cy = grid.coord(y);
            if cx.iter().zip(cy).all(|(a, b)| a <= b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::check_split;
    use mmb_graph::cut::boundary_cost_within;
    use mmb_graph::measure::edge_norm_p;

    fn unit_weights(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn contract_on_square_grid() {
        let grid = GridGraph::lattice(&[8, 8]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights = unit_weights(64);
        for target in [0.0, 1.0, 13.0, 32.0, 63.0, 64.0] {
            let u = sp.split(&w, &weights, target);
            assert!(
                check_split(&w, &u, &weights, target).holds(),
                "target {target}"
            );
        }
    }

    #[test]
    fn contract_on_weighted_3d_grid() {
        let grid = GridGraph::lattice(&[4, 4, 4]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + (e % 17) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights: Vec<f64> = (0..64).map(|v| 1.0 + (v % 5) as f64).collect();
        let total: f64 = weights.iter().sum();
        for frac in [0.1, 0.33, 0.5, 0.9] {
            let target = frac * total;
            let u = sp.split(&w, &weights, target);
            assert!(check_split(&w, &u, &weights, target).holds(), "frac {frac}");
        }
    }

    #[test]
    fn cost_respects_theorem19_on_unit_grid() {
        // 16×16 unit grid, bisect. Theorem 19 bound with d = 2, φ = 1.
        let grid = GridGraph::lattice(&[16, 16]);
        let m = grid.graph.num_edges();
        let costs = vec![1.0; m];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(256);
        let weights = unit_weights(256);
        let u = sp.split(&w, &weights, 128.0);
        let cut = boundary_cost_within(&grid.graph, &costs, &w, &u);
        let bound = theorem19_bound(2, 1.0, edge_norm_p(&grid.graph, &costs, &w, 2.0));
        assert!(
            cut <= 3.0 * bound,
            "cut {cut} exceeds 3× Theorem 19 bound {bound}"
        );
        // And it must be non-trivially good: far below the total cost.
        assert!(cut < 0.2 * m as f64);
    }

    #[test]
    fn splitting_sets_are_monotone() {
        // Lemma 24: GridSplit returns monotone sets.
        let grid = GridGraph::lattice(&[9, 9]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + ((e * 7) % 23) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(81);
        let weights = unit_weights(81);
        for target in [10.0, 27.0, 40.0, 70.0] {
            let u = sp.split(&w, &weights, target);
            assert!(
                is_monotone_in(&grid, &u, &w),
                "GridSplit set not monotone at target {target}"
            );
        }
    }

    #[test]
    fn handles_subsets_and_disconnection() {
        let grid = GridGraph::percolation(&[12, 12], 0.75, 11);
        let n = grid.graph.num_vertices();
        let costs = vec![2.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        // Split a random sub-subset.
        let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| v % 3 != 0));
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
        let wsum: f64 = w.iter().map(|v| weights[v as usize]).sum();
        let u = sp.split(&w, &weights, wsum / 2.0);
        assert!(check_split(&w, &u, &weights, wsum / 2.0).holds());
    }

    #[test]
    fn zero_cost_edges_are_fine() {
        let grid = GridGraph::lattice(&[6, 6]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| if e % 2 == 0 { 0.0 } else { 3.0 })
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(36);
        let weights = unit_weights(36);
        let u = sp.split(&w, &weights, 18.0);
        assert!(check_split(&w, &u, &weights, 18.0).holds());
    }

    #[test]
    fn one_dimensional_grid_cuts_one_edge() {
        let grid = GridGraph::path(64);
        let costs = vec![1.0; 63];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights = unit_weights(64);
        let u = sp.split(&w, &weights, 32.0);
        assert!(check_split(&w, &u, &weights, 32.0).holds());
        // A monotone (prefix) subset of a path cuts exactly one edge.
        assert!(boundary_cost_within(&grid.graph, &costs, &w, &u) <= 1.0 + 1e-9);
    }

    #[test]
    fn fast_and_legacy_coarsening_split_identically() {
        use mmb_graph::workspace::{with_scratch_mode, ScratchMode};
        // Weighted 2D and 3D grids, many targets and subsets: the
        // sort-based fast path must return bit-identical splitting sets to
        // the pre-overhaul HashMap grouping.
        for dims in [vec![13usize, 11], vec![5, 4, 3]] {
            let grid = GridGraph::lattice(&dims);
            let n = grid.graph.num_vertices();
            let costs: Vec<f64> = (0..grid.graph.num_edges())
                .map(|e| 0.5 + ((e * 13) % 29) as f64)
                .collect();
            let sp = GridSplitter::new(&grid, &costs);
            let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 7) % 5) as f64).collect();
            for (mask_mod, frac) in [(1u32, 0.1), (1, 0.5), (1, 0.92), (3, 0.33), (7, 0.6)] {
                let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| v % mask_mod != 1));
                let total: f64 = w.iter().map(|v| weights[v as usize]).sum();
                let target = frac * total;
                let fast = with_scratch_mode(ScratchMode::Reuse, || sp.split(&w, &weights, target));
                let legacy =
                    with_scratch_mode(ScratchMode::Transient, || sp.split(&w, &weights, target));
                assert_eq!(fast, legacy, "dims {dims:?}, mask {mask_mod}, frac {frac}");
            }
        }
    }

    #[test]
    fn sparse_point_sets_exercise_the_fallback_groupings() {
        use mmb_graph::workspace::{with_scratch_mode, ScratchMode};
        // Dominoes (adjacent point pairs) scattered over a wide coordinate
        // range: the cell universe dwarfs the member count, forcing the
        // comparison-sort grouping instead of the counting sort. Unit
        // weights keep every partial sum exact, so fast ≡ legacy bitwise.
        let mut points = Vec::new();
        for i in 0..120i64 {
            let x = (i * 7919) % 1_000_003;
            let y = (i * 104_729) % 999_983;
            points.push(vec![x, y]);
            points.push(vec![x + 1, y]);
        }
        let grid = GridGraph::from_points(2, points);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let weights = vec![1.0; n];
        let w = VertexSet::full(n);
        for frac in [0.25, 0.5, 0.75] {
            let target = frac * n as f64;
            let fast = with_scratch_mode(ScratchMode::Reuse, || sp.split(&w, &weights, target));
            let legacy =
                with_scratch_mode(ScratchMode::Transient, || sp.split(&w, &weights, target));
            assert_eq!(fast, legacy, "frac {frac}");
            assert!(check_split(&w, &fast, &weights, target).holds());
        }
        // Astronomical spread on two axes defeats u64 key packing; the
        // fast dispatch must fall back to the legacy path and still honor
        // the contract.
        let far = GridGraph::from_points(
            2,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![4_000_000_000_000_000_000, 4_000_000_000_000_000_000],
                vec![4_000_000_000_000_000_001, 4_000_000_000_000_000_000],
            ],
        );
        let fn_ = far.graph.num_vertices();
        let fcosts = vec![1.0; far.graph.num_edges()];
        let fsp = GridSplitter::new(&far, &fcosts);
        let fw = VertexSet::full(fn_);
        let fweights = vec![1.0; fn_];
        let u = fsp.split(&fw, &fweights, 2.0);
        assert!(check_split(&fw, &u, &fweights, 2.0).holds());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let grid = GridGraph::lattice(&[2, 2]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let empty = VertexSet::empty(4);
        let u = sp.split(&empty, &unit_weights(4), 0.0);
        assert!(u.is_empty());
        let single = VertexSet::from_iter(4, [2u32]);
        let u = sp.split(&single, &unit_weights(4), 1.0);
        assert!(check_split(&single, &u, &unit_weights(4), 1.0).holds());
    }

    #[test]
    fn expensive_column_instance_stays_within_bound() {
        // One enormously expensive column at x = 7→8. The cost-aware
        // splitter must stay within Theorem 19's bound and never do worse
        // than the cost-blind variant (which lex-cuts straight through the
        // expensive column at this target).
        let grid = GridGraph::lattice(&[16, 16]);
        let mut costs = vec![1.0; grid.graph.num_edges()];
        for (e, &(a, b)) in grid.graph.edge_list().iter().enumerate() {
            let (ca, cb) = (grid.coord(a), grid.coord(b));
            if ca[0] != cb[0] && ca[0].min(cb[0]) == 7 {
                costs[e] = 1000.0;
            }
        }
        let w = VertexSet::full(256);
        let weights = unit_weights(256);
        let aware = GridSplitter::new(&grid, &costs);
        let blind = GridSplitter::unit_cost(&grid);
        let ua = aware.split(&w, &weights, 128.0);
        let ub = blind.split(&w, &weights, 128.0);
        let ca = boundary_cost_within(&grid.graph, &costs, &w, &ua);
        let cb = boundary_cost_within(&grid.graph, &costs, &w, &ub);
        assert!(check_split(&w, &ua, &weights, 128.0).holds());
        assert!(check_split(&w, &ub, &weights, 128.0).holds());
        assert!(
            ca <= cb + 1e-9,
            "cost-aware ({ca}) should not lose to cost-blind ({cb})"
        );
        let bound = theorem19_bound(2, 1000.0, edge_norm_p(&grid.graph, &costs, &w, 2.0));
        assert!(
            ca <= 3.0 * bound,
            "cut {ca} exceeds 3× Theorem 19 bound {bound}"
        );
    }
}
