//! `BinPack2` (Proposition 12): almost strict → **strictly** balanced.
//!
//! Turns any almost strictly balanced coloring into one satisfying
//! Definition 1's eq. (1) *exactly*:
//!
//! ```text
//! max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞
//! ```
//!
//! With `w* = ‖w‖₁/k`, the procedure has three steps:
//!
//! 2. every class above `w*` sheds pieces into a buffer until it is at
//!    most `w*` (see *Carving* below);
//! 3. classes below the lower envelope `w* − (1−1/k)‖w‖∞` are refilled
//!    from the buffer;
//! 4. the remaining pieces go, one at a time, to the currently lightest
//!    class.
//!
//! Class loads are kept incrementally through all three steps, and the
//! output is written directly: a vertex keeps its input color unless a
//! piece containing it is placed elsewhere. The whole procedure costs
//! `O(n)` plus the splitter calls on the carved sets listed below.
//!
//! **Carving (Claim 4, restated for the pieces used here).** An
//! overweight class sheds, in this order:
//!
//! 1. *Heavy singletons.* Its vertices with `w(v) ≥ ‖w‖∞/2`, in
//!    increasing id order, while the class load stays above `w*`: one
//!    pass over the class. Each weighs `∈ [‖w‖∞/2, ‖w‖∞]`.
//! 2. *Bulk carve.* If the remaining (light) excess `e = load − w*` is
//!    above `2‖w‖∞`, one splitter call carves `X` with target
//!    `e − ‖w‖∞`. Every vertex left is lighter than `‖w‖∞/2`, so the
//!    splitting contract puts `w(X)` within `‖w‖∞/4` of the target and
//!    the class keeps an excess in `(3/4, 5/4)·‖w‖∞`. `X` alone is then
//!    chopped by recursive splitting: a part heavier than `‖w‖∞` is split
//!    at the share `⌊m/2⌋/m` of its weight, `m = max(2, round(w/(¾‖w‖∞)))`,
//!    so each side aims at `≥ ‖w‖∞/2` and lands at `≥ ‖w‖∞/4`; a part of
//!    weight `≤ ‖w‖∞` is a piece. Pieces weigh `∈ [‖w‖∞/4, ‖w‖∞]`, every
//!    level of the recursion queries disjoint subsets of `X`, and there
//!    are `O(log(w(X)/‖w‖∞))` levels: `O(|X|·log(w(X)/‖w‖∞))` splitter
//!    work instead of one call on the whole class remainder per piece.
//! 3. *Tail.* The last `≤ 2‖w‖∞` of excess goes one piece at a time, each
//!    a splitting set of target `¾‖w‖∞` on the class remainder, so of
//!    weight `∈ [‖w‖∞/2, ‖w‖∞]`: a constant number of calls per class.
//!
//! An almost strictly balanced input (Proposition 11) has every excess
//! `≤ 2‖w‖∞`, so the bulk branch never fires on the theorem path and the
//! pieces are exactly Claim 4's.
//!
//! **Eq. (1) needs only pieces `≤ ‖w‖∞`.** After Step 2 every class is at
//! most `w*`. In Step 3 a class receives a piece only while below the
//! lower envelope, so it ends at most `w* − (1−1/k)‖w‖∞ + ‖w‖∞ =
//! w* + ‖w‖∞/k`. In Step 4 the piece `x` goes to the lightest class, which
//! weighs at most `(‖w‖₁ − w(x))/k` (all weight but `x`'s is in the
//! classes or the buffer), so it ends at most `w* + (1−1/k)·w(x)`. The
//! averaging invariant makes Step 3 safe: if the buffer ran dry while
//! class `j` sat below the lower envelope, the other `k−1` classes would
//! hold at most `(k−1)(w* + ‖w‖∞/k)`, forcing `w(j) ≥ w* − (1−1/k)‖w‖∞`.
//! None of this uses a lower bound on the piece weights.
//!
//! **The piece floor matters for the cost only.** Proposition 12 bounds
//! the boundary growth through the number of pieces a class sheds and
//! receives. Pieces of weight `≥ ‖w‖∞/4` instead of `≥ ‖w‖∞/2` at most
//! double those counts, so the cost bound changes by a constant factor.
//!
//! **Degenerate regime.** The paper assumes `w* ≥ ‖w‖∞/2` and notes the
//! other case is "handled similarly". When `w* < ‖w‖∞/2` (more colors than
//! heavy vertices can fill), splitting sets of the required size do not
//! exist; we fall back to [`greedy_strict`], the classical largest-first
//! greedy assignment, which *always* achieves eq. (1) — at unbounded
//! boundary cost, which is acceptable because in this regime classes are
//! dominated by single vertices anyway.

use mmb_graph::measure::{set_max, set_sum};
use mmb_graph::{Coloring, Graph, VertexId, VertexSet};
use mmb_splitters::Splitter;
use rayon::prelude::*;

/// Below this working-set size the per-class carving of `BinPack1/2` runs
/// inline: thread-spawn overhead would exceed the carve work itself on the
/// small sets deep in the shrink recursion.
pub(crate) const PAR_CARVE_MIN_VERTICES: usize = 2048;

/// Shared fan-out of the `BinPack1/2` cut-down step: run `shed` over every
/// carving work item — on the thread pool when the working set is large
/// enough to amortize worker spawn, inline otherwise — and re-assemble the
/// per-class results and carved pieces in class order, which makes the
/// result bit-identical to the sequential loop for any thread count.
/// Parallel workers re-establish the caller's thread-local scratch mode.
pub(crate) fn carve_classes<T, C, P, F>(
    items: impl IntoIterator<Item = T>,
    working_set_len: usize,
    shed: F,
) -> (Vec<C>, Vec<P>)
where
    T: Send,
    C: Send,
    P: Send,
    F: Fn(T) -> (C, Vec<P>) + Sync,
{
    let carved: Vec<(C, Vec<P>)> = if working_set_len >= PAR_CARVE_MIN_VERTICES {
        let mode = mmb_graph::workspace::scratch_mode();
        items
            .into_par_iter()
            .map(|item| mmb_graph::workspace::with_scratch_mode(mode, || shed(item)))
            .collect()
    } else {
        items.into_iter().map(shed).collect()
    };
    let mut classes = Vec::with_capacity(carved.len());
    let mut buffer = Vec::new();
    for (class, pieces) in carved {
        classes.push(class);
        buffer.extend(pieces);
    }
    (classes, buffer)
}

/// Greedy-lightest: give each still-uncolored vertex of `order`, in turn,
/// to the currently lightest class of `chi`, starting from `chi`'s own
/// class loads. Ties go to the lowest class index (`min_by` is
/// first-wins under `total_cmp`), so the result is deterministic bit for
/// bit; already colored vertices of `order` are skipped.
///
/// Starting from an empty coloring the result satisfies eq. (1) in *any*
/// order: when the heaviest class received its last vertex it was the
/// lightest, so `max − min ≤ ‖w‖∞`, and averaging gives
/// `max − avg ≤ (1 − 1/k)·(max − min) ≤ (1 − 1/k)·‖w‖∞`.
pub fn assign_to_lightest(
    chi: &mut Coloring,
    weights: &[f64],
    order: impl IntoIterator<Item = VertexId>,
) {
    let mut loads = chi.class_measures(weights);
    for v in order {
        if chi.get(v).is_some() {
            continue;
        }
        let lightest = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .unwrap_or(0);
        chi.set(v, lightest as u32);
        loads[lightest] += weights[v as usize];
    }
}

/// Largest-first (LPT) greedy assignment of `domain`: vertices in
/// decreasing weight order (ties by id), each to the currently lightest
/// class via [`assign_to_lightest`]. Satisfies eq. (1) for every input.
pub fn greedy_strict(n: usize, k: usize, domain: &VertexSet, weights: &[f64]) -> Coloring {
    let mut order: Vec<VertexId> = domain.iter().collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: instance validation
    // rejects NaN today, but this baseline is also called directly on raw
    // weight vectors and must stay deterministic and panic-free on every
    // finite input (subnormals, negative zeros) — and on any future path
    // that forgets to validate.
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut out = Coloring::new_uncolored(n, k);
    assign_to_lightest(&mut out, weights, order);
    out
}

/// A carved piece: its members and its weight.
type Piece = (Vec<VertexId>, f64);

/// `BinPack2` (Proposition 12): enforce strict balance exactly.
///
/// `chi` must be total on `domain`. The output satisfies eq. (1) up to
/// floating-point tolerance; the boundary cost grows by at most
/// `O(‖∂χ⁻¹‖∞ + ‖πχ⁻¹‖∞^{1/p} + Δ_c)` when the input is almost strict.
pub fn binpack2<S: Splitter + ?Sized>(
    g: &Graph,
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
) -> Coloring {
    let n = g.num_vertices();
    let k = chi.k();
    if k == 1 {
        return chi.restrict_to(domain);
    }
    let wmax = set_max(weights, domain);
    let total = set_sum(weights, domain);
    let w_star = total / k as f64;
    if wmax <= 0.0 {
        return chi.restrict_to(domain);
    }
    if w_star < wmax / 2.0 {
        // Degenerate regime: see module docs.
        return greedy_strict(n, k, domain, weights);
    }

    // Step 2: cut every class down to ≤ w*. Classes are carved
    // independently (the buffer only collects), so [`carve_classes`] fans
    // the cut-down out per class.
    let cap = w_star + 1e-12 * total;
    let (mut loads, mut buffer) = carve_classes(
        chi.class_sets_within(domain),
        domain.len(),
        |class: VertexSet| shed_class(splitter, class, weights, wmax, w_star, cap),
    );
    let mut out = chi.restrict_to(domain);
    let mut place = |loads: &mut [f64], i: usize, (members, w): Piece| {
        for v in members {
            out.set(v, i as u32);
        }
        loads[i] += w;
    };

    // Step 3: refill classes below the strict lower envelope. The
    // averaging argument (see module docs) guarantees the buffer cannot be
    // empty while such a class exists.
    let lower = w_star - (1.0 - 1.0 / k as f64) * wmax - 1e-12 * (1.0 + total);
    while let Some(i) = (0..k).find(|&i| loads[i] < lower) {
        let Some(x) = buffer.pop() else {
            debug_assert!(
                false,
                "BinPack2 invariant violated: empty buffer with light class"
            );
            break;
        };
        place(&mut loads, i, x);
    }

    // Step 4: leftovers onto the lightest classes.
    while let Some(x) = buffer.pop() {
        let i = (0..k)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("k >= 1 classes");
        place(&mut loads, i, x);
    }
    out
}

/// Step 2 for one class: shed pieces (see *Carving* in the module docs)
/// until its load is at most `cap`. Returns the remaining load and the
/// pieces in shedding order.
fn shed_class<S: Splitter + ?Sized>(
    splitter: &S,
    mut class: VertexSet,
    weights: &[f64],
    wmax: f64,
    w_star: f64,
    cap: f64,
) -> (f64, Vec<Piece>) {
    let mut load = set_sum(weights, &class);
    let mut pieces = Vec::new();
    if load <= cap {
        return (load, pieces);
    }
    let heavy: Vec<VertexId> = class
        .iter()
        .filter(|&v| weights[v as usize] >= wmax / 2.0)
        .collect();
    for v in heavy {
        if load <= cap {
            return (load, pieces);
        }
        class.remove(v);
        load -= weights[v as usize];
        pieces.push((vec![v], weights[v as usize]));
    }
    let excess = load - w_star;
    if excess > 2.0 * wmax {
        let x = splitter.split(&class, weights, excess - wmax);
        let wx = set_sum(weights, &x);
        // A contract-abiding splitter leaves an excess of at least ¾‖w‖∞;
        // anything else falls through to the piecewise tail.
        if wx > 0.0 && wx <= excess {
            class.difference_with(&x);
            load -= wx;
            chop(splitter, x, wx, weights, wmax, &mut pieces);
        }
    }
    while load > cap && !class.is_empty() {
        let (members, w) = carve_light_piece(splitter, &class, load, weights, wmax);
        for &v in &members {
            class.remove(v);
        }
        load -= w;
        pieces.push((members, w));
    }
    (load, pieces)
}

/// Chop a carved set of light vertices (each `< ‖w‖∞/2`) into pieces of
/// weight `≤ ‖w‖∞` by recursive proportional splitting (module docs,
/// *Carving*), appending them to `out` in depth-first order.
fn chop<S: Splitter + ?Sized>(
    splitter: &S,
    x: VertexSet,
    wx: f64,
    weights: &[f64],
    wmax: f64,
    out: &mut Vec<Piece>,
) {
    if wx <= wmax {
        out.push((x.to_vec(), wx));
        return;
    }
    let m = ((wx / (0.75 * wmax)).round() as usize).max(2);
    let left = splitter.split(&x, weights, wx * (m / 2) as f64 / m as f64);
    let wl = set_sum(weights, &left);
    if wl <= 0.0 || wl >= wx {
        // Defensive: a splitter that broke its contract. Chop greedily in
        // id order instead; every vertex is light, so each piece but the
        // last weighs more than ‖w‖∞/2.
        let mut piece = (Vec::new(), 0.0);
        for v in x.iter() {
            let w = weights[v as usize];
            if piece.1 + w > wmax {
                out.push(std::mem::take(&mut piece));
            }
            piece.0.push(v);
            piece.1 += w;
        }
        if !piece.0.is_empty() {
            out.push(piece);
        }
        return;
    }
    let right = x.difference(&left);
    drop(x);
    let wr = set_sum(weights, &right);
    chop(splitter, left, wl, weights, wmax, out);
    chop(splitter, right, wr, weights, wmax, out);
}

/// A tail piece: a splitting set of target `¾‖w‖∞` on the class remainder,
/// whose vertices are all lighter than `‖w‖∞/2`, so the contract slack
/// keeps the piece within `[‖w‖∞/2, ‖w‖∞]`.
fn carve_light_piece<S: Splitter + ?Sized>(
    splitter: &S,
    class: &VertexSet,
    load: f64,
    weights: &[f64],
    wmax: f64,
) -> Piece {
    let x = splitter.split(class, weights, (0.75 * wmax).min(load));
    let wx = set_sum(weights, &x);
    if x.is_empty() || wx <= 0.0 {
        // Defensive: all-zero piece; peel the heaviest vertex to guarantee
        // progress.
        let heaviest = class
            .iter()
            .max_by(|&a, &b| weights[a as usize].total_cmp(&weights[b as usize]))
            .expect("class is non-empty");
        return (vec![heaviest], weights[heaviest as usize]);
    }
    (x.to_vec(), wx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_splitters::grid::GridSplitter;
    use mmb_splitters::recording::RecordingSplitter;

    #[test]
    fn greedy_is_always_strict() {
        for (k, seed) in [(2usize, 1u64), (3, 2), (7, 3), (16, 4)] {
            let n = 50;
            let weights: Vec<f64> = (0..n)
                .map(|v| 1.0 + ((v as u64 * seed * 2654435761) % 97) as f64)
                .collect();
            let domain = VertexSet::full(n);
            let chi = greedy_strict(n, k, &domain, &weights);
            assert!(chi.is_total());
            assert!(chi.is_strictly_balanced(&weights), "k={k} seed={seed}");
        }
    }

    #[test]
    fn binpack2_enforces_eq1_on_grid() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = 256;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let k = 5;
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        // Almost strict-ish but not strict start: stripes.
        let chi = Coloring::from_fn(n, k, |v| ((grid.coord(v)[0] as usize * k) / 16) as u32);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_total_on(&domain));
        assert!(
            out.is_strictly_balanced(&weights),
            "defect {}",
            out.strict_balance_defect(&weights)
        );
    }

    #[test]
    fn binpack2_handles_badly_unbalanced_input() {
        // Even a monochromatic input must come out strictly balanced
        // (Proposition 12 only needs almost-strictness for the *cost*
        // guarantee, not for correctness).
        let grid = GridGraph::lattice(&[10, 10]);
        let n = 100;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 13) % 7) as f64).collect();
        let chi = Coloring::monochromatic(n, 8);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn degenerate_heavy_vertex_regime() {
        // One vertex carries almost all the weight and k is large: the
        // greedy fallback must fire and still satisfy eq. (1).
        let grid = GridGraph::lattice(&[4, 4]);
        let n = 16;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![0.01; n];
        weights[5] = 100.0;
        let k = 8; // w* ≈ 12.5 < 50 = wmax/2 → degenerate
        let chi = Coloring::monochromatic(n, k);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn k1_and_zero_weights() {
        let grid = GridGraph::lattice(&[3, 3]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(9);
        let chi1 = Coloring::monochromatic(9, 1);
        let out1 = binpack2(&grid.graph, &sp, &chi1, &domain, &[1.0; 9]);
        assert!(out1.is_strictly_balanced(&[1.0; 9]));
        let chi2 = Coloring::from_fn(9, 3, |v| v % 3);
        let out2 = binpack2(&grid.graph, &sp, &chi2, &domain, &[0.0; 9]);
        assert!(out2.is_strictly_balanced(&[0.0; 9]));
    }

    #[test]
    fn adversarial_finite_weights_are_deterministic_and_panic_free() {
        // Regression for the four `partial_cmp(..).unwrap()` comparators
        // this module used to carry: a weight vector mixing subnormals,
        // negative zeros, exact ties and huge magnitudes must neither
        // panic nor produce run-to-run differences. (`total_cmp` orders
        // −0.0 < +0.0 < subnormal < …, a total order on all finite
        // floats.)
        let grid = GridGraph::lattice(&[6, 6]);
        let n = 36;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n)
            .map(|v| match v % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 2.0, // subnormal
                3 => f64::MIN_POSITIVE,
                4 => 1e300,
                _ => 1.0,
            })
            .collect();
        for k in [2usize, 3, 5] {
            let greedy_a = greedy_strict(n, k, &domain, &weights);
            let greedy_b = greedy_strict(n, k, &domain, &weights);
            assert_eq!(
                greedy_a, greedy_b,
                "greedy_strict nondeterministic at k={k}"
            );
            assert!(greedy_a.is_strictly_balanced(&weights), "k={k}");
            let chi = Coloring::monochromatic(n, k);
            let out_a = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            let out_b = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert_eq!(out_a, out_b, "binpack2 nondeterministic at k={k}");
            assert!(out_a.is_total_on(&domain), "k={k}");
            assert!(
                out_a.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out_a.strict_balance_defect(&weights)
            );
        }
    }

    #[test]
    fn strictness_with_spike_weights() {
        // A few heavy spikes among light vertices.
        let grid = GridGraph::lattice(&[12, 12]);
        let n = 144;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![1.0; n];
        for v in [3usize, 40, 77, 100] {
            weights[v] = 25.0;
        }
        for k in [2usize, 3, 4, 6] {
            let chi = Coloring::from_fn(n, k, |v| (v as usize % k) as u32);
            let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert!(
                out.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out.strict_balance_defect(&weights)
            );
        }
    }

    /// Queried-subset vertices of one BinPack2 run on a monochromatic
    /// `side × side` lattice, k = 8, unit-ish weights with a spike of 25
    /// on every 97th vertex.
    fn monochromatic_spike_work(side: usize) -> u64 {
        let grid = GridGraph::lattice(&[side, side]);
        let n = side * side;
        let costs = vec![1.0; grid.graph.num_edges()];
        let rec = RecordingSplitter::new(GridSplitter::new(&grid, &costs), &grid.graph, &costs);
        let weights: Vec<f64> = (0..n)
            .map(|v| {
                if v % 97 == 0 {
                    25.0
                } else {
                    1.0 + (v % 5) as f64 / 10.0
                }
            })
            .collect();
        let chi = Coloring::monochromatic(n, 8);
        let out = binpack2(&grid.graph, &rec, &chi, &VertexSet::full(n), &weights);
        assert!(out.is_total(), "side {side}");
        assert!(
            out.is_strictly_balanced(&weights),
            "side {side}: defect {}",
            out.strict_balance_defect(&weights)
        );
        rec.stats().total_subset_size
    }

    #[test]
    fn carve_work_grows_near_linearly() {
        // n grows 4×; the bulk carve plus recursive chop must keep the
        // splitter work within a log factor of that (re-splitting the
        // class remainder once per piece grew it ~16×).
        let small = monochromatic_spike_work(128);
        let large = monochromatic_spike_work(256);
        assert!(
            large as f64 <= 6.0 * small as f64,
            "queried-subset vertices grew {small} → {large}"
        );
    }

    /// Delegates on sets of at least `min_len` vertices and returns the
    /// empty set (breaking the splitting contract) on smaller ones.
    struct EmptyBelow<S> {
        inner: S,
        min_len: usize,
    }

    impl<S: Splitter> Splitter for EmptyBelow<S> {
        fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
            if w_set.len() >= self.min_len {
                self.inner.split(w_set, weights, target)
            } else {
                VertexSet::empty(w_set.universe())
            }
        }
    }

    #[test]
    fn contract_breaking_splits_fall_back_and_stay_strict() {
        // The bulk carve succeeds (the class is large), but every split
        // of the carved set and of the class remainder comes back empty:
        // the chop falls back to id-order pieces and the tail to peeling
        // the heaviest vertex.
        let grid = GridGraph::lattice(&[24, 24]);
        let n = 576;
        let costs = vec![1.0; grid.graph.num_edges()];
        // One spike makes every other vertex light; once it is shed, the
        // class remainder has n − 1 vertices.
        let mut weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 4) as f64 / 4.0).collect();
        weights[0] = 8.0;
        let sp = EmptyBelow {
            inner: GridSplitter::new(&grid, &costs),
            min_len: n - 1,
        };
        let chi = Coloring::monochromatic(n, 4);
        let out = binpack2(&grid.graph, &sp, &chi, &VertexSet::full(n), &weights);
        assert!(out.is_total());
        assert!(
            out.is_strictly_balanced(&weights),
            "defect {}",
            out.strict_balance_defect(&weights)
        );
    }
}
