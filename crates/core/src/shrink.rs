//! The shrinking procedure (Section 5) and the shrink-and-conquer recursion
//! of Proposition 11.
//!
//! Given a weakly balanced coloring `χ` of `W` (`‖wχ⁻¹‖_∞ ≤ M·Ψ*` with
//! `Ψ* = w(W)/k`), [`shrink`] produces two colorings:
//!
//! * `χ₀` on `W₀` — **almost strictly balanced**, every class of weight
//!   `≈ ε·Ψ*` (one *rich* extraction per class, Corollary 18), and
//! * `χ₁` on `W₁ = W \ W₀` — still weakly balanced, with the splitting-cost
//!   measure `π`, the induced degree (≈ subgraph size) and the boundary
//!   cost of every class *geometrically reduced* (Definition 13 b/c).
//!
//! The extraction machinery is Appendix A.1: [`iterative_partition`]
//! (Lemma 28) carves a class into pieces of prescribed `Ψ`-weight with one
//! splitting set each; [`extract_lean`] picks the piece that is cheapest
//! across all protected measures (pigeonhole, Lemma 29 / Corollaries 16–17);
//! [`extract_rich`] unions the per-measure heaviest pieces and tops up
//! (Lemma 30 / Corollary 18).
//!
//! [`almost_strict`] (Proposition 11) recurses: shrink, recursively fix
//! `χ₁`, then re-merge with the conquer bin packing of Lemma 15
//! ([`crate::conquer::binpack1`]). Costs do not accumulate across levels
//! because each level's `χ₁` carries geometrically smaller costs.
//!
//! **Constants.** The paper sets `M = ε⁻⁵` and triggers its base case at
//! `‖w‖_∞ > ε⁵·Ψ*`; these give astronomically large worst-case constants.
//! The code keeps the algorithm *structure* and exposes
//! (`ε`, `M`, base-case ratio) through [`ShrinkParams`] with practical
//! defaults; strictness of the final output never depends on them (BinPack2
//! enforces eq. (1) exactly), only the boundary-cost constant does — which
//! experiment E8 measures. Deviations are flagged with `// paper:` comments.

use mmb_graph::cut::boundary_measure_ws;
use mmb_graph::measure::{induced_degree_measure_ws, set_max, set_sum};
use mmb_graph::workspace::Workspace;
use mmb_graph::{Coloring, Graph, VertexSet};
use mmb_splitters::Splitter;

use crate::conquer::binpack1;
use crate::pi::splitting_cost_measure_within_ws;

/// Tunables of the shrinking procedure.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkParams {
    /// The layer fraction `ε` (paper: "sufficiently small"; default ¼).
    pub epsilon: f64,
    /// Weak-balance envelope `M` (paper: `ε⁻⁵`; default 16 — the input
    /// colorings from Proposition 7 sit well below it).
    pub weak_factor: f64,
    /// Recursion safety valve; the weight argument guarantees termination
    /// long before this.
    pub max_depth: usize,
}

impl Default for ShrinkParams {
    fn default() -> Self {
        Self {
            epsilon: 0.25,
            weak_factor: 16.0,
            max_depth: 512,
        }
    }
}

/// Lemma 28 (`IterativePartition`): partition `U` into pieces of `Ψ`-weight
/// in `[ψ*, ψ* + ‖Ψ|_U‖_∞]` (final remainder up to `3ψ*`), each carved with
/// one splitting set.
pub fn iterative_partition<S: Splitter + ?Sized>(
    splitter: &S,
    u_set: &VertexSet,
    psi: &[f64],
    psi_part: f64,
) -> Vec<VertexSet> {
    let max = set_max(psi, u_set);
    // Pieces below the max weight are unreachable; widen defensively.
    let psi_part = psi_part.max(max);
    let mut x = u_set.clone();
    let mut parts = Vec::new();
    while set_sum(psi, &x) > 3.0 * psi_part && x.len() > 1 {
        let xi = splitter.split(&x, psi, psi_part + set_max(psi, &x) / 2.0);
        if xi.is_empty() || xi.len() >= x.len() {
            break; // defensive: a degenerate splitter must not loop us
        }
        x.difference_with(&xi);
        parts.push(xi);
    }
    if !x.is_empty() {
        parts.push(x);
    }
    parts
}

/// Corollaries 16/17 (`extract_lean`): a piece `X ⊆ U` with
/// `Ψ(X) ∈ [lo, 3·lo]`-ish that is simultaneously cheap in every protected
/// measure (achieved by minimizing the summed measure fractions over a
/// Lemma 28 partition — the pigeonhole of Lemma 29).
pub fn extract_lean<S: Splitter + ?Sized>(
    splitter: &S,
    u_set: &VertexSet,
    psi: &[f64],
    protected: &[&[f64]],
    lo: f64,
) -> VertexSet {
    let parts = iterative_partition(splitter, u_set, psi, lo);
    let totals: Vec<f64> = protected
        .iter()
        .map(|m| set_sum(m, u_set).max(1e-300))
        .collect();
    parts
        .into_iter()
        .min_by(|a, b| {
            let score = |x: &VertexSet| {
                protected
                    .iter()
                    .zip(&totals)
                    .map(|(m, t)| set_sum(m, x) / t)
                    .sum::<f64>()
            };
            // total_cmp; min_by is first-wins, so ties keep the earliest
            // part in `parts`' deterministic construction order.
            score(a).total_cmp(&score(b))
        })
        .unwrap_or_else(|| VertexSet::empty(u_set.universe()))
}

/// Corollary 18 / Lemma 30 (`extract_rich`): a piece `X ⊆ U` with
/// `Ψ(X) ≈ γ·Ψ(U)` containing, for every protected measure, at least an
/// `Ω(γ/r)` fraction of `U`'s measure — so the *remainder* `U \ X` loses a
/// guaranteed fraction of every cost.
pub fn extract_rich<S: Splitter + ?Sized>(
    splitter: &S,
    u_set: &VertexSet,
    psi: &[f64],
    protected: &[&[f64]],
    gamma: f64,
) -> VertexSet {
    let total = set_sum(psi, u_set);
    let r = protected.len().max(1);
    let target = gamma * total;
    let parts = iterative_partition(splitter, u_set, psi, target / (3.0 * r as f64));
    // Union of the per-measure argmax parts.
    let mut x = VertexSet::empty(u_set.universe());
    for m in protected {
        if let Some(best) = parts
            .iter()
            .max_by(|a, b| set_sum(m, a).total_cmp(&set_sum(m, b)))
        {
            x.union_with(best);
        }
    }
    // Top up to the target Ψ-weight from the remainder.
    let have = set_sum(psi, &x);
    if have < target {
        let remainder = u_set.difference(&x);
        let max = set_max(psi, &remainder);
        let s = splitter.split(&remainder, psi, (target - have) + max / 2.0);
        x.union_with(&s);
    }
    x
}

/// Result of one shrinking step.
#[derive(Clone, Debug)]
pub struct ShrinkOutput {
    /// Almost strictly balanced coloring of `w0` (classes ≈ `ε·Ψ*`).
    pub chi0: Coloring,
    /// Its domain `W₀`.
    pub w0: VertexSet,
    /// Weakly balanced coloring of the remainder `W₁`.
    pub chi1: Coloring,
    /// Its domain `W₁ = W \ W₀`.
    pub w1: VertexSet,
}

/// The `Shrink` procedure (Lemma 14): `CutDown` overweight classes into a
/// buffer, `AddTo` underweight classes from the buffer (or from wealthy
/// donors, Corollary 17), `ReduceBuffer` leftovers onto light classes, then
/// extract one rich layer `X_i` per class (Corollary 18) to form `χ₀`.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the paper's procedure parameters"
)]
pub fn shrink<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
    p: f64,
    params: &ShrinkParams,
) -> ShrinkOutput {
    Workspace::with_local(|ws| shrink_ws(g, costs, splitter, chi, domain, weights, p, params, ws))
}

/// [`shrink`] against an explicit [`Workspace`]: every dense measure this
/// level materializes (`π`, `deg_W`, per-class boundary measures) comes
/// from the reusable scratch pool, so one shrink level costs
/// `O(vol(W) + k)` in buffer work instead of `O(n)` per measure.
#[allow(
    clippy::too_many_arguments,
    reason = "the paper's parameters plus the workspace"
)]
pub fn shrink_ws<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
    p: f64,
    params: &ShrinkParams,
    ws: &Workspace,
) -> ShrinkOutput {
    let n = g.num_vertices();
    let k = chi.k();
    let eps = params.epsilon;
    let m_cap = params.weak_factor;
    let total = set_sum(weights, domain);
    let psi_star = total / k as f64;
    assert!(psi_star > 0.0, "shrink requires positive total weight");

    // Protected measures that must shrink geometrically: π and the induced
    // degree (Definition 13 uses deg_W to control |G[W₁]|); the per-class
    // boundary measure is added per extraction call. All three live in
    // reusable workspace buffers.
    let pi = splitting_cost_measure_within_ws(g, costs, p, 1.0, domain, ws);
    let pi = pi.as_slice();
    let deg_w = induced_degree_measure_ws(g, domain, ws);
    let deg_w = deg_w.as_slice();

    let mut classes: Vec<VertexSet> = chi.class_sets_within(domain);
    let class_w = |c: &VertexSet| set_sum(weights, c);
    let mut buffer: Vec<VertexSet> = Vec::new();

    // CutDown: classes above M/2·Ψ* shed lean pieces of weight ≈ ε·Ψ*.
    while let Some(i) = (0..k).find(|&i| class_w(&classes[i]) > m_cap / 2.0 * psi_star) {
        let bm = boundary_measure_ws(g, costs, &classes[i], ws);
        let protected: [&[f64]; 3] = [pi, deg_w, bm.as_slice()];
        let x = extract_lean(splitter, &classes[i], weights, &protected, eps * psi_star);
        if x.is_empty() || x.len() >= classes[i].len() {
            break; // defensive: no usable piece
        }
        classes[i].difference_with(&x);
        buffer.push(x);
    }

    // AddTo: classes below ε·Ψ* receive a buffered piece, or a lean piece
    // from the currently heaviest donor (Corollary 17 path).
    for i in 0..k {
        if class_w(&classes[i]) >= eps * psi_star {
            continue;
        }
        let x = if let Some(x) = buffer.pop() {
            x
        } else {
            let donor = (0..k)
                .filter(|&j| j != i && class_w(&classes[j]) >= psi_star / 2.0)
                // total_cmp + index tie-break: max_by is last-wins, so
                // `then(b.cmp(&a))` pins ties to the lowest donor index.
                .max_by(|&a, &b| {
                    class_w(&classes[a])
                        .total_cmp(&class_w(&classes[b]))
                        .then(b.cmp(&a))
                });
            let Some(j) = donor else { continue };
            let bm = boundary_measure_ws(g, costs, &classes[j], ws);
            let protected: [&[f64]; 3] = [pi, deg_w, bm.as_slice()];
            let x = extract_lean(splitter, &classes[j], weights, &protected, eps * psi_star);
            if x.is_empty() || x.len() >= classes[j].len() {
                continue;
            }
            classes[j].difference_with(&x);
            x
        };
        classes[i].union_with(&x);
    }

    // ReduceBuffer: park leftovers on the lightest classes.
    while let Some(x) = buffer.pop() {
        // min_by is first-wins on ties → lowest-indexed lightest class.
        let i = (0..k)
            .min_by(|&a, &b| class_w(&classes[a]).total_cmp(&class_w(&classes[b])))
            .expect("k >= 1 classes");
        classes[i].union_with(&x);
    }

    // Rich layer extraction: X_i per class forms χ₀; remainders form χ₁.
    let mut chi0 = Coloring::new_uncolored(n, k);
    let mut chi1 = Coloring::new_uncolored(n, k);
    let mut w0 = VertexSet::empty(n);
    for (i, class) in classes.iter().enumerate() {
        let cw = class_w(class);
        if cw <= 0.0 || class.is_empty() {
            continue;
        }
        let gamma = (eps * psi_star / cw).min(1.0);
        let bm = boundary_measure_ws(g, costs, class, ws);
        let protected: [&[f64]; 3] = [pi, deg_w, bm.as_slice()];
        let x = if gamma >= 1.0 {
            class.clone()
        } else {
            extract_rich(splitter, class, weights, &protected, gamma)
        };
        for v in x.iter() {
            chi0.set(v, i as u32);
            w0.insert(v);
        }
        for v in class.difference(&x).iter() {
            chi1.set(v, i as u32);
        }
    }
    let w1 = domain.difference(&w0);
    ShrinkOutput { chi0, w0, chi1, w1 }
}

/// Proposition 11: transform a weakly `w`-balanced coloring of `domain`
/// into an **almost strictly balanced** one (every class within `2·‖w‖_∞`
/// of the average) without blowing up boundary or splitting costs.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the paper's procedure parameters"
)]
pub fn almost_strict<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
    p: f64,
    params: &ShrinkParams,
) -> Coloring {
    Workspace::with_local(|ws| {
        almost_strict_ws(g, costs, splitter, chi, domain, weights, p, params, ws)
    })
}

/// [`almost_strict`] against an explicit [`Workspace`], shared by **every
/// recursion level**: the shrink-and-conquer descent re-uses the same few
/// scratch buffers from the root call down to the base case, which is what
/// makes a level cost `O(vol(W))` instead of `O(n)`.
#[allow(
    clippy::too_many_arguments,
    reason = "the paper's parameters plus the workspace"
)]
pub fn almost_strict_ws<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
    p: f64,
    params: &ShrinkParams,
    ws: &Workspace,
) -> Coloring {
    almost_strict_rec(g, costs, splitter, chi, domain, weights, p, params, 0, ws)
}

#[allow(
    clippy::too_many_arguments,
    reason = "the paper's parameters plus the recursion depth and the workspace"
)]
fn almost_strict_rec<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
    p: f64,
    params: &ShrinkParams,
    depth: usize,
    ws: &Workspace,
) -> Coloring {
    let k = chi.k();
    let total = set_sum(weights, domain);
    if domain.is_empty() || total <= 0.0 {
        return chi.restrict_to(domain);
    }
    let psi_star = total / k as f64;
    let wmax = set_max(weights, domain);

    // Base case (paper: ‖w‖∞ > ε⁵·Ψ*; we trigger at ε/2·Ψ* — the layer
    // machinery needs pieces of weight ε·Ψ* ≥ 2‖w‖∞ to exist).
    if wmax > params.epsilon / 2.0 * psi_star || depth >= params.max_depth {
        let w1 = vec![0.0; k];
        return binpack1(
            g,
            costs,
            splitter,
            &chi.restrict_to(domain),
            domain,
            weights,
            &w1,
            wmax,
        );
    }

    let sh = shrink_ws(g, costs, splitter, chi, domain, weights, p, params, ws);
    if sh.w1.len() >= domain.len() || sh.w0.is_empty() {
        // Defensive: shrink made no progress; fall back to direct packing.
        let w1 = vec![0.0; k];
        return binpack1(
            g,
            costs,
            splitter,
            &chi.restrict_to(domain),
            domain,
            weights,
            &w1,
            wmax,
        );
    }

    let chi1_hat = almost_strict_rec(
        g,
        costs,
        splitter,
        &sh.chi1,
        &sh.w1,
        weights,
        p,
        params,
        depth + 1,
        ws,
    );
    // Conquer (Lemma 15): re-pack χ₀ so that χ̃₀ ⊕ χ̂₁ is almost strict.
    let w1_weights = chi1_hat.class_measures(weights);
    let chi0_tilde = binpack1(
        g,
        costs,
        splitter,
        &sh.chi0,
        &sh.w0,
        weights,
        &w1_weights,
        wmax,
    );
    chi0_tilde.direct_sum(&chi1_hat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::norm_inf;
    use mmb_splitters::grid::GridSplitter;

    fn setup(side: usize) -> (GridGraph, Vec<f64>) {
        let grid = GridGraph::lattice(&[side, side]);
        let costs = vec![1.0; grid.graph.num_edges()];
        (grid, costs)
    }

    #[test]
    fn iterative_partition_covers_and_sizes() {
        let (grid, costs) = setup(10);
        let sp = GridSplitter::new(&grid, &costs);
        let u = VertexSet::full(100);
        let psi: Vec<f64> = (0..100).map(|v| 1.0 + (v % 2) as f64).collect();
        let parts = iterative_partition(&sp, &u, &psi, 15.0);
        // Pieces are disjoint and cover U.
        let mut seen = VertexSet::empty(100);
        for p in &parts {
            assert!(p.is_disjoint(&seen));
            seen.union_with(p);
        }
        assert_eq!(seen, u);
        // All but the final remainder weigh in [ψ*, ψ* + max]; the final
        // one is ≤ 3ψ*.
        for (idx, part) in parts.iter().enumerate() {
            let w = set_sum(&psi, part);
            if idx + 1 < parts.len() {
                assert!((15.0..=15.0 + 2.0 + 1e-9).contains(&w), "piece {idx}: {w}");
            } else {
                assert!(w <= 45.0 + 1e-9, "remainder too heavy: {w}");
            }
        }
    }

    #[test]
    fn extract_lean_is_cheap_in_protected_measures() {
        let (grid, costs) = setup(12);
        let sp = GridSplitter::new(&grid, &costs);
        let n = 144;
        let u = VertexSet::full(n);
        let psi = vec![1.0; n];
        // A protected measure concentrated on the left edge.
        let hot: Vec<f64> = (0..n as u32)
            .map(|v| if grid.coord(v)[0] == 0 { 10.0 } else { 0.0 })
            .collect();
        let protected: [&[f64]; 1] = [&hot];
        let x = extract_lean(&sp, &u, &psi, &protected, 12.0);
        let frac = set_sum(&hot, &x) / set_sum(&hot, &u);
        // The lean piece must dodge the hot column: far below its
        // proportional share would be 12/144 ≈ 8.3%… require ≤ one part's
        // worth of slack.
        assert!(
            frac <= 0.34,
            "lean extraction took {frac} of the hot measure"
        );
        let w = set_sum(&psi, &x);
        assert!((12.0..=36.0 + 1e-9).contains(&w));
    }

    #[test]
    fn extract_rich_takes_its_share() {
        let (grid, costs) = setup(12);
        let sp = GridSplitter::new(&grid, &costs);
        let n = 144;
        let u = VertexSet::full(n);
        let psi = vec![1.0; n];
        let hot: Vec<f64> = (0..n as u32)
            .map(|v| if grid.coord(v)[0] == 11 { 5.0 } else { 0.1 })
            .collect();
        let protected: [&[f64]; 1] = [&hot];
        let gamma = 0.2;
        let x = extract_rich(&sp, &u, &psi, &protected, gamma);
        // Ψ(X) ≈ γ·Ψ(U).
        let w = set_sum(&psi, &x);
        assert!(w >= gamma * n as f64 - 1.0, "rich piece too light: {w}");
        // And it grabbed at least Ω(γ/r) of the hot measure.
        let frac = set_sum(&hot, &x) / set_sum(&hot, &u);
        assert!(frac >= gamma / 3.0 - 1e-9, "rich piece too poor: {frac}");
    }

    #[test]
    fn shrink_layer_properties() {
        let (grid, costs) = setup(16);
        let n = 256;
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let k = 4;
        let weights = vec![1.0; n];
        // Weakly balanced but uneven start: vertical stripes of widths
        // 2/2/4/8 (classes 64·{0.5, 0.5, 1, 2}).
        let chi = Coloring::from_fn(n, k, |v| match grid.coord(v)[0] {
            0..=1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            _ => 3,
        });
        let params = ShrinkParams::default();
        let out = shrink(
            &grid.graph,
            &costs,
            &sp,
            &chi,
            &domain,
            &weights,
            2.0,
            &params,
        );
        // W₀/W₁ partition the domain.
        assert!(out.w0.is_disjoint(&out.w1));
        assert_eq!(out.w0.union(&out.w1), domain);
        assert!(!out.w0.is_empty());
        // χ₀ classes all weigh ≈ ε·Ψ* = 0.25·64 = 16.
        let psi_star = n as f64 / k as f64;
        let eps = params.epsilon;
        let cm0 = out.chi0.class_measures(&weights);
        for (i, &c) in cm0.iter().enumerate() {
            assert!(
                c >= eps * psi_star - 2.0 && c <= 3.0 * eps * psi_star + 2.0,
                "χ₀ class {i} weight {c} outside the ε·Ψ* window"
            );
        }
        // χ₁ stays weakly balanced under M.
        let w1_total = set_sum(&weights, &out.w1);
        let cm1 = out.chi1.class_measures(&weights);
        let m = params.weak_factor;
        for &c in &cm1 {
            assert!(c <= m * w1_total / k as f64 + 1e-9);
        }
    }

    #[test]
    fn almost_strict_reaches_two_wmax() {
        let (grid, costs) = setup(16);
        let n = 256;
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let k = 4;
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 7) % 3) as f64).collect();
        // Unbalanced stripes again.
        let chi = Coloring::from_fn(n, k, |v| match grid.coord(v)[0] {
            0..=1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            _ => 3,
        });
        let out = almost_strict(
            &grid.graph,
            &costs,
            &sp,
            &chi,
            &domain,
            &weights,
            2.0,
            &ShrinkParams::default(),
        );
        assert!(out.is_total_on(&domain));
        let total: f64 = domain.iter().map(|v| weights[v as usize]).sum();
        let avg = total / k as f64;
        let wmax = norm_inf(&weights);
        let cm = out.class_measures(&weights);
        for (i, &c) in cm.iter().enumerate() {
            assert!(
                (c - avg).abs() <= 2.0 * wmax + 1e-9,
                "class {i} weight {c} not almost strict (avg {avg}, wmax {wmax})"
            );
        }
    }

    #[test]
    fn almost_strict_zero_weight_domain() {
        let (grid, costs) = setup(4);
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(16);
        let chi = Coloring::monochromatic(16, 2);
        let weights = vec![0.0; 16];
        let out = almost_strict(
            &grid.graph,
            &costs,
            &sp,
            &chi,
            &domain,
            &weights,
            2.0,
            &ShrinkParams::default(),
        );
        assert!(out.is_total_on(&domain));
    }
}
