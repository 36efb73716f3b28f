//! The conquer-phase bin packing `BinPack1` (Lemma 15, Appendix A.2).
//!
//! Input: a coloring `χ₀` of `W₀` and fixed per-color companion weights
//! `w₁(i)` (the class weights of the already-fixed coloring `χ̂₁` of `W₁`).
//! Output: a transformed `χ̃₀` such that the direct sum `χ̃₀ ⊕ χ̂₁` is
//! **almost strictly balanced**: `|w(χ̃₀⁻¹(i)) + w₁(i) − w*| ≤ 2‖w‖_∞` for
//! every color, where `w* = (w(W₀) + Σᵢ w₁(i))/k`.
//!
//! The procedure carves pieces of weight `∈ [‖w‖_∞, 2‖w‖_∞]` off overweight
//! colors (one splitting set each), buffers them, and re-distributes them
//! greedily. Because each piece weighs at least `‖w‖_∞`, every color
//! changes only a constant number of times, which is what keeps the
//! boundary and splitting costs from growing by more than a constant
//! factor.

use mmb_graph::measure::{set_max, set_sum};
use mmb_graph::{Coloring, Graph, VertexSet};
use mmb_splitters::Splitter;

use crate::strict::carve_classes;

/// `BinPack1` (Lemma 15).
///
/// * `chi0` must be total on `w0_set`.
/// * `w1[i]` is the fixed companion weight of color `i` (use zeros when
///   there is no `W₁`, e.g. in Proposition 11's base case).
/// * `wmax` is the `‖w‖_∞` of the *enclosing* vertex set `W = W₀ ∪ W₁`
///   (passed in because `W₁`'s vertices are not visible here).
#[allow(
    clippy::too_many_arguments,
    reason = "the paper's procedure parameters plus the enclosing set's ‖w‖_∞"
)]
pub fn binpack1<S: Splitter + ?Sized>(
    g: &Graph,
    _costs: &[f64],
    splitter: &S,
    chi0: &Coloring,
    w0_set: &VertexSet,
    weights: &[f64],
    w1: &[f64],
    wmax: f64,
) -> Coloring {
    let n = g.num_vertices();
    let k = chi0.k();
    assert_eq!(w1.len(), k, "w1 must have one entry per color");
    let wmax = wmax.max(set_max(weights, w0_set));

    let classes = chi0.class_sets_within(w0_set);
    let cw = |c: &VertexSet| set_sum(weights, c);
    let w_total: f64 = classes.iter().map(&cw).sum::<f64>() + w1.iter().sum::<f64>();
    let w_star = w_total / k as f64;

    if wmax <= 0.0 {
        // All weights zero: any coloring is exactly balanced.
        return chi0.restrict_to(w0_set);
    }

    // Step 2: shed pieces of weight ∈ [‖w‖∞, 2‖w‖∞] from overweight colors
    // until every color satisfies w + w₁ ≤ w*. Colors shed independently
    // (the buffer only collects), so [`carve_classes`] fans the cut-down
    // out per color.
    let (mut classes, mut buffer) = carve_classes(
        classes.into_iter().zip(w1.iter().copied()),
        w0_set.len(),
        |(mut class, w1_i): (VertexSet, f64)| {
            let mut pieces = Vec::new();
            while cw(&class) + w1_i > w_star && !class.is_empty() {
                let class_weight = cw(&class);
                let x = if class_weight <= 2.0 * wmax {
                    std::mem::replace(&mut class, VertexSet::empty(n))
                } else {
                    let x = splitter.split(&class, weights, 1.5 * wmax);
                    if x.is_empty() || set_sum(weights, &x) <= 0.0 {
                        // Defensive: peel the heaviest single vertex instead.
                        // total_cmp + id tie-break (max_by is last-wins, so
                        // `then(b.cmp(&a))` makes the lowest id win ties).
                        let heaviest = class
                            .iter()
                            .max_by(|&a, &b| {
                                weights[a as usize]
                                    .total_cmp(&weights[b as usize])
                                    .then(b.cmp(&a))
                            })
                            .expect("class is non-empty");
                        VertexSet::from_iter(n, [heaviest])
                    } else {
                        x
                    }
                };
                class.difference_with(&x);
                pieces.push(x);
            }
            (class, pieces)
        },
    );

    // Step 3: refill colors that are far below the average.
    while let Some(i) = (0..k).find(|&i| cw(&classes[i]) + w1[i] < w_star - 2.0 * wmax) {
        let Some(x) = buffer.pop() else {
            break; // precondition violated; BinPack2 restores strictness later
        };
        classes[i].union_with(&x);
    }

    // Step 4: place leftovers on the lightest colors.
    while let Some(x) = buffer.pop() {
        // min_by is first-wins on ties → lowest-indexed lightest color.
        let i = (0..k)
            .min_by(|&a, &b| (cw(&classes[a]) + w1[a]).total_cmp(&(cw(&classes[b]) + w1[b])))
            .expect("k >= 1 classes");
        classes[i].union_with(&x);
    }

    let mut out = Coloring::new_uncolored(n, k);
    for (i, class) in classes.iter().enumerate() {
        for v in class.iter() {
            out.set(v, i as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::norm_inf;
    use mmb_splitters::grid::GridSplitter;

    fn almost_strict_defect(cm: &[f64], w1: &[f64], wmax: f64) -> f64 {
        let k = cm.len();
        let total: f64 = cm.iter().zip(w1).map(|(a, b)| a + b).sum();
        let avg = total / k as f64;
        cm.iter()
            .zip(w1)
            .map(|(a, b)| ((a + b) - avg).abs())
            .fold(0.0, f64::max)
            - 2.0 * wmax
    }

    #[test]
    fn packs_unbalanced_stripes() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = 256;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w0 = VertexSet::full(n);
        let weights = vec![1.0; n];
        let k = 4;
        let chi0 = Coloring::from_fn(n, k, |v| match grid.coord(v)[0] {
            0..=0 => 0,
            1..=2 => 1,
            3..=6 => 2,
            _ => 3,
        });
        let w1 = vec![0.0; k];
        let out = binpack1(&grid.graph, &costs, &sp, &chi0, &w0, &weights, &w1, 1.0);
        assert!(out.is_total_on(&w0));
        let cm = out.class_measures(&weights);
        assert!(
            almost_strict_defect(&cm, &w1, 1.0) <= 1e-9,
            "not almost strict: {cm:?}"
        );
    }

    #[test]
    fn respects_companion_weights() {
        let grid = GridGraph::lattice(&[12, 12]);
        let n = 144;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w0 = VertexSet::full(n);
        let weights = vec![1.0; n];
        let k = 3;
        // Companion weights force color 0 to stay small in W₀.
        let w1 = vec![80.0, 10.0, 0.0];
        let chi0 = Coloring::from_fn(n, k, |v| v % 3);
        let out = binpack1(&grid.graph, &costs, &sp, &chi0, &w0, &weights, &w1, 1.0);
        let cm = out.class_measures(&weights);
        let defect = almost_strict_defect(&cm, &w1, 1.0);
        assert!(defect <= 1e-9, "defect {defect}, classes {cm:?} + {w1:?}");
    }

    #[test]
    fn heavy_vertices_are_peeled() {
        // One vertex weighs as much as everything else combined; almost
        // strict balance must still hold (within 2·wmax).
        let grid = GridGraph::lattice(&[8, 8]);
        let n = 64;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w0 = VertexSet::full(n);
        let mut weights = vec![1.0; n];
        weights[27] = 63.0;
        let k = 2;
        let chi0 = Coloring::monochromatic(n, k);
        let w1 = vec![0.0; k];
        let wmax = norm_inf(&weights);
        let out = binpack1(&grid.graph, &costs, &sp, &chi0, &w0, &weights, &w1, wmax);
        let cm = out.class_measures(&weights);
        assert!(
            almost_strict_defect(&cm, &w1, wmax) <= 1e-9,
            "classes {cm:?}"
        );
    }

    #[test]
    fn zero_weights_noop() {
        let grid = GridGraph::lattice(&[4, 4]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w0 = VertexSet::full(16);
        let weights = vec![0.0; 16];
        let chi0 = Coloring::from_fn(16, 2, |v| v % 2);
        let out = binpack1(
            &grid.graph,
            &costs,
            &sp,
            &chi0,
            &w0,
            &weights,
            &[0.0, 0.0],
            0.0,
        );
        assert_eq!(out, chi0);
    }
}
