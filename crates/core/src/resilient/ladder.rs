//! The rung names of the degradation ladder and its locality-aware greedy
//! rung.
//!
//! The two bottom rungs are greedy-lightest assignments
//! ([`assign_to_lightest`]), strictly balanced in any insertion order:
//! **first-fit** walks the vertex ids, the **trivial** floor is the LPT
//! greedy of [`verify::lpt_floor`](crate::verify::lpt_floor). Every rung's
//! output, these included, is served only through
//! [`verify::gate`](crate::verify::gate).

use mmb_graph::Coloring;

use crate::api::instance::Instance;
use crate::strict::assign_to_lightest;

/// The names of the built-in rungs, in ladder order.
pub(crate) const RUNG_CERTIFIED: &str = "certified";
pub(crate) const RUNG_PIPELINE: &str = "pipeline";
pub(crate) const RUNG_FIRST_FIT: &str = "first-fit";
pub(crate) const RUNG_TRIVIAL: &str = "trivial";

/// The cheap strict baseline rung: first-fit greedy in vertex-id order.
/// Same balance guarantee as LPT; id order preserves whatever locality
/// the instance's vertex numbering carries (row-major grids, path walks),
/// so its boundary cost is usually far below the weight-sorted LPT's.
pub(crate) fn first_fit_coloring(inst: &Instance, k: usize) -> Coloring {
    let n = inst.num_vertices();
    let mut chi = Coloring::new_uncolored(n, k);
    assign_to_lightest(&mut chi, inst.weights(), 0..n as u32);
    chi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::lpt_floor;
    use mmb_graph::gen::misc::path;

    fn inst_with_weights(n: usize, weights: Vec<f64>) -> Instance {
        let g = path(n);
        let m = g.num_edges();
        Instance::new(g, vec![1.0; m], weights).unwrap()
    }

    #[test]
    fn both_greedy_rungs_are_strict_on_adversarial_weights() {
        for weights in [
            vec![1.0; 17],
            vec![0.0; 17],
            (0..17).map(|i| (i as f64).exp()).collect::<Vec<_>>(),
            (0..17).rev().map(|i| i as f64).collect::<Vec<_>>(),
        ] {
            let inst = inst_with_weights(17, weights);
            for k in [1, 2, 3, 5] {
                for chi in [lpt_floor(&inst, k).0, first_fit_coloring(&inst, k)] {
                    assert!(chi.is_total());
                    assert!(
                        chi.is_strictly_balanced(inst.weights()),
                        "defect {} at k={k}",
                        chi.strict_balance_defect(inst.weights())
                    );
                }
            }
        }
    }

    #[test]
    fn first_fit_beats_lpt_on_a_path() {
        // Id order on a path is the walk itself: first-fit cuts O(k)
        // edges where weight-sorted LPT shreds the locality.
        let inst = inst_with_weights(32, vec![1.0; 32]);
        let ff = first_fit_coloring(&inst, 4).max_boundary_cost(inst.graph(), inst.costs());
        let lpt = lpt_floor(&inst, 4).1;
        assert!(ff <= lpt, "first-fit {ff} vs lpt {lpt}");
    }
}
