//! Output checks, recomputed here from the coloring and the inputs alone,
//! so a bookkeeping error inside the program cannot vouch for itself.

use mmb_graph::{Coloring, Graph};

/// Relative tolerance of every floating-point comparison below; the same
/// scale-invariant slack the library applies to eq. (1).
const TOL: f64 = 1e-9;

/// Check that `chi` is a total `k`-coloring of `g`, strictly balanced in
/// `weights` (eq. (1): every class within `(1 − 1/k)·‖w‖∞` of `w(V)/k`),
/// and that its maximum boundary cost equals `reported`. Returns the
/// recomputed maximum boundary cost.
pub fn check_partition(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    chi: &Coloring,
    reported: f64,
) -> Result<f64, String> {
    let n = g.num_vertices();
    if chi.k() != k || chi.num_vertices() != n {
        return Err(format!(
            "coloring shape ({} vertices, k = {}) does not match the input ({n}, {k})",
            chi.num_vertices(),
            chi.k()
        ));
    }
    let mut loads = vec![0.0f64; k];
    let mut wmax = 0.0f64;
    for v in 0..n as u32 {
        match chi.get(v) {
            Some(c) if (c as usize) < k => loads[c as usize] += weights[v as usize],
            Some(c) => return Err(format!("vertex {v} has class {c} ≥ k = {k}")),
            None => return Err(format!("vertex {v} is uncolored")),
        }
        wmax = wmax.max(weights[v as usize]);
    }
    let avg = loads.iter().sum::<f64>() / k as f64;
    let slack = (1.0 - 1.0 / k as f64) * wmax;
    let dev = loads.iter().map(|&x| (x - avg).abs()).fold(0.0, f64::max);
    if dev - slack > TOL * wmax.max(1e-300) {
        return Err(format!(
            "eq. (1) violated: class deviation {dev} exceeds slack {slack}"
        ));
    }
    let cost = max_boundary(g, costs, chi);
    if (cost - reported).abs() > TOL * cost.max(1e-300) + 1e-12 {
        return Err(format!(
            "reported max boundary {reported} differs from recomputed {cost}"
        ));
    }
    let library = chi.max_boundary_cost(g, costs);
    if (cost - library).abs() > TOL * cost.max(1e-300) + 1e-12 {
        return Err(format!(
            "Coloring::max_boundary_cost {library} differs from recomputed {cost}"
        ));
    }
    Ok(cost)
}

/// `‖∂χ⁻¹‖∞`: the largest total cost of edges leaving one class.
pub fn max_boundary(g: &Graph, costs: &[f64], chi: &Coloring) -> f64 {
    let mut boundary = vec![0.0f64; chi.k()];
    for (e, &(u, v)) in g.edge_list().iter().enumerate() {
        let (cu, cv) = (chi.raw(u) as usize, chi.raw(v) as usize);
        if cu != cv {
            boundary[cu] += costs[e];
            boundary[cv] += costs[e];
        }
    }
    boundary.into_iter().fold(0.0, f64::max)
}

/// The serving audit: an independent LPT floor (vertices by descending
/// weight, each to the lightest class), which every served cost must not
/// exceed.
pub fn check_lpt_floor(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    cost: f64,
) -> Result<(), String> {
    let mut order: Vec<u32> = (0..g.num_vertices() as u32).collect();
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut loads = vec![0.0f64; k];
    let mut chi = Coloring::new_uncolored(g.num_vertices(), k);
    for &v in &order {
        let lightest = (0..k)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .unwrap_or(0);
        loads[lightest] += weights[v as usize];
        chi.set(v, lightest as u32);
    }
    let floor = max_boundary(g, costs, &chi);
    if cost > floor + TOL * floor.max(1e-300) {
        return Err(format!("served cost {cost} exceeds the LPT floor {floor}"));
    }
    Ok(())
}

/// `max boundary ÷ Theorem 5's right-hand side`, the normaliser
/// `Report::bound_ratio` uses.
pub fn bound_ratio(costs: &[f64], k: usize, p: f64, cost: f64) -> f64 {
    let c_norm_p = costs
        .iter()
        .map(|c| c.abs().powf(p))
        .sum::<f64>()
        .powf(1.0 / p);
    let c_max = costs.iter().copied().fold(0.0, f64::max);
    cost / mmb_core::bounds::theorem5(p, k, c_norm_p, c_max).max(1e-300)
}
