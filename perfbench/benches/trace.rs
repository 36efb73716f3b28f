//! Outside-in layer spans: the traced runs time each call into a layer's
//! public functions from here, so the program itself is unchanged.

use std::collections::BTreeMap;
use std::time::Instant;

/// Named per-layer totals (seconds for `*_s` names, counts otherwise),
/// summed over the traced operations of one run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Run `f`, adding its wall time in seconds to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Add `x` to `name`.
    pub fn add(&mut self, name: &'static str, x: f64) {
        *self.values.entry(name).or_insert(0.0) += x;
    }

    /// The sum of the totals recorded under `names`.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.values.get(n)).sum()
    }

    /// Every total divided by `ops`: the per-operation figures the traced
    /// run reports.
    pub fn per_op(&self, ops: usize) -> BTreeMap<&'static str, f64> {
        let ops = ops.max(1) as f64;
        self.values.iter().map(|(&k, &v)| (k, v / ops)).collect()
    }
}
