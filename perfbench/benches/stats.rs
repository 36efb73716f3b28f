//! Sample summaries and the small seeded stream the workloads draw from.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Nearest-rank percentile `pct` of `xs`, together with the number of
/// samples strictly beyond that rank.
pub fn percentile(xs: &[f64], pct: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(s.len());
    (s[rank - 1], s.len() - rank)
}

/// Mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// splitmix64: the seeded stream every generated input comes from, so one
/// `--seed` always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Stream(u64);

impl Stream {
    /// A stream for `seed`, separated from other uses of the same seed by
    /// `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = Stream(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), (90.0, 10));
        assert_eq!(median(&xs), 50.5);
    }
}
