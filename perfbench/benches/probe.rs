//! A counting [`Splitter`] wrapper for the traced runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mmb_graph::VertexSet;
use mmb_splitters::Splitter;

/// Wraps a splitter and delegates every call to it unchanged, counting the
/// calls, the vertices of each queried subset, and the time spent inside
/// `split`. Because it only forwards, a pipeline driven through the probe
/// produces the same coloring as one driven by the wrapped splitter.
///
/// The pipeline calls splitters from several worker threads at once, so the
/// counters are atomics; they publish no other data, hence `Relaxed`.
/// `split_s` sums the time of every call, across threads.
pub struct SplitterProbe<'a> {
    inner: Box<dyn Splitter + 'a>,
    calls: AtomicU64,
    subset_vertices: AtomicU64,
    nanos: AtomicU64,
}

/// A snapshot of a probe's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeCounts {
    /// `split` calls.
    pub calls: u64,
    /// Sum over calls of the queried subset's size.
    pub subset_vertices: u64,
    /// Seconds spent inside `split`, summed over calls.
    pub split_s: f64,
}

impl ProbeCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: ProbeCounts) -> ProbeCounts {
        ProbeCounts {
            calls: self.calls - earlier.calls,
            subset_vertices: self.subset_vertices - earlier.subset_vertices,
            split_s: self.split_s - earlier.split_s,
        }
    }
}

impl<'a> SplitterProbe<'a> {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Splitter + 'a>) -> Self {
        SplitterProbe {
            inner,
            calls: AtomicU64::new(0),
            subset_vertices: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            calls: self.calls.load(Ordering::Relaxed),
            subset_vertices: self.subset_vertices.load(Ordering::Relaxed),
            split_s: self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl Splitter for SplitterProbe<'_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        let t = Instant::now();
        let out = self.inner.split(w_set, weights, target);
        let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.subset_vertices
            .fetch_add(w_set.len() as u64, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
