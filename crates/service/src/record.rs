//! Per-request serving records: what path a request took through the
//! service, how the artifact cache behaved, and how long it all took.
//!
//! The serving counterpart of `mmb-core`'s `Resilience` record — one
//! structured observation per request, so a load test (or an operator)
//! can tell cold from warm traffic and spot cache pathologies without
//! scraping logs.

/// How the artifact cache behaved for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent {
    /// Key matched and the exact collision check confirmed: the cached
    /// topology artifacts (the recognized structure) were reused by a
    /// cold solve.
    Hit,
    /// Cold lookup; artifacts computed and inserted.
    Miss,
    /// Key matched but the exact check refused the entry (64-bit hash
    /// collision); artifacts recomputed.
    Collision,
    /// A fault fired inside the cache lookup: the matching entry was
    /// evicted and the request rebuilt cold. A poisoned entry is never
    /// served.
    Poisoned,
    /// The request did not consult the cache: every [`Request::Mutate`]
    /// (the warm repair builds no solver), and requests rejected before
    /// their cold solve looked anything up.
    ///
    /// [`Request::Mutate`]: crate::Request::Mutate
    NotConsulted,
}

/// Which solve path produced the served coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePath {
    /// Fresh solve of a newly admitted instance, gated like every other
    /// path (`verify::gate`); when the pipeline's coloring loses to the
    /// LPT floor, the floor is what serves.
    Cold,
    /// Incumbent repair via `mmb_core::api::resolve_delta` survived the
    /// serving gate; no solver was built and the cache was not consulted.
    Warm,
    /// The warm repair was rejected by the gate; the mutated instance
    /// was re-solved from scratch.
    ColdFallback,
    /// Nothing was served (admission failure, unknown ticket, injected
    /// fault, or panic).
    Rejected,
}

/// One request's serving record.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingRecord {
    /// Position of the request in its batch.
    pub index: usize,
    /// Whether admission (typed input validation + the admission
    /// failpoint) passed.
    pub admitted: bool,
    /// Cache behavior.
    pub cache: CacheEvent,
    /// Solve path.
    pub path: ServePath,
    /// Wall-clock serving time, milliseconds. Observational only —
    /// never feeds back into any coloring.
    pub elapsed_millis: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_plain_data() {
        let r = ServingRecord {
            index: 3,
            admitted: true,
            cache: CacheEvent::Hit,
            path: ServePath::Warm,
            elapsed_millis: 0.25,
        };
        assert_eq!(r.clone(), r);
        assert_ne!(CacheEvent::Hit, CacheEvent::Poisoned);
        assert_ne!(ServePath::Warm, ServePath::ColdFallback);
    }
}
