//! One violation per soundness rule (DESIGN.md §11). Every item below must
//! draw a lint under
//!
//! ```text
//! cargo clippy -p mmb-lint-fixture -- -D warnings $LIB_LINTS
//! ```
//!
//! so a configuration change that silently disables a rule fails CI.
//! `unsafe` is left out on purpose: `unsafe_code = "forbid"` is a hard
//! rustc error and would break `cargo check --workspace`.

// hash-order-leak (`clippy::disallowed_types`).
use std::collections::{HashMap, HashSet};

/// nan-unsafe-cmp: `partial_cmp` (`clippy::disallowed_methods`).
pub fn nan_unsafe_order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

/// hash-order-leak: a hash-set iteration method
/// (`clippy::disallowed_methods`).
pub fn hash_set_order(set: &HashSet<u32>) -> Vec<u32> {
    set.iter().copied().collect()
}

/// hash-order-leak: a `for` loop over a hash map
/// (`clippy::iter_over_hash_type`).
pub fn hash_map_loop(map: &HashMap<u32, u32>) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (&key, &value) in map {
        pairs.push((key, value));
    }
    pairs
}

/// nondeterminism: a wall-clock read (`clippy::disallowed_methods`).
pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// nondeterminism: an environment read (`clippy::disallowed_methods`).
pub fn environment() -> Option<String> {
    std::env::var("MMB_LINT_FIXTURE").ok()
}

/// catch-unwind: an unaudited unwind boundary
/// (`clippy::disallowed_methods`).
pub fn unwind_boundary() -> bool {
    std::panic::catch_unwind(|| ()).is_ok()
}

/// float-eq: exact compare of computed floats (`clippy::float_cmp`). The
/// name must not end in `eq`, which `float_cmp` exempts.
pub fn float_compare(a: f64, b: f64) -> bool {
    a == b
}

/// panic-in-lib: a bare unwrap (`clippy::unwrap_used`).
pub fn bare_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// panic-in-lib: `panic!` (`clippy::panic`).
pub fn explicit_panic() {
    panic!("library code must not panic");
}

/// panic-in-lib: `unreachable!` (`clippy::unreachable`).
pub fn unreachable_arm(x: u32) -> u32 {
    match x {
        0 => 1,
        _ => unreachable!(),
    }
}

/// bad-pragma: a suppression without a reason
/// (`clippy::allow_attributes_without_reason`).
#[allow(clippy::too_many_arguments)]
pub fn reasonless_allow() {}

/// unused-pragma: an expectation nothing fulfils
/// (`unfulfilled_lint_expectations`).
#[expect(
    clippy::disallowed_methods,
    reason = "stale: nothing here calls a disallowed method"
)]
pub fn stale_expectation() {}
