//! Zero-cost-when-disabled observability for the Spear workspace.
//!
//! The crate provides four instrument kinds — [`Counter`], [`Gauge`],
//! [`Histogram`] (fixed log-spaced buckets) and scoped [`Span`] timers —
//! recorded into lock-free per-worker sinks ([`Obs`]) that a
//! [`MetricsRegistry`] merges at report time into a [`MetricsSnapshot`]
//! with a JSON Lines exporter.
//!
//! # Zero-cost argument
//!
//! Everything hot is gated on the `enabled` cargo feature:
//!
//! * **Compile time** — without `enabled`, every handle is a zero-sized
//!   struct and every recording method is an empty `#[inline]` function,
//!   so instrumented call sites compile to exactly the code they would be
//!   without instrumentation. Downstream crates expose this as an `obs`
//!   feature forwarding to `spear-obs/enabled`.
//! * **Run time** — with `enabled` compiled in, a handle detached from any
//!   sink (from [`Obs::noop`] or [`MetricsRegistry::disabled`]) is an
//!   `Option::None` behind one predictable branch.
//!
//! Recording never takes a lock: each worker owns its sink and cells are
//! plain relaxed atomics, so sinks can also be shared across threads when
//! convenient. Registration (handle creation) locks briefly and is meant
//! for setup paths only.
//!
//! # Example
//!
//! ```
//! use spear_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let obs = registry.sink("worker-0");
//! let admitted = obs.counter("sim.admissions");
//! admitted.add(3);
//! let snapshot = registry.snapshot();
//! if spear_obs::compiled() {
//!     assert_eq!(snapshot.counter_value("sim.admissions"), Some(3));
//!     assert!(snapshot.to_jsonl().contains("\"sim.admissions\""));
//! } else {
//!     // Built without the `enabled` feature: everything is inert.
//!     assert!(snapshot.metrics.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "enabled")]
pub(crate) mod cell;
mod export;
mod handles;
mod registry;
mod snapshot;

pub use handles::{Counter, Gauge, Histogram, Obs, Span};
pub use registry::MetricsRegistry;
pub use snapshot::{MetricValue, MetricsSnapshot};

/// Number of log-spaced histogram buckets. Bucket `0` covers `[0, 2)` and
/// bucket `i >= 1` covers `[2^i, 2^(i+1))`; the last bucket absorbs
/// everything from `2^47` up, which in nanoseconds is ≈ 39 hours.
pub const HIST_BUCKETS: usize = 48;

/// Whether the `enabled` feature was compiled in. `false` means every
/// instrument in the process is a no-op and snapshots are always empty.
#[must_use]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

/// The bucket a histogram value falls into: `floor(log2(v))` clamped to
/// the fixed bucket range.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        (63 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `index`, or `None` for the open-ended
/// last bucket.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    if index + 1 >= HIST_BUCKETS {
        None
    } else {
        Some((1u64 << (index + 1)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log_spaced() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous() {
        for i in 0..HIST_BUCKETS - 1 {
            let hi = bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), None);
    }
}
