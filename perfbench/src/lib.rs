//! End-to-end and per-layer benchmark of the Spear scheduler.
//!
//! One process, one thread, one client in a closed loop: the next job is
//! submitted when the previous schedule returns. See `README.md` for the
//! workloads, the metrics and how to read a traced run.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod host;
pub mod metrics;
pub mod stats;
pub mod traced;
pub mod workload;

use std::error::Error;

pub use metrics::Report;
pub use workload::{Scale, Workload};

/// Runs one workload untraced (`trace == false`: end-to-end metrics) or
/// traced (per-layer metrics) and returns the result line.
///
/// # Errors
///
/// Fails if set-up fails (for example, the policy file is missing).
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<String, Box<dyn Error>> {
    Ok(if trace {
        traced::run(workload, scale, seed)?.to_json(metrics::PER_LAYER)
    } else {
        e2e::run(workload, scale, seed, seconds)?.to_json(metrics::END_TO_END)
    })
}
