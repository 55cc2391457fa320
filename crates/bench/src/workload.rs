//! Shared workload generation for the experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{ClusterSpec, Dag};

/// The paper's simulation workload: `n` random DAGs of `tasks` tasks each
/// (width 2–5, normal runtimes/demands), deterministically from `seed`.
pub fn simulation_dags(n: usize, tasks: usize, seed: u64) -> Vec<Dag> {
    let spec = LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_simulation()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| spec.generate(&mut rng)).collect()
}

/// The evaluation cluster: unit CPU + memory, as in the motivating
/// example and the simulation section.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::unit(2)
}

/// Mean of a slice of u64 makespans.
pub fn mean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Mean of a slice of f64 values.
pub fn mean_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of f64 values.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dags_are_deterministic_and_sized() {
        let a = simulation_dags(3, 40, 1);
        let b = simulation_dags(3, 40, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|d| d.len() == 40));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean_u64(&[2, 4]), 3.0);
        assert_eq!(mean_u64(&[]), 0.0);
        assert_eq!(mean_f64(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
