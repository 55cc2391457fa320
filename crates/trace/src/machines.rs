//! Seeded generator of heterogeneous machine sets for cluster sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spear_cluster::{MachineSet, TransferMode};
use spear_dag::ResourceVec;

use crate::TraceError;

/// Knobs for generating a reproducible heterogeneous [`MachineSet`].
///
/// The experiment sweeps vary machine count and interconnect bandwidth
/// while keeping everything else pinned; this profile freezes those
/// knobs plus the heterogeneity spread, and [`generate`] turns a seed
/// into a concrete machine set deterministically.
///
/// Machine 0 always receives the full `base_capacity`, so any task that
/// is admissible on a unit cluster stays admissible on every generated
/// set; later machines shrink by a seeded factor in
/// `[1 − capacity_spread, 1]`. Off-diagonal links jitter around
/// `base_bandwidth` by up to `bandwidth_jitter` multiplicative steps.
///
/// [`generate`]: MachineProfile::generate
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Number of machines in the set.
    pub machines: usize,
    /// Resource dimensions per machine (CPU/memory = 2).
    pub dims: usize,
    /// Per-dimension capacity of the largest machine.
    pub base_capacity: f64,
    /// Heterogeneity: later machines keep a seeded fraction in
    /// `[1 − spread, 1]` of the base capacity. Zero makes the set
    /// homogeneous.
    pub capacity_spread: f64,
    /// Baseline link bandwidth in bytes per simulated time unit.
    pub base_bandwidth: u64,
    /// Each off-diagonal link is `base_bandwidth × k` for a seeded
    /// `k ∈ {1, …, 1 + jitter}`; zero pins every link to the baseline.
    pub bandwidth_jitter: u64,
    /// How cross-machine transfers route ([`TransferMode`]).
    pub mode: TransferMode,
    /// Upper bound on the seeded per-edge payload (see
    /// [`MachineSet::edge_bytes`]).
    pub max_edge_bytes: u64,
}

impl MachineProfile {
    /// The default sweep profile: `machines` CPU/memory boxes, the
    /// largest of unit capacity, moderate heterogeneity and direct
    /// links.
    pub fn sweep(machines: usize) -> Self {
        MachineProfile {
            machines,
            dims: 2,
            base_capacity: 1.0,
            capacity_spread: 0.5,
            base_bandwidth: 4,
            bandwidth_jitter: 1,
            mode: TransferMode::Direct,
            max_edge_bytes: 8,
        }
    }

    /// Generates the machine set deterministically from `seed`.
    ///
    /// The same seed also drives the set's per-edge payload sampling,
    /// so a `(profile, seed)` pair pins the whole network model.
    ///
    /// # Errors
    ///
    /// [`TraceError::Cluster`] if the knobs describe an invalid set
    /// (zero machines or more than
    /// [`MAX_MACHINES`](spear_cluster::hetero::MAX_MACHINES) — refused
    /// before anything is allocated — or zero dimensions, bandwidth or
    /// payload bound).
    pub fn generate(&self, seed: u64) -> Result<MachineSet, TraceError> {
        let n = self.machines;
        MachineSet::check_count(n).map_err(TraceError::Cluster)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut capacities = Vec::with_capacity(n);
        for m in 0..n {
            let keep = if m == 0 {
                1.0
            } else {
                1.0 - rng.gen::<f64>() * self.capacity_spread
            };
            capacities.push(ResourceVec::from_slice(&vec![
                self.base_capacity * keep;
                self.dims.max(1)
            ]));
        }
        let mut bandwidth = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let k = if src == dst || self.bandwidth_jitter == 0 {
                    1
                } else {
                    1 + rng.gen_range(0..=self.bandwidth_jitter)
                };
                bandwidth.push(self.base_bandwidth.saturating_mul(k));
            }
        }
        MachineSet::new(capacities, bandwidth, self.mode, seed, self.max_edge_bytes)
            .map_err(TraceError::Cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = MachineProfile::sweep(4);
        assert_eq!(p.generate(7).unwrap(), p.generate(7).unwrap());
        assert_ne!(p.generate(7).unwrap(), p.generate(8).unwrap());
    }

    #[test]
    fn machine_zero_keeps_the_full_capacity() {
        let ms = MachineProfile::sweep(3).generate(11).unwrap();
        assert_eq!(ms.len(), 3);
        assert_eq!(ms.capacity(0).as_slice(), &[1.0, 1.0]);
        for m in 1..3 {
            for &v in ms.capacity(m as u32).as_slice() {
                assert!((0.5..=1.0).contains(&v), "machine {m} capacity {v}");
            }
        }
    }

    #[test]
    fn bandwidth_stays_within_the_jitter_band() {
        let p = MachineProfile::sweep(3);
        let ms = p.generate(5).unwrap();
        for src in 0..3 {
            for dst in 0..3 {
                let bw = ms.bandwidth(src, dst);
                assert!(
                    bw == p.base_bandwidth || bw == p.base_bandwidth * 2,
                    "link {src}->{dst} bandwidth {bw}"
                );
            }
        }
    }

    #[test]
    fn degenerate_profiles_are_rejected() {
        use spear_cluster::ClusterError;
        // Machine counts outside 1..=1024 fail before the 80 GB matrix of
        // 10^5 machines (or the wrapped `n * n` of 2^32) is allocated.
        for n in [0, 1025, 100_000, usize::MAX] {
            let err = MachineProfile::sweep(n).generate(1).unwrap_err();
            assert_eq!(err, TraceError::Cluster(ClusterError::MachineCount(n)));
        }
        let mut p = MachineProfile::sweep(2);
        p.base_bandwidth = 0;
        assert!(p.generate(1).is_err());
    }
}
