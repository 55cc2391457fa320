//! Machine sets and the inter-machine network model.
//!
//! Every [`ClusterSpec`](crate::ClusterSpec) is a [`MachineSet`]: machines
//! with individual capacities plus a bandwidth matrix. The paper's single
//! box is the one-machine set. A task whose parent ran on a *different*
//! machine pays a deterministic transfer delay of `ceil(edge_bytes /
//! bandwidth)` slots before it may start — dslab-style, in one of two
//! [`TransferMode`]s.
//! Edge payload sizes are drawn from a seeded hash of the `(parent,
//! child)` pair, so every component of the model (simulator, schedule
//! validator, diffcheck judges) can re-derive the same delays
//! independently, without sharing any mutable state.

use serde::{Deserialize, Serialize};
use spear_dag::ResourceVec;

use crate::ClusterError;

/// How intermediate data travels between machines (dslab's
/// `DataTransferMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferMode {
    /// Payloads move over the direct link: `ceil(bytes / bandwidth(src,
    /// dst))` slots.
    Direct,
    /// Payloads are staged through a master node: upload over `src`'s
    /// uplink plus download over `dst`'s uplink (the matrix diagonal
    /// doubles as the per-machine uplink bandwidth).
    ViaMaster,
}

impl TransferMode {
    /// Parses the CLI spelling (`direct` / `via-master`).
    ///
    /// # Errors
    ///
    /// Returns the offending string on an unknown spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "direct" => Ok(TransferMode::Direct),
            "via-master" | "master" => Ok(TransferMode::ViaMaster),
            other => Err(format!(
                "unknown transfer mode `{other}` (expected `direct` or `via-master`)"
            )),
        }
    }
}

/// SplitMix64 finalizer over the seed/edge mix — the same full-avalanche
/// bijection the state fingerprint uses, duplicated here so the network
/// model stays self-contained (judges re-derive delays from a
/// `MachineSet` alone).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Most machines a [`MachineSet`] may hold. The bandwidth matrix of the
/// largest set takes 8 MiB, and `n × n` cannot overflow.
pub const MAX_MACHINES: usize = 1024;

/// A set of machines with individual capacities and a link-bandwidth
/// matrix. Build a cluster from one with
/// [`ClusterSpec::hetero`](crate::ClusterSpec::hetero).
///
/// Bandwidths are integers in *bytes per slot* and must be ≥ 1; the
/// `n × n` matrix is row-major (`bandwidth[src][dst]`), and its diagonal
/// is the per-machine master uplink used by
/// [`TransferMode::ViaMaster`]. Edge payload sizes are deterministic
/// seeded draws in `[1, max_edge_bytes]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSet {
    capacities: Vec<ResourceVec>,
    bandwidth: Vec<u64>,
    mode: TransferMode,
    seed: u64,
    max_edge_bytes: u64,
}

impl MachineSet {
    /// Builds a machine set from explicit per-machine capacities and a
    /// row-major `n × n` bandwidth matrix.
    ///
    /// # Errors
    ///
    /// [`ClusterError::MachineCount`] for no machines or more than
    /// [`MAX_MACHINES`]; [`ClusterError::InvalidCapacity`] if a capacity
    /// has a non-positive/non-finite component or the machines disagree
    /// on dimensionality; [`ClusterError::InvalidBandwidth`] if the
    /// matrix is not `n × n`, contains a zero entry, or `max_edge_bytes`
    /// is zero.
    pub fn new(
        capacities: Vec<ResourceVec>,
        bandwidth: Vec<u64>,
        mode: TransferMode,
        seed: u64,
        max_edge_bytes: u64,
    ) -> Result<Self, ClusterError> {
        let n = capacities.len();
        Self::check_count(n)?;
        let dims = capacities[0].dims();
        for c in &capacities {
            if c.dims() != dims
                || dims == 0
                || c.as_slice().iter().any(|&v| !v.is_finite() || v <= 0.0)
            {
                return Err(ClusterError::InvalidCapacity);
            }
        }
        if bandwidth.len() != n * n || bandwidth.contains(&0) || max_edge_bytes == 0 {
            return Err(ClusterError::InvalidBandwidth);
        }
        Ok(MachineSet {
            capacities,
            bandwidth,
            mode,
            seed,
            max_edge_bytes,
        })
    }

    /// A set of `n` identical machines with a uniform link bandwidth —
    /// the quickest way to a homogeneous multi-machine cluster.
    ///
    /// # Errors
    ///
    /// As [`MachineSet::new`]; the machine count is checked before
    /// anything is allocated.
    pub fn uniform(
        n: usize,
        capacity: ResourceVec,
        bandwidth: u64,
        mode: TransferMode,
        seed: u64,
        max_edge_bytes: u64,
    ) -> Result<Self, ClusterError> {
        Self::check_count(n)?;
        MachineSet::new(
            vec![capacity; n],
            vec![bandwidth; n * n],
            mode,
            seed,
            max_edge_bytes,
        )
    }

    /// Checks a machine count against `1..=`[`MAX_MACHINES`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::MachineCount`] outside that range.
    pub fn check_count(n: usize) -> Result<(), ClusterError> {
        if (1..=MAX_MACHINES).contains(&n) {
            Ok(())
        } else {
            Err(ClusterError::MachineCount(n))
        }
    }

    /// Number of machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// `true` for a degenerate empty set (never constructible through
    /// [`MachineSet::new`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// Capacity of machine `m`.
    #[inline]
    pub fn capacity(&self, m: u32) -> &ResourceVec {
        &self.capacities[m as usize]
    }

    /// All per-machine capacities, in machine order.
    #[inline]
    pub fn capacities(&self) -> &[ResourceVec] {
        &self.capacities
    }

    /// Sum of all machine capacities — the aggregate the cluster-wide
    /// consumers (featurizer, lower bounds, utilization) see.
    pub fn total_capacity(&self) -> ResourceVec {
        let mut total = ResourceVec::zeros(self.capacities[0].dims());
        for c in &self.capacities {
            total.add_assign(c);
        }
        total
    }

    /// Link bandwidth from `src` to `dst` in bytes per slot.
    #[inline]
    pub fn bandwidth(&self, src: u32, dst: u32) -> u64 {
        self.bandwidth[src as usize * self.capacities.len() + dst as usize]
    }

    /// Overrides one link's bandwidth (test/sweep knob; must stay ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics on a zero bandwidth or out-of-range machine index.
    pub fn set_bandwidth(&mut self, src: u32, dst: u32, bandwidth: u64) {
        assert!(bandwidth >= 1, "bandwidth must be at least 1 byte/slot");
        let n = self.capacities.len();
        self.bandwidth[src as usize * n + dst as usize] = bandwidth;
    }

    /// The transfer mode of this set.
    #[inline]
    pub fn mode(&self) -> TransferMode {
        self.mode
    }

    /// The seed of the edge-payload draws.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Upper bound of the seeded edge payload draws.
    #[inline]
    pub fn max_edge_bytes(&self) -> u64 {
        self.max_edge_bytes
    }

    /// Deterministic payload size of the DAG edge `parent → child`, in
    /// `[1, max_edge_bytes]`. Pure function of the seed and the task
    /// indices, so every judge re-derives identical sizes.
    #[inline]
    pub fn edge_bytes(&self, parent: usize, child: usize) -> u64 {
        let h = mix(self.seed
            ^ (parent as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (child as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53));
        1 + h % self.max_edge_bytes
    }

    /// Slots `bytes` take to travel from `src` to `dst`: zero for
    /// co-located endpoints, otherwise `ceil(bytes / bandwidth)` per
    /// traversed link (one link direct, two via the master).
    #[inline]
    pub fn transfer_delay(&self, bytes: u64, src: u32, dst: u32) -> u64 {
        if src == dst {
            return 0;
        }
        let ceil_div = |b: u64, bw: u64| b.div_ceil(bw);
        match self.mode {
            TransferMode::Direct => ceil_div(bytes, self.bandwidth(src, dst)),
            TransferMode::ViaMaster => {
                ceil_div(bytes, self.bandwidth(src, src))
                    + ceil_div(bytes, self.bandwidth(dst, dst))
            }
        }
    }

    /// Transfer delay of the DAG edge `parent → child` between the given
    /// machines: [`MachineSet::edge_bytes`] through
    /// [`MachineSet::transfer_delay`].
    #[inline]
    pub fn edge_delay(&self, parent: usize, child: usize, src: u32, dst: u32) -> u64 {
        if src == dst {
            return 0;
        }
        self.transfer_delay(self.edge_bytes(parent, child), src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_machines(mode: TransferMode) -> MachineSet {
        MachineSet::new(
            vec![
                ResourceVec::from_slice(&[1.0]),
                ResourceVec::from_slice(&[0.5]),
            ],
            vec![8, 4, 2, 16],
            mode,
            7,
            64,
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_sets() {
        assert_eq!(
            MachineSet::new(vec![], vec![], TransferMode::Direct, 0, 1).unwrap_err(),
            ClusterError::MachineCount(0)
        );
        assert_eq!(
            MachineSet::new(
                vec![ResourceVec::from_slice(&[1.0]), ResourceVec::zeros(2)],
                vec![1, 1, 1, 1],
                TransferMode::Direct,
                0,
                1,
            )
            .unwrap_err(),
            ClusterError::InvalidCapacity
        );
        assert_eq!(
            MachineSet::new(
                vec![ResourceVec::from_slice(&[1.0])],
                vec![1, 1],
                TransferMode::Direct,
                0,
                1,
            )
            .unwrap_err(),
            ClusterError::InvalidBandwidth
        );
        assert_eq!(
            MachineSet::new(
                vec![ResourceVec::from_slice(&[1.0])],
                vec![0],
                TransferMode::Direct,
                0,
                1,
            )
            .unwrap_err(),
            ClusterError::InvalidBandwidth
        );
        assert_eq!(
            MachineSet::new(
                vec![ResourceVec::from_slice(&[1.0])],
                vec![1],
                TransferMode::Direct,
                0,
                0,
            )
            .unwrap_err(),
            ClusterError::InvalidBandwidth
        );
    }

    #[test]
    fn machine_counts_outside_the_ceiling_fail_before_allocating() {
        let unit = ResourceVec::from_slice(&[1.0]);
        // `n * n` wraps at 2^32 machines on 64-bit targets, and 10^5
        // machines would need an 80 GB matrix: both are refused before
        // any vector is built.
        for n in [0, MAX_MACHINES + 1, 100_000, usize::MAX] {
            assert_eq!(
                MachineSet::uniform(n, unit.clone(), 1, TransferMode::Direct, 0, 1).unwrap_err(),
                ClusterError::MachineCount(n)
            );
        }
        let most = MachineSet::uniform(MAX_MACHINES, unit, 1, TransferMode::Direct, 0, 1);
        assert_eq!(most.unwrap().len(), MAX_MACHINES);
    }

    #[test]
    fn total_capacity_sums_machines() {
        let set = two_machines(TransferMode::Direct);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_capacity().as_slice(), &[1.5]);
    }

    #[test]
    fn edge_bytes_are_deterministic_and_bounded() {
        let set = two_machines(TransferMode::Direct);
        for p in 0..10 {
            for c in 0..10 {
                let b = set.edge_bytes(p, c);
                assert_eq!(b, set.edge_bytes(p, c));
                assert!((1..=64).contains(&b));
            }
        }
        // Different seeds draw different payload streams (some pair must
        // differ for any non-trivial bound).
        let other = MachineSet::new(
            set.capacities().to_vec(),
            vec![8, 4, 2, 16],
            TransferMode::Direct,
            set.seed() + 1,
            64,
        )
        .unwrap();
        assert!((0..20).any(|i| set.edge_bytes(i, i + 1) != other.edge_bytes(i, i + 1)));
    }

    #[test]
    fn colocated_transfers_are_free() {
        for mode in [TransferMode::Direct, TransferMode::ViaMaster] {
            let set = two_machines(mode);
            assert_eq!(set.transfer_delay(1000, 0, 0), 0);
            assert_eq!(set.transfer_delay(1000, 1, 1), 0);
            assert_eq!(set.edge_delay(0, 1, 1, 1), 0);
        }
    }

    #[test]
    fn direct_delay_is_ceil_of_link() {
        let set = two_machines(TransferMode::Direct);
        // bandwidth[0][1] = 4: 9 bytes take ceil(9/4) = 3 slots.
        assert_eq!(set.transfer_delay(9, 0, 1), 3);
        // bandwidth[1][0] = 2: asymmetric links are respected.
        assert_eq!(set.transfer_delay(9, 1, 0), 5);
    }

    #[test]
    fn via_master_sums_both_uplinks() {
        let set = two_machines(TransferMode::ViaMaster);
        // Uplinks are the diagonal: bw[0][0] = 8, bw[1][1] = 16.
        // 9 bytes: ceil(9/8) + ceil(9/16) = 2 + 1.
        assert_eq!(set.transfer_delay(9, 0, 1), 3);
        assert_eq!(set.transfer_delay(9, 1, 0), 3);
    }

    #[test]
    fn lower_bandwidth_never_speeds_a_transfer() {
        let mut set = two_machines(TransferMode::Direct);
        let before = set.transfer_delay(33, 0, 1);
        set.set_bandwidth(0, 1, 1);
        assert!(set.transfer_delay(33, 0, 1) >= before);
    }

    #[test]
    fn parses_modes() {
        assert_eq!(TransferMode::parse("direct"), Ok(TransferMode::Direct));
        assert_eq!(
            TransferMode::parse("via-master"),
            Ok(TransferMode::ViaMaster)
        );
        assert!(TransferMode::parse("warp").is_err());
    }

    #[test]
    fn serde_round_trip() {
        let set = two_machines(TransferMode::ViaMaster);
        let json = serde_json::to_string(&set).unwrap();
        let back: MachineSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }
}
