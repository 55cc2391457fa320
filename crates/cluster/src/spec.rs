//! Cluster capacity specification.

use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};
use spear_dag::{Dag, ResourceVec, TaskId, FIT_EPSILON};

use crate::hetero::{MachineSet, TransferMode};
use crate::ClusterError;

/// The static description of a cluster: its machine set and their total
/// capacity per resource dimension.
///
/// The paper's motivating example uses `[1.0, 1.0]` (unit CPU and memory);
/// the DRL training setting uses 20 resource slots. Capacities are
/// arbitrary positive reals here. [`ClusterSpec::new`] and
/// [`ClusterSpec::unit`] build the paper's single box, which is the
/// one-machine [`MachineSet`]; [`ClusterSpec::hetero`] takes any machine
/// set and keeps `capacity` as the machines' sum, so total-capacity
/// consumers (featurizer, lower bounds, utilization) see one vector
/// whatever the machine count.
///
/// ```
/// use spear_dag::ResourceVec;
/// use spear_cluster::ClusterSpec;
///
/// let spec = ClusterSpec::new(ResourceVec::from_slice(&[1.0, 1.0]))?;
/// assert_eq!(spec.dims(), 2);
/// assert_eq!(spec.num_machines(), 1);
/// # Ok::<(), spear_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    capacity: ResourceVec,
    // Shared with every `SimState` built from this spec, so creating and
    // cloning states never copies the bandwidth matrix.
    machines: Arc<MachineSet>,
}

impl ClusterSpec {
    /// Creates a single box with the given total capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidCapacity`] if any component is
    /// non-positive or non-finite, or the vector is empty.
    pub fn new(capacity: ResourceVec) -> Result<Self, ClusterError> {
        // The network knobs of one machine are never read: it has no links.
        let machine = MachineSet::uniform(1, capacity, 1, TransferMode::Direct, 0, 1)?;
        ClusterSpec::hetero(machine)
    }

    /// A unit-capacity single box with `dims` dimensions — the motivating
    /// example's setting.
    pub fn unit(dims: usize) -> Self {
        ClusterSpec::new(ResourceVec::splat(dims.max(1), 1.0)).expect("unit capacity is valid")
    }

    /// Creates a cluster from a machine set; the aggregate `capacity`
    /// becomes the sum of machine capacities.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCapacity`] if the machine capacities sum
    /// past `f64::MAX`.
    pub fn hetero(machines: MachineSet) -> Result<Self, ClusterError> {
        let capacity = machines.total_capacity();
        if capacity.as_slice().iter().any(|c| !c.is_finite()) {
            return Err(ClusterError::InvalidCapacity);
        }
        Ok(ClusterSpec {
            capacity,
            machines: Arc::new(machines),
        })
    }

    /// Total capacity per dimension (the machine-capacity sum).
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Number of resource dimensions.
    pub fn dims(&self) -> usize {
        self.capacity.dims()
    }

    /// The machine set (one machine for a single box).
    #[inline]
    pub fn machines(&self) -> &MachineSet {
        &self.machines
    }

    /// The machine set as the shared handle states keep.
    pub(crate) fn shared_machines(&self) -> &Arc<MachineSet> {
        &self.machines
    }

    /// Number of machines (1 for a single box).
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Checks that `dag` is schedulable on this cluster: matching
    /// dimensionality and every task demand within at least one machine's
    /// capacity (a task no machine can hold would deadlock the
    /// simulation; a demand that fits some machine also fits the sum).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::DimensionMismatch`] or
    /// [`ClusterError::TaskExceedsCapacity`].
    pub fn validate_dag(&self, dag: &Dag) -> Result<(), ClusterError> {
        if dag.dims() != self.dims() {
            return Err(ClusterError::DimensionMismatch {
                cluster: self.dims(),
                dag: dag.dims(),
            });
        }
        for t in dag.task_ids() {
            let demand = dag.task(t).demand();
            if !self
                .machines
                .capacities()
                .iter()
                .any(|c| demand.fits_within(c))
            {
                return Err(ClusterError::TaskExceedsCapacity(t));
            }
        }
        Ok(())
    }

    /// Checks that the occupancy intervals `(start, end, task, machine)`
    /// fit this cluster at every instant: an event sweep against the
    /// aggregate capacity, then one per machine over the intervals placed
    /// on it. Ends free capacity before starts at the same instant claim
    /// it; empty intervals occupy nothing.
    ///
    /// # Errors
    ///
    /// [`ClusterError::CapacityViolation`], or
    /// [`ClusterError::MachineCapacityViolation`] for a machine, at the
    /// earliest overflow.
    pub fn check_occupancy(
        &self,
        dag: &Dag,
        intervals: impl IntoIterator<Item = (u64, u64, TaskId, u32)>,
    ) -> Result<(), ClusterError> {
        let mut events = Vec::new();
        for (start, end, task, machine) in intervals {
            if end > start {
                events.push((start, false, task, machine));
                events.push((end, true, task, machine));
            }
        }
        events.sort_by_key(|&(time, is_end, _, _)| (time, !is_end));
        let machines =
            (0..self.num_machines() as u32).map(|m| (Some(m), self.machines.capacity(m)));
        for (only, cap) in std::iter::once((None, &self.capacity)).chain(machines) {
            let mut used = ResourceVec::zeros(self.dims());
            for &(time, is_end, task, machine) in &events {
                if only.is_some_and(|m| m != machine) {
                    continue;
                }
                let demand = dag.task(task).demand();
                if is_end {
                    used.saturating_sub_assign(demand);
                    continue;
                }
                used.add_assign(demand);
                if !used.fits_within(cap) {
                    let dim = (0..self.dims())
                        .find(|&r| used[r] > cap[r] + FIT_EPSILON)
                        .unwrap_or(0);
                    return Err(match only {
                        None => ClusterError::CapacityViolation { time, dim },
                        Some(machine) => {
                            ClusterError::MachineCapacityViolation { machine, time, dim }
                        }
                    });
                }
            }
        }
        Ok(())
    }
}

// By hand rather than derived: the machine set sits behind an `Arc`, and a
// spec without a `machines` key (written before machine sets existed) is
// the single box of its `capacity`.
impl Serialize for ClusterSpec {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("capacity".to_owned(), self.capacity.to_value()),
            ("machines".to_owned(), self.machines.to_value()),
        ])
    }
}

impl Deserialize for ClusterSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let spec = match v.get_field("machines") {
            Some(m) if *m != Value::Null => ClusterSpec::hetero(MachineSet::from_value(m)?),
            _ => {
                let capacity = v
                    .get_field("capacity")
                    .ok_or_else(|| DeError::missing("capacity"))?;
                ClusterSpec::new(ResourceVec::from_value(capacity)?)
            }
        };
        spec.map_err(|e| DeError(e.to_string()))
    }
}

impl Default for ClusterSpec {
    /// Two unit dimensions (CPU + memory), the paper's default setting.
    fn default() -> Self {
        ClusterSpec::unit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::{DagBuilder, Task, TaskId};

    #[test]
    fn rejects_bad_capacity() {
        assert_eq!(
            ClusterSpec::new(ResourceVec::from_slice(&[0.0])).unwrap_err(),
            ClusterError::InvalidCapacity
        );
        assert_eq!(
            ClusterSpec::new(ResourceVec::from_slice(&[-1.0, 1.0])).unwrap_err(),
            ClusterError::InvalidCapacity
        );
        assert_eq!(
            ClusterSpec::new(ResourceVec::zeros(0)).unwrap_err(),
            ClusterError::InvalidCapacity
        );
        assert_eq!(
            ClusterSpec::new(ResourceVec::from_slice(&[f64::INFINITY])).unwrap_err(),
            ClusterError::InvalidCapacity
        );
    }

    #[test]
    fn unit_and_default() {
        assert_eq!(ClusterSpec::default(), ClusterSpec::unit(2));
        assert_eq!(ClusterSpec::unit(3).capacity().as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn validates_dag_dimensions() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(2);
        assert_eq!(
            spec.validate_dag(&dag).unwrap_err(),
            ClusterError::DimensionMismatch { cluster: 2, dag: 1 }
        );
    }

    #[test]
    fn validates_oversized_task() {
        let mut b = DagBuilder::new(1);
        let t = b.add_task(Task::new(1, ResourceVec::from_slice(&[1.5])));
        let dag = b.build().unwrap();
        assert_eq!(
            ClusterSpec::unit(1).validate_dag(&dag).unwrap_err(),
            ClusterError::TaskExceedsCapacity(TaskId::new(t.index()))
        );
    }

    #[test]
    fn accepts_feasible_dag() {
        let mut b = DagBuilder::new(2);
        b.add_task(Task::new(1, ResourceVec::from_slice(&[1.0, 0.5])));
        let dag = b.build().unwrap();
        assert!(ClusterSpec::unit(2).validate_dag(&dag).is_ok());
    }

    #[test]
    fn hetero_aggregates_machine_capacities() {
        use crate::TransferMode;
        let machines = MachineSet::new(
            vec![
                ResourceVec::from_slice(&[1.0, 0.5]),
                ResourceVec::from_slice(&[0.5, 0.25]),
            ],
            vec![4, 4, 4, 4],
            TransferMode::Direct,
            7,
            8,
        )
        .unwrap();
        let spec = ClusterSpec::hetero(machines).unwrap();
        assert_eq!(spec.capacity().as_slice(), &[1.5, 0.75]);
        assert_eq!(spec.num_machines(), 2);
        assert_eq!(spec.machines().len(), 2);
        // A single box is the one-machine set of its capacity.
        let unit = ClusterSpec::unit(2);
        assert_eq!(unit.num_machines(), 1);
        assert_eq!(unit.machines().capacities(), &[unit.capacity().clone()]);
    }

    #[test]
    fn validate_dag_rejects_a_task_no_single_machine_can_hold() {
        use crate::TransferMode;
        // Aggregate capacity is 1.0 but each machine holds only 0.5: a
        // 0.7 task fits the sum yet would deadlock the simulation.
        let machines = MachineSet::uniform(
            2,
            ResourceVec::from_slice(&[0.5]),
            4,
            TransferMode::Direct,
            0,
            8,
        )
        .unwrap();
        let spec = ClusterSpec::hetero(machines).unwrap();
        let mut b = DagBuilder::new(1);
        let t = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.7])));
        let dag = b.build().unwrap();
        assert_eq!(
            spec.validate_dag(&dag).unwrap_err(),
            ClusterError::TaskExceedsCapacity(TaskId::new(t.index()))
        );
        // A 0.4 task fits machine 0 and passes.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.4])));
        assert!(spec.validate_dag(&b.build().unwrap()).is_ok());
    }

    #[test]
    fn hetero_spec_round_trips_through_serde_and_legacy_json_parses() {
        use crate::TransferMode;
        let machines = MachineSet::uniform(
            3,
            ResourceVec::from_slice(&[1.0, 1.0]),
            2,
            TransferMode::ViaMaster,
            5,
            16,
        )
        .unwrap();
        let spec = ClusterSpec::hetero(machines).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // A pre-hetero spec (no `machines` key, or a null one) still
        // deserializes, as the single box.
        let legacy: ClusterSpec = serde_json::from_str("{\"capacity\":[1.0,1.0]}").unwrap();
        assert_eq!(legacy, ClusterSpec::unit(2));
        let null: ClusterSpec =
            serde_json::from_str("{\"capacity\":[1.0,1.0],\"machines\":null}").unwrap();
        assert_eq!(null, ClusterSpec::unit(2));
        let unit = serde_json::to_string(&ClusterSpec::unit(2)).unwrap();
        assert_eq!(
            serde_json::from_str::<ClusterSpec>(&unit).unwrap(),
            ClusterSpec::unit(2)
        );
    }
}
