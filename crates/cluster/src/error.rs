//! Error types for the simulator and the workspace-wide [`SpearError`].

use std::error::Error;
use std::fmt;

use spear_dag::stg::StgError;
use spear_dag::{DagError, TaskId};

use crate::audit::AuditViolation;

/// Errors from cluster construction, simulation steps and schedule
/// validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The capacity vector has a non-positive or non-finite component.
    InvalidCapacity,
    /// A task demands more than the total cluster capacity in some
    /// dimension; it can never be scheduled.
    TaskExceedsCapacity(TaskId),
    /// The DAG and the cluster disagree on resource dimensionality.
    DimensionMismatch {
        /// Dimensions of the cluster capacity vector.
        cluster: usize,
        /// Dimensions of the DAG's task demands.
        dag: usize,
    },
    /// `Place(t, m)` was applied but `t` is not in the ready set.
    TaskNotReady(TaskId),
    /// `Place(t, m)` was applied but `t`'s demand exceeds machine `m`'s
    /// free capacity.
    InsufficientResources(TaskId),
    /// `Process` was applied with an empty cluster (nothing can finish, so
    /// time would never advance).
    NothingRunning,
    /// An action was applied to a terminal state.
    SimulationFinished,
    /// Schedule validation: a task was never placed.
    MissingPlacement(TaskId),
    /// Schedule validation: a placement's duration disagrees with the task
    /// runtime.
    WrongDuration(TaskId),
    /// Schedule validation: a task starts before one of its parents ends.
    PrecedenceViolation {
        /// The parent task.
        parent: TaskId,
        /// The child that started too early.
        child: TaskId,
    },
    /// Schedule validation: total demand exceeds capacity at some time slot.
    CapacityViolation {
        /// The earliest offending time slot.
        time: u64,
        /// The offending resource dimension.
        dim: usize,
    },
    /// Fault injection: a task failed every attempt its retry budget
    /// allowed, poisoning the episode (it can never complete).
    RetriesExhausted {
        /// The task that ran out of retries.
        task: TaskId,
        /// Attempts it burned (`max_retries + 1`).
        attempts: u32,
    },
    /// A machine set's bandwidth matrix is malformed: wrong size, a zero
    /// entry, or a zero `max_edge_bytes`.
    InvalidBandwidth,
    /// A placement names a machine index outside the cluster's machine
    /// set.
    MachineOutOfRange {
        /// The placed task.
        task: TaskId,
        /// The out-of-range machine index.
        machine: u32,
    },
    /// A task was placed before the data transfer from some
    /// differently-located parent completed.
    TransferViolation {
        /// The parent whose output was still in flight.
        parent: TaskId,
        /// The task that started too early.
        child: TaskId,
    },
    /// Schedule validation: a machine's individual capacity is exceeded
    /// at some time slot.
    MachineCapacityViolation {
        /// The offending machine.
        machine: u32,
        /// The earliest offending time slot.
        time: u64,
        /// The offending resource dimension.
        dim: usize,
    },
    /// A job of a stream arrives after
    /// [`MAX_TOTAL_RUNTIME`](spear_dag::MAX_TOTAL_RUNTIME) slots, where the
    /// simulator clock could wrap.
    ArrivalTooLate(u64),
    /// A fault plan could stretch an execution past
    /// [`MAX_TOTAL_RUNTIME`](spear_dag::MAX_TOTAL_RUNTIME) slots (see
    /// [`FaultPlan::worst_case_clock`](crate::FaultPlan::worst_case_clock)),
    /// where the executor's clock could wrap.
    FaultClockTooLate(f64),
    /// A machine set was asked for no machines, or for more than
    /// [`MAX_MACHINES`](crate::hetero::MAX_MACHINES).
    MachineCount(usize),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidCapacity => {
                write!(f, "cluster capacity must be positive and finite")
            }
            ClusterError::TaskExceedsCapacity(t) => {
                write!(f, "task {t} demands more than the total cluster capacity")
            }
            ClusterError::DimensionMismatch { cluster, dag } => write!(
                f,
                "cluster has {cluster} resource dimensions but the dag has {dag}"
            ),
            ClusterError::TaskNotReady(t) => write!(f, "task {t} is not ready"),
            ClusterError::InsufficientResources(t) => {
                write!(f, "task {t} does not fit in the free capacity")
            }
            ClusterError::NothingRunning => {
                write!(f, "cannot process an empty cluster")
            }
            ClusterError::SimulationFinished => {
                write!(f, "simulation already reached the terminal state")
            }
            ClusterError::MissingPlacement(t) => write!(f, "task {t} was never placed"),
            ClusterError::WrongDuration(t) => {
                write!(f, "placement duration of task {t} differs from its runtime")
            }
            ClusterError::PrecedenceViolation { parent, child } => {
                write!(f, "task {child} starts before its parent {parent} finishes")
            }
            ClusterError::CapacityViolation { time, dim } => write!(
                f,
                "capacity of dimension {dim} exceeded at time slot {time}"
            ),
            ClusterError::RetriesExhausted { task, attempts } => write!(
                f,
                "task {task} failed all {attempts} execution attempts; retry budget exhausted"
            ),
            ClusterError::InvalidBandwidth => {
                write!(f, "bandwidth matrix must be n*n with positive entries")
            }
            ClusterError::MachineOutOfRange { task, machine } => {
                write!(f, "task {task} names machine {machine} outside the cluster")
            }
            ClusterError::TransferViolation { parent, child } => write!(
                f,
                "task {child} starts before the data transfer from parent {parent} completes"
            ),
            ClusterError::MachineCapacityViolation { machine, time, dim } => write!(
                f,
                "machine {machine} capacity of dimension {dim} exceeded at time slot {time}"
            ),
            ClusterError::ArrivalTooLate(arrival) => write!(
                f,
                "a job arrives at slot {arrival}, past the {} slot ceiling",
                spear_dag::MAX_TOTAL_RUNTIME
            ),
            ClusterError::FaultClockTooLate(worst) => write!(
                f,
                "the fault plan can stretch the run to {worst:e} slots, past the {} slot ceiling",
                spear_dag::MAX_TOTAL_RUNTIME
            ),
            ClusterError::MachineCount(n) => write!(
                f,
                "a cluster needs between 1 and {} machines, got {n}",
                crate::hetero::MAX_MACHINES
            ),
        }
    }
}

impl Error for ClusterError {}

/// The workspace-wide error type: every fallible scheduling, simulation or
/// parsing path funnels into one of these variants, so callers match on a
/// single enum instead of juggling per-crate error types.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpearError {
    /// A simulator or schedule-validation error.
    Cluster(ClusterError),
    /// A DAG construction or validation error.
    Dag(DagError),
    /// An STG workload-file parse error.
    Stg(StgError),
    /// An episode ended (or was read) before reaching the terminal state,
    /// e.g. asking a truncated driver run for a complete schedule.
    IncompleteEpisode,
    /// The invariant auditor found the simulation state internally
    /// inconsistent (see [`AuditViolation`]).
    Audit(AuditViolation),
}

impl fmt::Display for SpearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpearError::Cluster(e) => write!(f, "{e}"),
            SpearError::Dag(e) => write!(f, "{e}"),
            SpearError::Stg(e) => write!(f, "{e}"),
            SpearError::IncompleteEpisode => {
                write!(f, "episode ended before reaching the terminal state")
            }
            SpearError::Audit(v) => write!(f, "invariant audit failed: {v}"),
        }
    }
}

impl Error for SpearError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpearError::Cluster(e) => Some(e),
            SpearError::Dag(e) => Some(e),
            SpearError::Stg(e) => Some(e),
            SpearError::IncompleteEpisode => None,
            SpearError::Audit(v) => Some(v),
        }
    }
}

impl From<ClusterError> for SpearError {
    fn from(e: ClusterError) -> Self {
        SpearError::Cluster(e)
    }
}

impl From<DagError> for SpearError {
    fn from(e: DagError) -> Self {
        SpearError::Dag(e)
    }
}

impl From<StgError> for SpearError {
    fn from(e: StgError) -> Self {
        SpearError::Stg(e)
    }
}

impl From<AuditViolation> for SpearError {
    fn from(v: AuditViolation) -> Self {
        SpearError::Audit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let errors = [
            ClusterError::InvalidCapacity,
            ClusterError::TaskExceedsCapacity(TaskId::new(0)),
            ClusterError::DimensionMismatch { cluster: 1, dag: 2 },
            ClusterError::TaskNotReady(TaskId::new(1)),
            ClusterError::InsufficientResources(TaskId::new(2)),
            ClusterError::NothingRunning,
            ClusterError::SimulationFinished,
            ClusterError::MissingPlacement(TaskId::new(3)),
            ClusterError::WrongDuration(TaskId::new(4)),
            ClusterError::PrecedenceViolation {
                parent: TaskId::new(0),
                child: TaskId::new(1),
            },
            ClusterError::CapacityViolation { time: 9, dim: 1 },
            ClusterError::RetriesExhausted {
                task: TaskId::new(5),
                attempts: 4,
            },
            ClusterError::InvalidBandwidth,
            ClusterError::MachineOutOfRange {
                task: TaskId::new(6),
                machine: 3,
            },
            ClusterError::TransferViolation {
                parent: TaskId::new(0),
                child: TaskId::new(1),
            },
            ClusterError::MachineCapacityViolation {
                machine: 1,
                time: 4,
                dim: 0,
            },
            ClusterError::ArrivalTooLate(u64::MAX),
            ClusterError::FaultClockTooLate(1e30),
            ClusterError::MachineCount(0),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterError>();
        assert_send_sync::<SpearError>();
    }

    #[test]
    fn spear_error_wraps_and_displays_sources() {
        let e: SpearError = ClusterError::NothingRunning.into();
        assert_eq!(e.to_string(), ClusterError::NothingRunning.to_string());
        assert!(e.source().is_some());
        let d: SpearError = DagError::Cycle.into();
        assert_eq!(d.to_string(), DagError::Cycle.to_string());
        let s: SpearError = StgError::MissingHeader.into();
        assert_eq!(s.to_string(), StgError::MissingHeader.to_string());
        assert!(!SpearError::IncompleteEpisode.to_string().is_empty());
    }
}
