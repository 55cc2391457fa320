//! Error type for DAG construction.

use std::error::Error;
use std::fmt;

use crate::TaskId;

/// Errors produced while building or validating a [`Dag`](crate::Dag).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// An edge endpoint refers to a task that was never added.
    UnknownTask(TaskId),
    /// A self-loop `v -> v` was added.
    SelfLoop(TaskId),
    /// The same edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The graph contains a directed cycle (detected at build time).
    Cycle,
    /// A task has a non-finite or negative resource demand.
    InvalidDemand(TaskId),
    /// A task has zero runtime; the simulator requires runtimes ≥ 1 slot.
    ZeroRuntime(TaskId),
    /// Tasks disagree on the number of resource dimensions.
    DimensionMismatch {
        /// Offending task.
        task: TaskId,
        /// Dimensions declared when the builder was created.
        expected: usize,
        /// Dimensions of the offending task's demand vector.
        actual: usize,
    },
    /// The graph has no tasks.
    Empty,
    /// The task runtimes sum to more than
    /// [`MAX_TOTAL_RUNTIME`](crate::MAX_TOTAL_RUNTIME) slots.
    RuntimeOverflow,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownTask(t) => write!(f, "edge endpoint {t} does not exist"),
            DagError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            DagError::DuplicateEdge(u, v) => write!(f, "duplicate edge {u} -> {v}"),
            DagError::Cycle => write!(f, "graph contains a directed cycle"),
            DagError::InvalidDemand(t) => {
                write!(f, "task {t} has a negative or non-finite resource demand")
            }
            DagError::ZeroRuntime(t) => write!(f, "task {t} has zero runtime"),
            DagError::DimensionMismatch {
                task,
                expected,
                actual,
            } => write!(
                f,
                "task {task} has {actual} resource dimensions, expected {expected}"
            ),
            DagError::Empty => write!(f, "graph has no tasks"),
            DagError::RuntimeOverflow => write!(
                f,
                "task runtimes sum to more than {} slots",
                crate::MAX_TOTAL_RUNTIME
            ),
        }
    }
}

impl Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            DagError::UnknownTask(TaskId::new(0)),
            DagError::SelfLoop(TaskId::new(1)),
            DagError::DuplicateEdge(TaskId::new(0), TaskId::new(1)),
            DagError::Cycle,
            DagError::InvalidDemand(TaskId::new(2)),
            DagError::ZeroRuntime(TaskId::new(3)),
            DagError::DimensionMismatch {
                task: TaskId::new(4),
                expected: 2,
                actual: 3,
            },
            DagError::Empty,
            DagError::RuntimeOverflow,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("edge"));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DagError>();
    }
}
