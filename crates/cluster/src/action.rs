//! The decoupled scheduling action space.

use std::fmt;

use serde::{Deserialize, Serialize};
use spear_dag::TaskId;

/// One agent decision (paper §III-B).
///
/// For `n` ready tasks the action space is `{-1, 1, …, n}`: either commit
/// one ready task to the cluster at the current time (time does not
/// advance), or *process* — advance time to the next task completion. This
/// decoupling shrinks the action space from `2^n` subsets to `n + 1`
/// choices. A committed task names its machine; on the paper's single box
/// that is always machine 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Start the given ready task (first field) now on the given machine
    /// (second field), consuming its demand there.
    Place(TaskId, u32),
    /// Advance the clock until at least one running task finishes
    /// (the paper's `-1` action).
    Process,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Place(task, machine) => write!(f, "place({task}@m{machine})"),
            Action::Process => write!(f, "process"),
        }
    }
}

impl Action {
    /// The task this action places, if any.
    pub fn task(self) -> Option<TaskId> {
        match self {
            Action::Place(task, _) => Some(task),
            Action::Process => None,
        }
    }

    /// The machine this action places its task on, `None` for
    /// [`Action::Process`].
    pub fn machine(self) -> Option<u32> {
        match self {
            Action::Place(_, machine) => Some(machine),
            Action::Process => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Action::Place(TaskId::new(3), 2).to_string(), "place(t3@m2)");
        assert_eq!(Action::Process.to_string(), "process");
    }

    #[test]
    fn task_accessor() {
        assert_eq!(
            Action::Place(TaskId::new(1), 2).task(),
            Some(TaskId::new(1))
        );
        assert_eq!(Action::Process.task(), None);
    }

    #[test]
    fn machine_accessor() {
        assert_eq!(Action::Place(TaskId::new(1), 0).machine(), Some(0));
        assert_eq!(Action::Place(TaskId::new(1), 2).machine(), Some(2));
        assert_eq!(Action::Process.machine(), None);
    }
}
