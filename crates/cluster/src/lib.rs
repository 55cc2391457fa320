//! The resource-time-space cluster simulator underlying every scheduler in
//! the Spear reproduction.
//!
//! The paper (§III-B) models the cluster as a *resource-time space*: one
//! rectangle per resource dimension, with width = capacity and height =
//! time. Tasks occupy sub-rectangles for their runtime. The scheduling agent
//! interacts with the cluster through the decoupled action space
//! `{place task i on machine m, process}`: placing freezes time and commits
//! a ready task that fits the machine's free capacity; *process* advances
//! the clock to the next task completion. The paper's single box is the
//! one-machine cluster, where every placement names machine 0.
//!
//! The central type is [`SimState`]: a cheaply cloneable simulation state
//! that MCTS snapshots per search node, the DRL agent featurizes, and the
//! baseline schedulers drive greedily. A finished simulation freezes into a
//! [`Schedule`], which can be [validated](Schedule::validate) against the
//! DAG and cluster capacity.
//!
//! # Example
//!
//! ```
//! use spear_dag::{DagBuilder, Task, ResourceVec};
//! use spear_cluster::{ClusterSpec, SimState, Action};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new(1);
//! let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
//! let c = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.6])));
//! b.add_edge(a, c)?;
//! let dag = b.build()?;
//! let spec = ClusterSpec::new(ResourceVec::from_slice(&[1.0]))?;
//!
//! let mut sim = SimState::new(&dag, &spec)?;
//! sim.apply(&dag, Action::Place(a, 0))?;
//! sim.apply(&dag, Action::Process)?; // a finishes at t=2
//! sim.apply(&dag, Action::Place(c, 0))?;
//! sim.apply(&dag, Action::Process)?; // c finishes at t=5
//! assert_eq!(sim.makespan(), Some(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod audit;
pub mod env;
mod error;
pub mod faults;
pub mod hetero;
pub mod jobs;
mod schedule;
mod spec;
mod state;
mod timeline;

pub use action::Action;
pub use audit::{AuditViolation, InvariantAuditor};
pub use env::{DecisionPolicy, DriveOutcome, EpisodeDriver, FnPolicy, NoRng, SimEnv};
pub use error::{ClusterError, SpearError};
pub use faults::{execute_under_faults, FailedRun, FaultOutcome, FaultPlan, FaultyRun};
pub use hetero::{MachineSet, TransferMode};
pub use jobs::{JctReport, JobCompletion, JobQueue, JobSpan};
pub use schedule::{Placement, Schedule};
pub use spec::ClusterSpec;
pub use state::{mix64, Running, SimState};
pub use timeline::ResourceTimeline;
