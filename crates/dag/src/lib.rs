//! Task-DAG model, graph analyses and workload generators for the Spear
//! scheduler.
//!
//! This crate is the foundation of the Spear reproduction: it defines the
//! *job* abstraction used everywhere else — a directed acyclic graph of
//! [`Task`]s, each with an integer runtime and a multi-dimensional
//! [`ResourceVec`] demand — together with the graph analyses the paper's
//! scheduling policies rely on ([`analysis::GraphFeatures`]: b-level,
//! b-load, child counts, critical path) and the random
//! workload generators used in the evaluation section
//! ([`generator::LayeredDagSpec`], [`generator::MapReduceSpec`]).
//!
//! # Example
//!
//! ```
//! use spear_dag::{DagBuilder, ResourceVec, Task};
//!
//! # fn main() -> Result<(), spear_dag::DagError> {
//! let mut b = DagBuilder::new(2); // two resource dimensions: CPU, memory
//! let a = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5, 0.2])));
//! let c = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.4, 0.4])));
//! b.add_edge(a, c)?;
//! let dag = b.build()?;
//! assert_eq!(dag.len(), 2);
//! assert_eq!(dag.critical_path_length(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
mod error;
pub mod generator;
mod graph;
mod resources;
pub mod stg;
mod task;
pub mod topo;

pub use error::DagError;
pub use graph::{Dag, DagBuilder, Edge, MAX_TOTAL_RUNTIME};
pub use resources::{ResourceVec, FIT_EPSILON};
pub use task::{Task, TaskId};
