//! Baseline DAG schedulers for the Spear reproduction.
//!
//! All schedulers implement the [`Scheduler`] trait and drive the
//! [`spear_cluster::SimState`] simulator, so every algorithm is compared on
//! the identical substrate. The list heuristics are one type, the greedy
//! [`PriorityListScheduler`], over a [`TaskScorer`] each; their aliases
//! name the scorer:
//!
//! * [`TetrisScheduler`] — multi-resource packing by alignment score
//!   (dot-product of demand and free capacity), dependency-oblivious
//!   beyond readiness (Grandl et al., SIGCOMM 2014).
//! * [`SjfScheduler`] — Shortest Job First over ready tasks.
//! * [`CpScheduler`] — largest Critical Path (b-level) first, the classic
//!   list-scheduling heuristic, with child-count tiebreak.
//! * [`RandomScheduler`] — uniformly random choices; the sanity floor.
//!
//! [`Graphene`] is the state-of-the-art baseline: it identifies
//! troublesome tasks by runtime threshold, virtually packs them forward
//! and backward in the resource-time space, and runs the best derived
//! order through the same greedy loop ([`execute_priority_order`]).
//! [`BnBScheduler`] proves optima on small jobs.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use spear_dag::generator::LayeredDagSpec;
//! use spear_cluster::ClusterSpec;
//! use spear_sched::{Scheduler, TetrisScheduler, CpScheduler};
//!
//! # fn main() -> Result<(), spear_cluster::SpearError> {
//! let dag = LayeredDagSpec::paper_training()
//!     .generate(&mut rand::rngs::StdRng::seed_from_u64(1));
//! let spec = ClusterSpec::unit(2);
//! let tetris = TetrisScheduler::new().schedule(&dag, &spec)?;
//! let cp = CpScheduler::new().schedule(&dag, &spec)?;
//! assert!(tetris.makespan() >= dag.critical_path_length());
//! assert!(cp.makespan() >= dag.critical_path_length());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnb;
mod graphene;
mod list;
mod observed;
mod scorers;

pub use bnb::{BnBConfig, BnBOutcome, BnBScheduler};
pub use graphene::{Graphene, GrapheneConfig, PackDirection};
pub use list::{execute_priority_order, PriorityListScheduler, ScoreContext, TaskScorer};
pub use observed::ObservedScheduler;
pub use scorers::{
    CpScheduler, CpScorer, RandomScheduler, RandomScorer, SjfScheduler, SjfScorer, TetrisScheduler,
    TetrisScorer,
};

use spear_cluster::{ClusterSpec, JobQueue, Schedule, SpearError};
use spear_dag::Dag;

/// A makespan-minimizing DAG scheduler.
///
/// Implementations take `&mut self` because several schedulers carry
/// internal RNG state. The returned [`Schedule`] always passes
/// [`Schedule::validate`] for the same DAG (a queue's union DAG) and
/// `spec`.
pub trait Scheduler {
    /// Human-readable name used in experiment reports (e.g. `"tetris"`).
    fn name(&self) -> &str;

    /// Produces a complete schedule of a job stream on `spec`.
    ///
    /// The returned schedule places every task of the [`JobQueue`]'s union
    /// DAG; no task starts before its job's arrival. Per-job completion
    /// times are recovered with [`JobQueue::jct_report`].
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if any job cannot run on the cluster
    /// (dimension mismatch or an oversized task).
    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError>;

    /// Produces a complete schedule of `dag` on `spec`: the one-job queue
    /// that arrives at time 0.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if the DAG cannot run on the cluster.
    fn schedule(&mut self, dag: &Dag, spec: &ClusterSpec) -> Result<Schedule, SpearError> {
        self.schedule_multi(&JobQueue::single(dag.clone())?, spec)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        (**self).schedule_multi(queue, spec)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        (**self).schedule_multi(queue, spec)
    }
}

/// A quick greedy estimate of the makespan of `dag` on `spec`, produced by
/// the Tetris packer. The paper (§IV) uses this to scale the MCTS
/// exploration constant to the same order of magnitude as the exploitation
/// score.
///
/// # Errors
///
/// Returns [`SpearError`] if the DAG cannot run on the cluster.
pub fn greedy_makespan_estimate(dag: &Dag, spec: &ClusterSpec) -> Result<u64, SpearError> {
    greedy_makespan_estimate_multi(&JobQueue::single(dag.clone())?, spec)
}

/// The Tetris packer's makespan over a whole arrival stream (see
/// [`greedy_makespan_estimate`]).
///
/// # Errors
///
/// Returns [`SpearError`] if any job cannot run on the cluster.
pub fn greedy_makespan_estimate_multi(
    queue: &JobQueue,
    spec: &ClusterSpec,
) -> Result<u64, SpearError> {
    Ok(TetrisScheduler::new()
        .schedule_multi(queue, spec)?
        .makespan())
}
