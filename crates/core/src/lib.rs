//! # Spear — dependency-aware task scheduling with MCTS + deep RL
//!
//! A from-scratch Rust reproduction of *"Spear: Optimized Dependency-Aware
//! Task Scheduling with Deep Reinforcement Learning"* (Hu, Tu, Li — ICDCS
//! 2019).
//!
//! Spear schedules the tasks of a DAG-structured job onto a cluster with
//! multi-dimensional resource capacities, minimizing the makespan. It runs
//! Monte Carlo Tree Search over the scheduling decisions and guides both
//! the expansion and the rollout steps with a trained deep-reinforcement-
//! learning policy, instead of the random policies of classic MCTS.
//!
//! This crate is the facade over the workspace:
//!
//! | concern | crate |
//! |---|---|
//! | DAG model, analyses, generators | [`spear_dag`] |
//! | cluster simulator + environment layer | [`spear_cluster`] |
//! | baselines (Tetris/SJF/CP/Graphene) | [`spear_sched`] |
//! | neural network | [`spear_nn`] |
//! | DRL agent + training | [`spear_rl`] |
//! | MCTS | [`spear_mcts`] |
//! | trace substrate | [`spear_trace`] |
//! | observability (metrics, exporters) | [`spear_obs`] |
//!
//! # Quickstart
//!
//! Spear is [`MctsScheduler::drl`]: the search with its budgets in an
//! [`MctsConfig`], guided by a [`PolicyNetwork`]. [`train_policy`] trains
//! that network; the quickstart below searches with an untrained one.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use spear::dag::generator::LayeredDagSpec;
//! use spear::{ClusterSpec, FeatureConfig, MctsConfig, MctsScheduler, PolicyNetwork, Scheduler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A random 25-task job with CPU+memory demands.
//! let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(1));
//! let spec = ClusterSpec::unit(2);
//!
//! let config = MctsConfig {
//!     initial_budget: 100,
//!     min_budget: 20,
//!     seed: 7,
//!     ..MctsConfig::default()
//! };
//! let policy = PolicyNetwork::new(FeatureConfig::paper(2), &mut StdRng::seed_from_u64(7));
//! let mut spear = MctsScheduler::drl(config, policy);
//! let schedule = spear.schedule(&dag, &spec)?;
//! schedule.validate(&dag, &spec)?;
//! assert!(schedule.makespan() >= dag.critical_path_length());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diffcheck;
pub mod fixtures;
mod pipeline;

pub use pipeline::{train_policy, train_policy_observed, TrainedPolicy, TrainingPipelineConfig};

// Re-export the workspace crates under short names.
pub use spear_cluster as cluster;
pub use spear_dag as dag;
pub use spear_mcts as mcts;
pub use spear_nn as nn;
pub use spear_obs as obs;
pub use spear_rl as rl;
pub use spear_sched as sched;
pub use spear_trace as trace;

// The environment layer: unified episode stepping for every consumer.
pub use spear_cluster::env;

// The simulation invariant auditor (on by default in debug builds; the
// `audit` feature keeps it on in release).
pub use spear_cluster::audit;

// The most-used types at the top level.
pub use spear_cluster::env::{DecisionPolicy, EpisodeDriver, SimEnv};
pub use spear_cluster::{
    execute_under_faults, Action, AuditViolation, ClusterError, ClusterSpec, FailedRun,
    FaultOutcome, FaultPlan, FaultyRun, InvariantAuditor, JctReport, JobCompletion, JobQueue,
    JobSpan, MachineSet, Placement, Schedule, SimState, SpearError, TransferMode,
};
pub use spear_dag::{Dag, DagBuilder, DagError, ResourceVec, Task, TaskId};
pub use spear_mcts::{MctsConfig, MctsScheduler, RootParallelMcts, SearchStats};
pub use spear_obs::{MetricsRegistry, MetricsSnapshot, Obs};
pub use spear_rl::{FeatureConfig, PolicyNetwork};
pub use spear_sched::{
    CpScheduler, Graphene, ObservedScheduler, RandomScheduler, Scheduler, SjfScheduler,
    TetrisScheduler,
};
pub use spear_trace::{
    ArrivalProcess, ArrivalStreamSpec, FaultProfile, JobSource, MachineProfile, SyntheticTraceSpec,
    Trace, TraceJob, TraceStats,
};

// The README's Rust example, compiled by the doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
