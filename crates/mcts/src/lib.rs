//! Monte Carlo Tree Search over DAG-scheduling states (paper §III-C).
//!
//! The search tree's nodes are simulation states; edges are the decoupled
//! actions `{schedule task, process}`. Spear's adaptations, all implemented
//! here:
//!
//! * **Search-space reduction** — the legal-action filter of
//!   [`spear_cluster::SimState::legal_actions`] (no processing an empty
//!   cluster; only tasks that fit *now*), and `process` jumping straight to
//!   the next completion.
//! * **UCB with max-value exploitation** (paper Eq. 5) — node values track
//!   both the best and the mean rollout return; selection exploits
//!   `max + c·√(ln N / n)` and breaks ties with the mean.
//! * **Scaled exploration constant** — `c` is the configured coefficient
//!   times a greedy (Tetris) makespan estimate, putting exploration on the
//!   same scale as the (negative-makespan) exploitation term (§IV).
//! * **Budget decay** (paper Eq. 4) — the per-decision iteration budget is
//!   `max(initial/d, min)` at decision depth `d`.
//! * **Pluggable expansion and rollout policies** — classic MCTS uses
//!   [`RandomPolicy`]; Spear plugs in the trained DRL agent via
//!   [`DrlPolicy`]. A greedy [`HeuristicPolicy`] (Tetris-scored) is
//!   included for ablations.
//!
//! # Example: pure MCTS on a small DAG
//!
//! ```
//! use rand::SeedableRng;
//! use spear_cluster::ClusterSpec;
//! use spear_dag::generator::LayeredDagSpec;
//! use spear_mcts::{MctsConfig, MctsScheduler};
//! use spear_sched::Scheduler;
//!
//! let dag = LayeredDagSpec { num_tasks: 12, ..LayeredDagSpec::paper_training() }
//!     .generate(&mut rand::rngs::StdRng::seed_from_u64(3));
//! let spec = ClusterSpec::unit(2);
//! let mut mcts = MctsScheduler::pure(MctsConfig { initial_budget: 50, min_budget: 10, ..MctsConfig::default() });
//! let schedule = mcts.schedule(&dag, &spec).unwrap();
//! schedule.validate(&dag, &spec).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod parallel;
mod policies;
mod scheduler;
mod search;
mod tree;

pub use budget::BudgetSchedule;
pub use parallel::RootParallelMcts;
pub use policies::{
    DrlPolicy, HeuristicPolicy, PolicyContext, RandomPolicy, SearchPolicy, UniformPolicy,
};
pub use scheduler::{MctsConfig, MctsScheduler, SearchStats};
pub use search::MctsSearch;
// Re-exported because `SearchPolicy` signatures use it.
pub use spear_rl::EvalCacheStats;
pub use tree::{Node, NodeId, Tree};
