//! The deep-reinforcement-learning scheduling agent of Spear (§III-D).
//!
//! A small MLP (the paper's 256/32/32 ReLU network) maps the cluster state
//! and the ready-task frontier to a distribution over the decoupled action
//! space `{schedule slot i, process}`. The input combines:
//!
//! * a *resource-time image* of the cluster over the next `H` slots (per
//!   resource dimension),
//! * up to `M` ready-task slots, each carrying the task's runtime, demand
//!   vector, **b-level**, **number of children** and per-resource
//!   **b-load** — the graph features §III-D argues are required to beat
//!   Tetris and SJF,
//! * a few global scalars (backlog size, running and completed fractions).
//!
//! Training follows the paper's two phases: supervised **pre-training**
//! that imitates the critical-path expert ([`pretrain`]), then
//! **REINFORCE** with a 20-rollout average baseline ([`ReinforceTrainer`]),
//! both under RMSProp with the paper's hyper-parameters.
//!
//! # Example: rolling out a freshly initialized policy
//!
//! ```
//! use rand::SeedableRng;
//! use spear_cluster::ClusterSpec;
//! use spear_dag::generator::LayeredDagSpec;
//! use spear_rl::{FeatureConfig, PolicyNetwork, run_episode, SelectionMode};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let dag = LayeredDagSpec::paper_training().generate(&mut rng);
//! let spec = ClusterSpec::unit(2);
//! let mut policy = PolicyNetwork::new(FeatureConfig::small(2), &mut rng);
//! let episode = run_episode(
//!     &mut policy, &dag, &spec, SelectionMode::Sample, true, &mut rng,
//! ).unwrap();
//! assert!(episode.makespan >= dag.critical_path_length());
//! assert!(!episode.steps.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod episode;
mod expert;
mod features;
mod policy;
pub mod pretrain;
mod reinforce;

pub use cache::{input_key, EvalCache, EvalCacheF32, EvalCacheStats, SlotRow};
pub use episode::{run_episode, Episode, SelectionMode, StepRecord};
pub use expert::{collect_expert_dataset, CpExpert, ExpertDataset};
pub use features::{FeatureConfig, Featurizer, StateView};
pub use policy::PolicyNetwork;
pub use reinforce::{ReinforceConfig, ReinforceTrainer, TrainingCurvePoint};
