//! The critical-path expert used for supervised pre-training.
//!
//! The paper (§IV) initializes the policy network by imitating "a greedy
//! heuristic approach such as the critical path algorithm", because
//! REINFORCE from a random network produces "extremely long and
//! meaningless trajectories". [`CpExpert`] replays the CP list scheduler
//! in the network's own action space, and [`collect_expert_dataset`] turns
//! its decisions into `(features, action, mask)` training rows.

use spear_cluster::env::{EpisodeDriver, FnPolicy, NoRng, SimEnv};
use spear_cluster::{ClusterSpec, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;

use crate::{Featurizer, StateView};

/// The expert policy: schedule the legal visible slot with the largest
/// b-level (slot 0 first, since slots are b-level-ordered), otherwise
/// process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpExpert;

impl CpExpert {
    /// Creates the expert.
    pub fn new() -> Self {
        CpExpert
    }

    /// The expert's action index for a featurized state: the first legal
    /// slot (slots are ordered by descending b-level), else process.
    ///
    /// # Panics
    ///
    /// Panics if no action is legal (impossible for non-terminal states).
    pub fn action_index(&self, view: &StateView) -> usize {
        view.mask
            .iter()
            .position(|&legal| legal)
            .expect("non-terminal states always have a legal action")
    }
}

/// A supervised dataset of expert decisions.
#[derive(Debug, Clone, Default)]
pub struct ExpertDataset {
    /// Network inputs, one per decision.
    pub features: Vec<Vec<f64>>,
    /// Expert action indices.
    pub actions: Vec<usize>,
    /// Legality masks.
    pub masks: Vec<Vec<bool>>,
}

impl ExpertDataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Appends another dataset.
    pub fn extend(&mut self, other: ExpertDataset) {
        self.features.extend(other.features);
        self.actions.extend(other.actions);
        self.masks.extend(other.masks);
    }
}

/// Rolls the CP expert through `dag` on `spec`, recording every decision.
/// Returns the dataset and the expert's makespan.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn collect_expert_dataset(
    featurizer: &Featurizer,
    dag: &Dag,
    spec: &ClusterSpec,
) -> Result<(ExpertDataset, u64), SpearError> {
    let features = GraphFeatures::compute(dag);
    let expert = CpExpert::new();
    let mut data = ExpertDataset::default();
    let mut env = SimEnv::new(dag, spec)?;
    EpisodeDriver::new(FnPolicy(|env: &SimEnv<'_>| {
        let (dag, state) = (env.dag(), env.observe());
        let view = featurizer.featurize(dag, env.spec(), state, &features);
        let idx = expert.action_index(&view);
        let action = view.action(idx, dag, state);
        data.features.push(view.features);
        data.actions.push(idx);
        data.masks.push(view.mask);
        action
    }))
    .drive(&mut env, &mut NoRng)?;
    let makespan = env.makespan().ok_or(SpearError::IncompleteEpisode)?;
    Ok((data, makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_sched::{CpScheduler, Scheduler};

    fn setup() -> (Dag, ClusterSpec, Featurizer) {
        let dag = LayeredDagSpec {
            num_tasks: 15,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(11));
        (
            dag,
            ClusterSpec::unit(2),
            Featurizer::new(FeatureConfig::small(2)),
        )
    }

    #[test]
    fn expert_dataset_covers_episode() {
        let (dag, spec, fz) = setup();
        let (data, makespan) = collect_expert_dataset(&fz, &dag, &spec).unwrap();
        assert!(data.len() > dag.len());
        assert!(makespan >= dag.critical_path_length());
        for (idx, mask) in data.actions.iter().zip(&data.masks) {
            assert!(mask[*idx], "expert chose an illegal action");
        }
    }

    /// The expert in network action space reproduces the CP list
    /// scheduler's makespan when the frontier fits in the visible window.
    #[test]
    fn expert_matches_cp_scheduler() {
        let (dag, spec, _) = setup();
        // A window large enough that no task is ever hidden in the backlog.
        let fz = Featurizer::new(FeatureConfig {
            max_ready: dag.len(),
            ..FeatureConfig::small(2)
        });
        let (_, expert_makespan) = collect_expert_dataset(&fz, &dag, &spec).unwrap();
        let cp = CpScheduler::new().schedule(&dag, &spec).unwrap();
        assert_eq!(expert_makespan, cp.makespan());
    }

    #[test]
    fn dataset_extend_concatenates() {
        let (dag, spec, fz) = setup();
        let (mut a, _) = collect_expert_dataset(&fz, &dag, &spec).unwrap();
        let (b, _) = collect_expert_dataset(&fz, &dag, &spec).unwrap();
        let n = a.len();
        a.extend(b);
        assert_eq!(a.len(), 2 * n);
        assert!(!a.is_empty());
    }
}
