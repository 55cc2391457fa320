//! The Spear scheduler and its builder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear_cluster::{ClusterSpec, JobQueue, Schedule, SpearError};
use spear_dag::Dag;
use spear_mcts::{MctsConfig, MctsScheduler, SearchStats};
use spear_rl::{FeatureConfig, PolicyNetwork};
use spear_sched::Scheduler;

/// Builder for [`SpearScheduler`] (C-BUILDER): configures the MCTS budget,
/// exploration, and the policy network.
///
/// ```
/// use spear::SpearBuilder;
/// let spear = SpearBuilder::new()
///     .initial_budget(100)
///     .min_budget(50)
///     .exploration_coeff(0.5)
///     .seed(42)
///     .build_untrained();
/// ```
#[derive(Debug, Clone)]
pub struct SpearBuilder {
    mcts: MctsConfig,
    features: FeatureConfig,
    hidden: Option<Vec<usize>>,
}

impl SpearBuilder {
    /// Starts from the paper's Spear defaults: budget 100 (min 50) — the
    /// headline result is that DRL guidance needs only 10% of pure MCTS's
    /// budget — and the 20-slot / 15-ready-task featurization.
    pub fn new() -> Self {
        SpearBuilder {
            mcts: MctsConfig {
                initial_budget: 100,
                min_budget: 50,
                ..MctsConfig::default()
            },
            features: FeatureConfig::paper(2),
            hidden: None,
        }
    }

    /// Sets the iteration budget at the first decision.
    pub fn initial_budget(mut self, budget: u64) -> Self {
        self.mcts.initial_budget = budget;
        self
    }

    /// Sets the budget floor for deep decisions.
    pub fn min_budget(mut self, budget: u64) -> Self {
        self.mcts.min_budget = budget;
        self
    }

    /// Sets the exploration coefficient (multiplied by a greedy makespan
    /// estimate to form the UCB constant).
    pub fn exploration_coeff(mut self, coeff: f64) -> Self {
        self.mcts.exploration_coeff = coeff;
        self
    }

    /// Sets the RNG seed used by rollouts and network initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.mcts.seed = seed;
        self
    }

    /// Overrides the featurization shape (defaults to the paper's).
    pub fn feature_config(mut self, config: FeatureConfig) -> Self {
        self.features = config;
        self
    }

    /// Overrides the hidden-layer widths (defaults to the paper's
    /// 256/32/32).
    pub fn hidden_layers(mut self, hidden: &[usize]) -> Self {
        self.hidden = Some(hidden.to_vec());
        self
    }

    /// The configured MCTS parameters.
    pub fn mcts_config(&self) -> &MctsConfig {
        &self.mcts
    }

    /// Builds Spear around an already-trained policy network.
    ///
    /// # Panics
    ///
    /// Panics if the policy's feature configuration disagrees with the
    /// builder's.
    pub fn build_with_policy(self, policy: PolicyNetwork) -> SpearScheduler {
        assert_eq!(
            policy.feature_config(),
            &self.features,
            "policy featurization disagrees with the builder"
        );
        SpearScheduler {
            inner: MctsScheduler::drl(self.mcts, policy),
        }
    }

    /// Builds Spear with a freshly initialized (untrained) policy — useful
    /// for smoke tests and as the starting point of the training pipeline.
    pub fn build_untrained(self) -> SpearScheduler {
        let mut rng = StdRng::seed_from_u64(self.mcts.seed);
        let policy = match &self.hidden {
            Some(h) => PolicyNetwork::with_hidden(self.features.clone(), h, &mut rng),
            None => PolicyNetwork::new(self.features.clone(), &mut rng),
        };
        SpearScheduler {
            inner: MctsScheduler::drl(self.mcts, policy),
        }
    }

    /// Builds the pure-MCTS baseline (random expansion/rollout) with the
    /// same budget settings — the paper's "MCTS" comparator.
    pub fn build_pure_mcts(self) -> MctsScheduler {
        MctsScheduler::pure(self.mcts)
    }
}

impl Default for SpearBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The Spear scheduler: MCTS with DRL-guided expansion and rollout.
///
/// Construct via [`SpearBuilder`]. Implements
/// [`Scheduler`](spear_sched::Scheduler) like every baseline, plus
/// [`SpearScheduler::schedule_with_stats`] for the runtime experiments.
#[derive(Debug)]
pub struct SpearScheduler {
    inner: MctsScheduler,
}

impl SpearScheduler {
    /// Schedules and reports search statistics (tree size, iterations,
    /// wall-clock).
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if the DAG cannot run on the cluster.
    pub fn schedule_with_stats(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, SearchStats), SpearError> {
        self.inner.schedule_with_stats(dag, spec)
    }

    /// Schedules a job stream and reports search statistics (see
    /// [`MctsScheduler::schedule_multi_with_stats`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if any job cannot run on the cluster.
    pub fn schedule_multi_with_stats(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, SearchStats), SpearError> {
        self.inner.schedule_multi_with_stats(queue, spec)
    }

    /// The MCTS configuration in use.
    pub fn config(&self) -> &MctsConfig {
        self.inner.config()
    }
}

impl Scheduler for SpearScheduler {
    fn name(&self) -> &str {
        "spear"
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        self.inner.schedule_multi(queue, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::generator::LayeredDagSpec;

    fn tiny_spear() -> SpearScheduler {
        SpearBuilder::new()
            .initial_budget(30)
            .min_budget(5)
            .feature_config(FeatureConfig::small(2))
            .hidden_layers(&[16])
            .seed(3)
            .build_untrained()
    }

    #[test]
    fn untrained_spear_schedules_validly() {
        let dag = LayeredDagSpec {
            num_tasks: 12,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(0));
        let spec = ClusterSpec::unit(2);
        let mut spear = tiny_spear();
        let (schedule, stats) = spear.schedule_with_stats(&dag, &spec).unwrap();
        schedule.validate(&dag, &spec).unwrap();
        assert!(stats.iterations > 0);
        assert_eq!(spear.name(), "spear");
    }

    #[test]
    fn builder_settings_propagate() {
        let b = SpearBuilder::new()
            .initial_budget(77)
            .min_budget(11)
            .exploration_coeff(0.25)
            .seed(9);
        assert_eq!(b.mcts_config().initial_budget, 77);
        assert_eq!(b.mcts_config().min_budget, 11);
        assert_eq!(b.mcts_config().exploration_coeff, 0.25);
        assert_eq!(b.mcts_config().seed, 9);
        let spear = b.build_untrained();
        assert_eq!(spear.config().initial_budget, 77);
    }

    #[test]
    fn pure_mcts_builder_matches_budget() {
        let mcts = SpearBuilder::new().initial_budget(50).build_pure_mcts();
        assert_eq!(mcts.config().initial_budget, 50);
        assert_eq!(mcts.name(), "mcts");
    }

    #[test]
    #[should_panic(expected = "policy featurization disagrees")]
    fn mismatched_policy_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        // Builder defaults to the paper featurization: mismatch.
        let _ = SpearBuilder::new().build_with_policy(policy);
    }
}
