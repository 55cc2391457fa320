//! The end-to-end training pipeline: supervised pre-training on the CP
//! expert, then REINFORCE (paper §IV).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear_cluster::{ClusterSpec, SpearError};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::Dag;
use spear_nn::RmsProp;
use spear_rl::pretrain::{self, PretrainConfig};
use spear_rl::{
    FeatureConfig, PolicyNetwork, ReinforceConfig, ReinforceTrainer, TrainingCurvePoint,
};

/// Configuration of [`train_policy`].
#[derive(Debug, Clone)]
pub struct TrainingPipelineConfig {
    /// Featurization shape (paper: 20-slot horizon, 15 ready slots).
    pub features: FeatureConfig,
    /// Hidden widths (`None` = the paper's 256/32/32).
    pub hidden: Option<Vec<usize>>,
    /// Training examples: random DAGs from this spec (paper: 144 examples
    /// of 25 tasks).
    pub example_spec: LayeredDagSpec,
    /// Number of training examples.
    pub num_examples: usize,
    /// Supervised phase settings.
    pub pretrain: PretrainConfig,
    /// Learning rate of the supervised phase (larger than REINFORCE's).
    pub pretrain_alpha: f64,
    /// REINFORCE phase settings.
    pub reinforce: ReinforceConfig,
    /// REINFORCE learning rate (paper: 1e-4).
    pub reinforce_alpha: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl TrainingPipelineConfig {
    /// The paper's configuration: 144 examples × 25 tasks, 20 rollouts,
    /// 7000 epochs. **Heavy** — hours of CPU; use
    /// [`TrainingPipelineConfig::fast`] for interactive runs.
    pub fn paper() -> Self {
        TrainingPipelineConfig {
            features: FeatureConfig::paper(2),
            hidden: None,
            example_spec: LayeredDagSpec::paper_training(),
            num_examples: 144,
            pretrain: PretrainConfig {
                epochs: 50,
                batch_size: 64,
            },
            pretrain_alpha: 1e-3,
            reinforce: ReinforceConfig {
                epochs: 7000,
                rollouts: 20,
                max_grad_norm: Some(10.0),
            },
            reinforce_alpha: 1e-4,
            seed: 0,
        }
    }

    /// A scaled-down pipeline that trains in minutes on one core while
    /// preserving the paper's structure (pretrain → REINFORCE). Used by
    /// the examples and the Fig. 8(b) regeneration.
    pub fn fast() -> Self {
        TrainingPipelineConfig {
            features: FeatureConfig::paper(2),
            hidden: Some(vec![64, 32]),
            example_spec: LayeredDagSpec::paper_training(),
            num_examples: 12,
            pretrain: PretrainConfig {
                epochs: 15,
                batch_size: 64,
            },
            pretrain_alpha: 1e-3,
            reinforce: ReinforceConfig {
                epochs: 40,
                rollouts: 8,
                max_grad_norm: Some(10.0),
            },
            reinforce_alpha: 1e-3,
            seed: 0,
        }
    }

    /// A minimal pipeline for unit tests (seconds).
    pub fn tiny() -> Self {
        TrainingPipelineConfig {
            features: FeatureConfig::small(2),
            hidden: Some(vec![24]),
            example_spec: LayeredDagSpec {
                num_tasks: 8,
                ..LayeredDagSpec::paper_training()
            },
            num_examples: 3,
            pretrain: PretrainConfig {
                epochs: 5,
                batch_size: 32,
            },
            pretrain_alpha: 1e-3,
            reinforce: ReinforceConfig {
                epochs: 3,
                rollouts: 4,
                max_grad_norm: Some(5.0),
            },
            reinforce_alpha: 1e-3,
            seed: 0,
        }
    }
}

/// A trained policy plus its training artifacts.
#[derive(Debug)]
pub struct TrainedPolicy {
    /// The trained network, ready for [`MctsScheduler::drl`](crate::MctsScheduler::drl).
    pub policy: PolicyNetwork,
    /// Mean supervised loss per pre-training epoch.
    pub pretrain_loss: Vec<f64>,
    /// Imitation accuracy after pre-training.
    pub pretrain_accuracy: f64,
    /// The REINFORCE learning curve (Fig. 8(b)).
    pub curve: Vec<TrainingCurvePoint>,
    /// The training example DAGs (for evaluation reuse).
    pub examples: Vec<Dag>,
}

/// Runs the full pipeline: generate examples → collect the CP-expert
/// dataset → supervised pre-training → REINFORCE. Deterministic given
/// `config.seed`.
///
/// # Errors
///
/// Propagates simulator errors (only possible if the example spec emits
/// tasks larger than the cluster).
pub fn train_policy(
    config: &TrainingPipelineConfig,
    spec: &ClusterSpec,
) -> Result<TrainedPolicy, SpearError> {
    train_policy_observed(config, spec, &spear_obs::Obs::noop())
}

/// [`train_policy`] with a metric sink: both phases record the `rl.*`
/// family (pre-training loss, per-epoch makespan/entropy/grad-norm, and
/// episode returns). The trained policy is identical to [`train_policy`]'s.
///
/// # Errors
///
/// Propagates simulator errors (only possible if the example spec emits
/// tasks larger than the cluster).
pub fn train_policy_observed(
    config: &TrainingPipelineConfig,
    spec: &ClusterSpec,
    obs: &spear_obs::Obs,
) -> Result<TrainedPolicy, SpearError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let examples: Vec<Dag> = (0..config.num_examples)
        .map(|_| config.example_spec.generate(&mut rng))
        .collect();

    let mut policy = match &config.hidden {
        Some(h) => PolicyNetwork::with_hidden(config.features.clone(), h, &mut rng),
        None => PolicyNetwork::new(config.features.clone(), &mut rng),
    };

    // Phase 1: imitate the critical-path expert (§IV).
    let dataset = pretrain::build_dataset(&policy, &examples, spec)?;
    let mut opt = RmsProp::new(config.pretrain_alpha, 0.9, 1e-9);
    let pretrain_loss = pretrain::train_observed(
        &mut policy,
        &dataset,
        &mut opt,
        &config.pretrain,
        &mut rng,
        obs,
    );
    let pretrain_accuracy = pretrain::accuracy(&policy, &dataset);

    // Phase 2: REINFORCE with the averaged baseline.
    let mut trainer =
        ReinforceTrainer::with_learning_rate(config.reinforce.clone(), config.reinforce_alpha)
            .with_obs(obs);
    let curve = trainer.train(&mut policy, &examples, spec, &mut rng)?;

    Ok(TrainedPolicy {
        policy,
        pretrain_loss,
        pretrain_accuracy,
        curve,
        examples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MctsConfig, MctsScheduler};

    #[test]
    fn tiny_pipeline_runs_end_to_end() {
        let spec = ClusterSpec::unit(2);
        let trained = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();
        assert_eq!(trained.examples.len(), 3);
        assert_eq!(trained.curve.len(), 3);
        assert!(!trained.pretrain_loss.is_empty());
        assert!(trained.pretrain_accuracy > 0.0);
        // The trained policy plugs into Spear.
        let config = MctsConfig {
            initial_budget: 10,
            min_budget: 2,
            ..MctsConfig::default()
        };
        let mut spear = MctsScheduler::drl(config, trained.policy);
        let dag = trained.examples[0].clone();
        let s = spear_sched::Scheduler::schedule(&mut spear, &dag, &spec).unwrap();
        s.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn pipeline_is_deterministic() {
        let spec = ClusterSpec::unit(2);
        let a = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();
        let b = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.pretrain_loss, b.pretrain_loss);
    }

    #[test]
    fn paper_config_matches_paper_numbers() {
        let cfg = TrainingPipelineConfig::paper();
        assert_eq!(cfg.num_examples, 144);
        assert_eq!(cfg.reinforce.epochs, 7000);
        assert_eq!(cfg.reinforce.rollouts, 20);
        assert_eq!(cfg.example_spec.num_tasks, 25);
        assert_eq!(cfg.reinforce_alpha, 1e-4);
    }
}
