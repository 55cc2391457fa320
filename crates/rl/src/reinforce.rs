//! REINFORCE with an averaged-rollout baseline (paper §II-B, Eq. 2–3 and
//! §IV).
//!
//! For every training example (a DAG), the trainer simulates `rollouts`
//! episodes with the stochastic policy, uses the mean return as the
//! baseline, and ascends `advantage · ∇ log π(a|s)` accumulated over all
//! steps of all rollouts. The paper trains on 144 random 25-task examples
//! with 20 rollouts each; both counts are configurable because wall-clock
//! budgets differ.

use rand::Rng;
use spear_cluster::{ClusterSpec, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;
use spear_nn::{loss, Matrix, Optimizer, RmsProp};
use spear_obs::{Counter, Gauge, Histogram, Obs};

use crate::episode::run_episode_with_features;
use crate::{Episode, PolicyNetwork, SelectionMode};

/// Hyper-parameters of the REINFORCE phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ReinforceConfig {
    /// Training epochs (passes over the example set).
    pub epochs: usize,
    /// Monte-Carlo rollouts per example per epoch (paper: 20); their mean
    /// return is the baseline.
    pub rollouts: usize,
    /// Optional global gradient-norm clip (stabilizes small-batch runs).
    pub max_grad_norm: Option<f64>,
    /// Normalize returns by the Tetris estimate of each DAG so examples of
    /// different scales contribute comparable advantages.
    pub normalize_returns: bool,
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        ReinforceConfig {
            epochs: 100,
            rollouts: 20,
            max_grad_norm: Some(10.0),
            normalize_returns: true,
        }
    }
}

/// One point of the learning curve (Fig. 8(b)).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainingCurvePoint {
    /// Epoch index.
    pub epoch: usize,
    /// Mean makespan over every rollout of every example in the epoch —
    /// the negative of the mean reward.
    pub mean_makespan: f64,
    /// Mean policy entropy over the epoch's decisions (diagnostic).
    pub mean_entropy: f64,
}

/// The trainer's instruments (the `rl.*` metric family): per-epoch curve
/// gauges, per-episode return distribution, and gradient norms. Built
/// when an enabled sink is attached.
#[derive(Debug, Clone)]
struct TrainObs {
    epochs: Counter,
    episodes: Counter,
    /// Examples whose rollouts all returned the baseline: every
    /// advantage is 0, so the update has no gradient and leaves the
    /// weights where they were.
    zero_advantage_examples: Counter,
    episode_return: Histogram,
    epoch_ns: Histogram,
    mean_makespan: Gauge,
    mean_entropy: Gauge,
    grad_norm: Gauge,
}

impl TrainObs {
    fn new(obs: &Obs) -> Self {
        TrainObs {
            epochs: obs.counter("rl.epochs"),
            episodes: obs.counter("rl.episodes"),
            zero_advantage_examples: obs.counter("rl.zero_advantage_examples"),
            episode_return: obs.histogram("rl.episode_return"),
            epoch_ns: obs.histogram("rl.epoch_ns"),
            mean_makespan: obs.gauge("rl.mean_makespan"),
            mean_entropy: obs.gauge("rl.mean_entropy"),
            grad_norm: obs.gauge("rl.grad_norm"),
        }
    }
}

/// The REINFORCE trainer. Owns the optimizer; borrows the policy per call
/// so callers can evaluate between epochs.
///
/// An [`Obs`] sink attached via [`ReinforceTrainer::with_obs`] records the
/// `rl.*` metric family: per-epoch mean makespan/entropy and pre-clip
/// gradient norm as gauges, per-episode returns (as makespans) into a
/// histogram, epoch wall time, and `rl.zero_advantage_examples`, the
/// examples whose rollouts all tied (a collapsed policy learns nothing
/// from them). Recording reads values the trainer
/// already computes (plus one gradient-norm pass per example when
/// enabled) and never changes an update.
#[derive(Debug)]
pub struct ReinforceTrainer {
    config: ReinforceConfig,
    optimizer: RmsProp,
    obs: Obs,
    train_obs: Option<TrainObs>,
}

impl ReinforceTrainer {
    /// Creates a trainer with the paper's RMSProp hyper-parameters.
    pub fn new(config: ReinforceConfig) -> Self {
        ReinforceTrainer {
            config,
            optimizer: RmsProp::default_paper(),
            obs: Obs::noop(),
            train_obs: None,
        }
    }

    /// Creates a trainer with a custom optimizer learning rate (the
    /// paper's 1e-4 needs thousands of epochs; larger rates converge in
    /// fewer for the scaled-down experiments).
    pub fn with_learning_rate(config: ReinforceConfig, alpha: f64) -> Self {
        let mut optimizer = RmsProp::default_paper();
        optimizer.set_alpha(alpha);
        ReinforceTrainer {
            config,
            optimizer,
            obs: Obs::noop(),
            train_obs: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReinforceConfig {
        &self.config
    }

    /// Attaches a metric sink recording the `rl.*` family (see the
    /// type-level docs). Pass [`Obs::noop`] to detach.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place variant of [`ReinforceTrainer::with_obs`].
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.train_obs =
            (spear_obs::compiled() && self.obs.is_enabled()).then(|| TrainObs::new(&self.obs));
    }

    /// Runs one training epoch over `examples`, updating the policy once
    /// per example (mini-batch = the example's rollouts). Returns the
    /// epoch's curve point.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        policy: &mut PolicyNetwork,
        examples: &[(Dag, GraphFeatures)],
        spec: &ClusterSpec,
        epoch: usize,
        rng: &mut R,
    ) -> Result<TrainingCurvePoint, SpearError> {
        let _epoch_span = if spear_obs::compiled() {
            self.train_obs.as_ref().map(|to| to.epoch_ns.start_span())
        } else {
            None
        };
        let mut makespan_sum = 0.0;
        let mut makespan_count = 0usize;
        let mut entropy_sum = 0.0;
        let mut entropy_count = 0usize;

        for (dag, features) in examples {
            // 1. Roll out.
            let episodes: Vec<_> = (0..self.config.rollouts)
                .map(|_| {
                    run_episode_with_features(
                        policy,
                        dag,
                        spec,
                        features,
                        SelectionMode::Sample,
                        true,
                        rng,
                    )
                })
                .collect::<Result<_, _>>()?;
            for e in &episodes {
                makespan_sum += e.makespan as f64;
            }
            makespan_count += episodes.len();
            if spear_obs::compiled() {
                if let Some(to) = &self.train_obs {
                    to.episodes.add(episodes.len() as u64);
                    for e in &episodes {
                        to.episode_return.record(e.makespan);
                    }
                }
            }
            // 2. Learn from them: baseline, policy gradient, one update.
            self.update(policy, &episodes, &mut entropy_sum, &mut entropy_count);
        }

        let point = TrainingCurvePoint {
            epoch,
            mean_makespan: makespan_sum / makespan_count.max(1) as f64,
            mean_entropy: entropy_sum / entropy_count.max(1) as f64,
        };
        if spear_obs::compiled() {
            if let Some(to) = &self.train_obs {
                to.epochs.incr();
                to.mean_makespan.set(point.mean_makespan);
                to.mean_entropy.set(point.mean_entropy);
            }
        }
        Ok(point)
    }

    /// One example's update from its rollouts: the mean return is the
    /// baseline (paper §IV), `advantage · ∇ log π(a|s)` is accumulated
    /// over every step of every rollout whose advantage is nonzero, and
    /// the optimizer takes one step. Those rollouts' decision-weighted
    /// entropy is added to the epoch's running sums.
    fn update(
        &mut self,
        policy: &mut PolicyNetwork,
        episodes: &[Episode],
        entropy_sum: &mut f64,
        entropy_count: &mut usize,
    ) {
        let mean_ret: f64 = episodes.iter().map(|e| e.ret()).sum::<f64>() / episodes.len() as f64;
        let scale = if self.config.normalize_returns {
            // Returns are O(makespan); normalize by the mean magnitude
            // so advantages are O(1) regardless of DAG size.
            mean_ret.abs().max(1.0)
        } else {
            1.0
        };

        policy.net_mut().zero_grad();
        let total_steps: usize = episodes.iter().map(|e| e.steps.len()).sum();
        if total_steps == 0 {
            return;
        }
        let mut learned = false;
        for episode in episodes {
            let advantage = (episode.ret() - mean_ret) / scale;
            if advantage == 0.0 {
                continue;
            }
            learned = true;
            let rows: Vec<&[f64]> = episode
                .steps
                .iter()
                .map(|s| s.features.as_slice())
                .collect();
            let x = Matrix::from_rows(&rows);
            let actions: Vec<usize> = episode.steps.iter().map(|s| s.action).collect();
            let masks: Vec<Vec<bool>> = episode.steps.iter().map(|s| s.mask.clone()).collect();
            let advantages = vec![advantage; actions.len()];
            let logits = policy.net_mut().forward(&x);
            *entropy_sum += loss::mean_entropy(&logits, &masks) * actions.len() as f64;
            *entropy_count += actions.len();
            let d = loss::policy_gradient(
                &logits,
                &actions,
                &advantages,
                &masks,
                1.0 / total_steps as f64,
            );
            policy.net_mut().backward(&d);
        }

        if spear_obs::compiled() {
            if let Some(to) = &self.train_obs {
                if !learned {
                    to.zero_advantage_examples.incr();
                }
                to.grad_norm.set(policy.net_mut().grad_norm());
            }
        }
        if let Some(max_norm) = self.config.max_grad_norm {
            policy.net_mut().clip_grad_norm(max_norm);
        }
        self.optimizer.step(policy.net_mut());
        policy.net_mut().zero_grad();
    }

    /// Runs the full training loop, returning the learning curve.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        policy: &mut PolicyNetwork,
        dags: &[Dag],
        spec: &ClusterSpec,
        rng: &mut R,
    ) -> Result<Vec<TrainingCurvePoint>, SpearError> {
        let examples: Vec<(Dag, GraphFeatures)> = dags
            .iter()
            .map(|d| (d.clone(), GraphFeatures::compute(d)))
            .collect();
        let mut curve = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            curve.push(self.train_epoch(policy, &examples, spec, epoch, rng)?);
        }
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureConfig, StateView, StepRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_nn::{softmax_masked_into, ForwardScratch};

    /// End-to-end smoke test: a few epochs on tiny DAGs must improve (or
    /// at least not catastrophically regress) the mean makespan, and the
    /// curve must be fully recorded.
    #[test]
    fn reinforce_improves_tiny_policy() {
        let mut rng = StdRng::seed_from_u64(33);
        let dags: Vec<Dag> = (0..3)
            .map(|_| {
                LayeredDagSpec {
                    num_tasks: 8,
                    ..LayeredDagSpec::paper_training()
                }
                .generate(&mut rng)
            })
            .collect();
        let spec = ClusterSpec::unit(2);
        let mut policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[24], &mut rng);
        let mut trainer = ReinforceTrainer::with_learning_rate(
            ReinforceConfig {
                epochs: 15,
                rollouts: 8,
                max_grad_norm: Some(5.0),
                normalize_returns: true,
            },
            1e-2,
        );
        let curve = trainer.train(&mut policy, &dags, &spec, &mut rng).unwrap();
        assert_eq!(curve.len(), 15);
        let first: f64 = curve[..3].iter().map(|p| p.mean_makespan).sum::<f64>() / 3.0;
        let last: f64 = curve[curve.len() - 3..]
            .iter()
            .map(|p| p.mean_makespan)
            .sum::<f64>()
            / 3.0;
        assert!(
            last <= first * 1.05,
            "training diverged: first {first}, last {last}"
        );
        for p in &curve {
            assert!(p.mean_makespan.is_finite());
            assert!(p.mean_entropy >= 0.0);
        }
    }

    /// Rolls out like `run_episode_with_features`, computing every
    /// distribution afresh: featurize, `forward_one_into`,
    /// `softmax_masked_into`, then the policy's own draw.
    fn uncached_episode(
        policy: &PolicyNetwork,
        dag: &Dag,
        spec: &ClusterSpec,
        features: &GraphFeatures,
        rng: &mut StdRng,
    ) -> Episode {
        let mut state = spear_cluster::SimState::new(dag, spec).unwrap();
        let (mut ready, mut scratch, mut probs) =
            (Vec::new(), ForwardScratch::default(), Vec::new());
        let mut steps = Vec::new();
        while !state.is_terminal(dag) {
            let mut view = StateView::default();
            policy
                .featurizer()
                .featurize_into(dag, spec, &state, features, &mut ready, &mut view);
            let logits = policy.net().forward_one_into(&view.features, &mut scratch);
            softmax_masked_into(logits, &view.mask, &mut probs);
            let action = crate::policy::sample_index(&probs, rng);
            state.apply(dag, view.action(action, dag, &state)).unwrap();
            steps.push(StepRecord {
                features: view.features,
                action,
                mask: view.mask,
            });
        }
        let makespan = state.makespan().unwrap();
        Episode { steps, makespan }
    }

    /// REINFORCE epochs on the cached policy equal the same epochs driven
    /// through uncached forward passes: the same curve points, the same
    /// weight bits and the same RNG position. The weights change once per
    /// example, and the second epoch revisits the first one's inputs, so
    /// a row that outlived a weight change would show.
    #[test]
    fn cached_rollouts_train_like_uncached_ones() {
        let mut rng = StdRng::seed_from_u64(8);
        let examples: Vec<(Dag, GraphFeatures)> = (0..3)
            .map(|_| {
                let dag = LayeredDagSpec {
                    num_tasks: 8,
                    ..LayeredDagSpec::paper_training()
                }
                .generate(&mut rng);
                let features = GraphFeatures::compute(&dag);
                (dag, features)
            })
            .collect();
        let spec = ClusterSpec::unit(2);
        let start = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[24], &mut rng);
        let config = ReinforceConfig {
            epochs: 2,
            rollouts: 6,
            ..ReinforceConfig::default()
        };

        let mut cached = start.clone();
        let mut cached_rng = StdRng::seed_from_u64(9);
        let mut trainer = ReinforceTrainer::with_learning_rate(config.clone(), 1e-2);
        let curve: Vec<TrainingCurvePoint> = (0..config.epochs)
            .map(|epoch| {
                trainer
                    .train_epoch(&mut cached, &examples, &spec, epoch, &mut cached_rng)
                    .unwrap()
            })
            .collect();

        let mut uncached = start;
        let mut uncached_rng = StdRng::seed_from_u64(9);
        let mut trainer = ReinforceTrainer::with_learning_rate(config.clone(), 1e-2);
        let mut reference = Vec::new();
        for epoch in 0..config.epochs {
            let (mut makespans, mut rollouts) = (0.0, 0usize);
            let (mut entropy_sum, mut entropy_count) = (0.0, 0usize);
            for (dag, features) in &examples {
                let episodes: Vec<Episode> = (0..config.rollouts)
                    .map(|_| uncached_episode(&uncached, dag, &spec, features, &mut uncached_rng))
                    .collect();
                makespans += episodes.iter().map(|e| e.makespan as f64).sum::<f64>();
                rollouts += episodes.len();
                trainer.update(
                    &mut uncached,
                    &episodes,
                    &mut entropy_sum,
                    &mut entropy_count,
                );
            }
            assert!(entropy_count > 0, "some advantage must be nonzero");
            reference.push(TrainingCurvePoint {
                epoch,
                mean_makespan: makespans / rollouts as f64,
                mean_entropy: entropy_sum / entropy_count as f64,
            });
        }

        assert_eq!(curve, reference);
        let bits = |p: &PolicyNetwork| {
            p.net()
                .layers()
                .iter()
                .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()))
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&cached), bits(&uncached));
        assert_eq!(cached_rng.gen::<u64>(), uncached_rng.gen::<u64>());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ReinforceConfig::default();
        assert_eq!(cfg.rollouts, 20);
    }

    #[test]
    fn trainer_is_deterministic_given_seed() {
        let make_curve = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dag = LayeredDagSpec {
                num_tasks: 6,
                ..LayeredDagSpec::paper_training()
            }
            .generate(&mut rng);
            let spec = ClusterSpec::unit(2);
            let mut policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[12], &mut rng);
            let mut trainer = ReinforceTrainer::new(ReinforceConfig {
                epochs: 3,
                rollouts: 4,
                max_grad_norm: None,
                normalize_returns: false,
            });
            trainer.train(&mut policy, &[dag], &spec, &mut rng).unwrap()
        };
        let a = make_curve(5);
        let b = make_curve(5);
        assert_eq!(a, b);
    }
}
