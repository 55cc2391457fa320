//! REINFORCE with an averaged-rollout baseline (paper §II-B, Eq. 2–3 and
//! §IV).
//!
//! For every training example (a DAG), the trainer simulates `rollouts`
//! episodes with the stochastic policy, uses the mean return as the
//! baseline, and ascends `advantage · ∇ log π(a|s)` accumulated over all
//! steps of all rollouts. The paper trains on 144 random 25-task examples
//! with 20 rollouts each; both counts are configurable because wall-clock
//! budgets differ.
//!
//! The rollouts of one example share a [`RolloutTable`], so each distinct
//! state they reach is featurized and run through the network once.

use rand::Rng;
use spear_cluster::{ClusterSpec, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;
use spear_nn::{loss, Matrix, Optimizer, RmsProp};
use spear_obs::{Counter, Gauge, Histogram, Obs};

use crate::episode::{Rollout, RolloutTable, TableEntry};
use crate::{PolicyNetwork, SelectionMode};

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
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        ReinforceConfig {
            epochs: 100,
            rollouts: 20,
            max_grad_norm: Some(10.0),
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
    /// Mean policy entropy (diagnostic) over the decisions of the epoch's
    /// rollouts whose advantage is nonzero, the ones the updates learn
    /// from. It reads 0.0 when no rollout's advantage is nonzero: the
    /// value of an empty sum, not a measured entropy.
    pub mean_entropy: f64,
}

/// The trainer's instruments (the `rl.*` metric family): per-epoch curve
/// gauges, per-episode return distribution, gradient norms and the
/// rollout table's probes. Built when an enabled sink is attached.
#[derive(Debug, Clone)]
struct TrainObs {
    epochs: Counter,
    episodes: Counter,
    /// Examples whose rollouts all returned the baseline: every
    /// advantage is 0, so the update has no gradient and leaves the
    /// weights where they were.
    zero_advantage_examples: Counter,
    /// Rollout decisions served from the [`RolloutTable`].
    rollout_table_hits: Counter,
    /// Rollout decisions that featurized and ran the network.
    rollout_table_misses: Counter,
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
            rollout_table_hits: obs.counter("rl.rollout_table_hits"),
            rollout_table_misses: obs.counter("rl.rollout_table_misses"),
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
/// histogram, epoch wall time, `rl.zero_advantage_examples`, the
/// examples whose rollouts all tied (a collapsed policy learns nothing
/// from them), and `rl.rollout_table_hits`/`rl.rollout_table_misses`,
/// the rollout decisions that an example's table (see
/// [`ReinforceTrainer::train_epoch`]) served and computed.
/// Recording reads values the trainer already computes (plus one
/// gradient-norm pass per example when enabled) and never changes an
/// update.
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
    /// An example's rollouts share one table keyed by
    /// [`SimState::frontier_fingerprint`](spear_cluster::SimState::frontier_fingerprint),
    /// cleared when the example starts: each distinct state they reach is
    /// featurized and run through the network once, and a repeat is one
    /// probe. The weights change only after the example's last rollout,
    /// so the table changes no bit of the epoch.
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
        let mut table = RolloutTable::default();

        for (dag, features) in examples {
            // 1. Roll out, through a table of this example's states only.
            table.clear();
            let rollouts: Vec<_> = (0..self.config.rollouts)
                .map(|_| table.roll_out(policy, dag, spec, features, SelectionMode::Sample, rng))
                .collect::<Result<_, _>>()?;
            for r in &rollouts {
                makespan_sum += r.makespan as f64;
            }
            makespan_count += rollouts.len();
            if spear_obs::compiled() {
                if let Some(to) = &self.train_obs {
                    to.episodes.add(rollouts.len() as u64);
                    for r in &rollouts {
                        to.episode_return.record(r.makespan);
                    }
                }
            }
            // 2. Learn from them: baseline, policy gradient, one update.
            self.update(
                policy,
                table.entries(),
                &rollouts,
                &mut entropy_sum,
                &mut entropy_count,
            );
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
                to.rollout_table_hits.add(table.hits);
                to.rollout_table_misses.add(table.misses);
            }
        }
        Ok(point)
    }

    /// One example's update from its rollouts, whose decisions index
    /// `entries`: the mean return is the baseline (paper §IV),
    /// `advantage · ∇ log π(a|s)` is accumulated over every step of every
    /// rollout whose advantage is nonzero, and the optimizer takes one
    /// step. Those rollouts' decision-weighted entropy is added to the
    /// epoch's running sums.
    fn update(
        &mut self,
        policy: &mut PolicyNetwork,
        entries: &[TableEntry],
        rollouts: &[Rollout],
        entropy_sum: &mut f64,
        entropy_count: &mut usize,
    ) {
        let mean_ret: f64 = rollouts.iter().map(Rollout::ret).sum::<f64>() / rollouts.len() as f64;
        // Returns are O(makespan); normalize by the mean magnitude (at
        // least 1) so advantages are O(1) regardless of DAG size and
        // examples of different scales contribute comparably.
        let scale = mean_ret.abs().max(1.0);

        policy.net_mut().zero_grad();
        let total_steps: usize = rollouts.iter().map(|r| r.steps.len()).sum();
        if total_steps == 0 {
            return;
        }
        let mut learned = false;
        for rollout in rollouts {
            let advantage = (rollout.ret() - mean_ret) / scale;
            if advantage == 0.0 {
                continue;
            }
            learned = true;
            let rows: Vec<&[f64]> = rollout
                .steps
                .iter()
                .map(|&(e, _)| entries[e].view.features.as_slice())
                .collect();
            let x = Matrix::from_rows(&rows);
            let actions: Vec<usize> = rollout.steps.iter().map(|&(_, a)| a).collect();
            let masks: Vec<Vec<bool>> = rollout
                .steps
                .iter()
                .map(|&(e, _)| entries[e].view.mask.clone())
                .collect();
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
                to.grad_norm.set(policy.net().grad_norm());
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
    use crate::episode::tests::three_machines;
    use crate::policy::sample_index;
    use crate::{FeatureConfig, Featurizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_cluster::SimState;
    use spear_dag::generator::LayeredDagSpec;
    use spear_dag::{DagBuilder, ResourceVec, Task};
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

    /// Rolls the policy out on `dag` the way the trainer did before it
    /// had a table: every decision featurizes, runs `forward_one_into`
    /// and `softmax_masked_into`, and gets an entry of its own.
    fn uncached_rollout(
        policy: &PolicyNetwork,
        dag: &Dag,
        spec: &ClusterSpec,
        features: &GraphFeatures,
        entries: &mut Vec<TableEntry>,
        rng: &mut StdRng,
    ) -> Rollout {
        let mut state = SimState::new(dag, spec).unwrap();
        let (mut ready, mut scratch) = (Vec::new(), ForwardScratch::default());
        let mut steps = Vec::new();
        while !state.is_terminal(dag) {
            let mut entry = TableEntry::default();
            policy.featurizer().featurize_into(
                dag,
                spec,
                &state,
                features,
                &mut ready,
                &mut entry.view,
            );
            let logits = policy
                .net()
                .forward_one_into(&entry.view.features, &mut scratch);
            softmax_masked_into(logits, &entry.view.mask, &mut entry.probs);
            let action = sample_index(&entry.probs, rng);
            state
                .apply(dag, entry.view.action(action, dag, &state))
                .unwrap();
            steps.push((entries.len(), action));
            entries.push(entry);
        }
        let makespan = state.makespan().unwrap();
        Rollout { steps, makespan }
    }

    fn weight_bits(policy: &PolicyNetwork) -> Vec<u64> {
        policy
            .net()
            .layers()
            .iter()
            .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Trains `epochs` epochs from `start` through `train_epoch` and
    /// through the uncached reference, and checks that both give the same
    /// curve, the same weight bits and the same RNG position, with some
    /// advantage nonzero in every epoch. Returns the trained policy.
    fn assert_table_is_transparent(
        start: &PolicyNetwork,
        examples: &[(Dag, GraphFeatures)],
        spec: &ClusterSpec,
        epochs: usize,
    ) -> PolicyNetwork {
        let config = ReinforceConfig {
            epochs,
            rollouts: 6,
            ..ReinforceConfig::default()
        };

        let mut tabled = start.clone();
        let mut tabled_rng = StdRng::seed_from_u64(9);
        let mut trainer = ReinforceTrainer::with_learning_rate(config.clone(), 1e-2);
        let curve: Vec<TrainingCurvePoint> = (0..epochs)
            .map(|epoch| {
                trainer
                    .train_epoch(&mut tabled, examples, spec, epoch, &mut tabled_rng)
                    .unwrap()
            })
            .collect();

        let mut uncached = start.clone();
        let mut uncached_rng = StdRng::seed_from_u64(9);
        let mut trainer = ReinforceTrainer::with_learning_rate(config.clone(), 1e-2);
        let mut reference = Vec::new();
        for epoch in 0..epochs {
            let (mut makespans, mut rollouts) = (0.0, 0usize);
            let (mut entropy_sum, mut entropy_count) = (0.0, 0usize);
            for (dag, features) in examples {
                let mut entries = Vec::new();
                let example: Vec<Rollout> = (0..config.rollouts)
                    .map(|_| {
                        let rng = &mut uncached_rng;
                        uncached_rollout(&uncached, dag, spec, features, &mut entries, rng)
                    })
                    .collect();
                makespans += example.iter().map(|r| r.makespan as f64).sum::<f64>();
                rollouts += example.len();
                trainer.update(
                    &mut uncached,
                    &entries,
                    &example,
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
        assert_eq!(weight_bits(&tabled), weight_bits(&uncached));
        assert_eq!(tabled_rng.gen::<u64>(), uncached_rng.gen::<u64>());
        tabled
    }

    fn examples(seed: u64, count: usize, tasks: usize) -> Vec<(Dag, GraphFeatures)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let dag = LayeredDagSpec {
                    num_tasks: tasks,
                    ..LayeredDagSpec::paper_training()
                }
                .generate(&mut rng);
                let features = GraphFeatures::compute(&dag);
                (dag, features)
            })
            .collect()
    }

    fn small_policy(seed: u64) -> PolicyNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        PolicyNetwork::with_hidden(FeatureConfig::small(2), &[24], &mut rng)
    }

    /// Table-driven REINFORCE epochs equal epochs whose every decision
    /// featurizes and runs the network: the same curve points, the same
    /// weight bits and the same RNG position, on the unit box and on
    /// three machines. The second epoch revisits the first one's states
    /// under new weights, so a row that outlived an update would show.
    #[test]
    fn cached_rollouts_train_like_uncached_ones() {
        let start = small_policy(8);
        assert_table_is_transparent(&start, &examples(8, 3, 8), &ClusterSpec::unit(2), 2);
        assert_table_is_transparent(&start, &examples(8, 3, 8), &three_machines(), 2);
    }

    /// A six-task fan-in DAG with the given runtimes and fixed demands.
    fn fan_in(runtimes: [u64; 6]) -> (Dag, GraphFeatures) {
        let mut b = DagBuilder::new(2);
        let demands = [
            [0.5, 0.2],
            [0.3, 0.4],
            [0.4, 0.3],
            [0.2, 0.6],
            [0.6, 0.2],
            [0.3, 0.3],
        ];
        let ids: Vec<_> = runtimes
            .iter()
            .zip(demands)
            .map(|(&rt, d)| b.add_task(Task::new(rt, ResourceVec::from_slice(&d))))
            .collect();
        for (parent, child) in [(0, 3), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
            b.add_edge(ids[parent], ids[child]).unwrap();
        }
        let dag = b.build().unwrap();
        let features = GraphFeatures::compute(&dag);
        (dag, features)
    }

    /// The table holds one example's states only. Two DAGs of one shape
    /// and one set of demands, but different runtimes, start from equal
    /// frontier keys and featurize apart; a table kept across the
    /// examples would serve the first one's row to the second.
    #[test]
    fn the_table_is_scoped_to_one_example() {
        let a = fan_in([3, 5, 2, 4, 6, 1]);
        let b = fan_in([6, 2, 5, 1, 3, 4]);
        for spec in [ClusterSpec::unit(2), three_machines()] {
            let start_a = SimState::new(&a.0, &spec).unwrap();
            let start_b = SimState::new(&b.0, &spec).unwrap();
            assert_eq!(
                start_a.frontier_fingerprint(),
                start_b.frontier_fingerprint()
            );
            let featurizer = Featurizer::new(FeatureConfig::small(2));
            assert_ne!(
                featurizer.featurize(&a.0, &spec, &start_a, &a.1),
                featurizer.featurize(&b.0, &spec, &start_b, &b.1)
            );
            assert_table_is_transparent(&small_policy(4), &[a.clone(), b.clone()], &spec, 1);
        }
    }

    /// No row computed before an update is served after it: an example
    /// rolled out again right after its own update starts from the same
    /// key, and its table entries are the updated network's rows.
    #[test]
    fn no_row_outlives_an_update() {
        let example = examples(21, 1, 8).remove(0);
        let spec = ClusterSpec::unit(2);
        let start = small_policy(21);
        let (dag, features) = &example;
        let initial = SimState::new(dag, &spec).unwrap();
        let row = |policy: &PolicyNetwork| {
            let view = policy
                .featurizer()
                .featurize(dag, &spec, &initial, features);
            let logits = policy
                .net()
                .forward_one_into(&view.features, &mut ForwardScratch::default())
                .to_vec();
            let mut probs = Vec::new();
            softmax_masked_into(&logits, &view.mask, &mut probs);
            probs
        };

        let once = assert_table_is_transparent(&start, std::slice::from_ref(&example), &spec, 1);
        assert_ne!(row(&start), row(&once), "the update must move the row");
        assert_table_is_transparent(&start, &[example.clone(), example.clone()], &spec, 1);

        // The trainer's own table, rolled out under `once` after a
        // rollout under `start`, serves `once`'s row.
        let mut table = RolloutTable::default();
        let mut rng = StdRng::seed_from_u64(3);
        table
            .roll_out(
                &start,
                dag,
                &spec,
                features,
                SelectionMode::Sample,
                &mut rng,
            )
            .unwrap();
        assert_eq!(table.entries()[0].probs, row(&start));
        table.clear();
        table
            .roll_out(&once, dag, &spec, features, SelectionMode::Sample, &mut rng)
            .unwrap();
        assert_eq!(table.entries()[0].probs, row(&once));
    }

    /// Repeated states hit: every decision is one probe, and a miss is
    /// one new entry.
    #[test]
    fn rollouts_of_one_example_share_entries() {
        let (dag, features) = examples(5, 1, 12).remove(0);
        let spec = ClusterSpec::unit(2);
        let policy = small_policy(5);
        let mut table = RolloutTable::default();
        let mut rng = StdRng::seed_from_u64(6);
        let rollouts: Vec<Rollout> = (0..10)
            .map(|_| {
                table
                    .roll_out(
                        &policy,
                        &dag,
                        &spec,
                        &features,
                        SelectionMode::Sample,
                        &mut rng,
                    )
                    .unwrap()
            })
            .collect();
        let decisions: usize = rollouts.iter().map(|r| r.steps.len()).sum();
        assert_eq!(table.hits + table.misses, decisions as u64);
        assert_eq!(table.misses, table.entries().len() as u64);
        assert!(table.hits >= 9, "every rollout starts from one state");
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
            });
            trainer.train(&mut policy, &[dag], &spec, &mut rng).unwrap()
        };
        let a = make_curve(5);
        let b = make_curve(5);
        assert_eq!(a, b);
    }
}
