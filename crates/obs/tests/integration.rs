//! End-to-end observability tests over the real stack.
//!
//! These are the acceptance tests of the observability layer: attaching
//! metric sinks anywhere in the stack must never change a schedule or a
//! training outcome (bit-identity), and one instrumented run of
//! simulation + search + training must surface every metric family in
//! the exporters.
//!
//! The dev-dependencies pull the downstream crates in with their `obs`
//! features, so under `cargo test` the whole workspace is built with
//! recording compiled in — the strongest configuration to test. The
//! bit-identity assertions run identically (and still matter) when the
//! feature is off.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::{train_policy_observed, TrainingPipelineConfig};
use spear_cluster::env::{DecisionPolicy, EpisodeDriver, NoRng, SimEnv};
use spear_cluster::{Action, ClusterSpec};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::Dag;
use spear_mcts::{MctsConfig, MctsScheduler, RootParallelMcts};
use spear_obs::{MetricsRegistry, Obs};
use spear_rl::pretrain::PretrainConfig;
use spear_rl::{
    pretrain, run_episode, FeatureConfig, PolicyNetwork, ReinforceConfig, ReinforceTrainer,
    SelectionMode,
};
use spear_sched::{CpScheduler, ObservedScheduler, Scheduler};

fn dag(seed: u64, tasks: usize) -> Dag {
    LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_training()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

fn mcts_config(budget: u64, seed: u64) -> MctsConfig {
    MctsConfig {
        initial_budget: budget,
        min_budget: (budget / 5).max(1),
        seed,
        ..MctsConfig::default()
    }
}

/// A trivial greedy policy for driving episodes directly.
struct FirstFit;

impl<R: rand::Rng + ?Sized> DecisionPolicy<R> for FirstFit {
    fn decide(&mut self, env: &SimEnv<'_>, _rng: &mut R) -> Action {
        env.observe()
            .legal_actions(env.dag())
            .into_iter()
            .find(|a| matches!(a, Action::Place(..)))
            .unwrap_or(Action::Process)
    }
}

#[test]
fn instrumented_episode_driver_is_bit_identical() {
    let dag = dag(11, 24);
    let spec = ClusterSpec::unit(2);
    let plain = EpisodeDriver::new(FirstFit)
        .run(&dag, &spec, &mut NoRng)
        .unwrap();
    let registry = MetricsRegistry::new();
    let observed = EpisodeDriver::new(FirstFit)
        .with_obs(&registry.sink("episodes"))
        .run(&dag, &spec, &mut NoRng)
        .unwrap();
    assert_eq!(plain, observed, "instrumentation changed the schedule");
    if spear_obs::compiled() {
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("sim.episodes"), Some(1));
        assert_eq!(snap.counter_value("sim.admissions"), Some(dag.len() as u64));
        assert_eq!(
            snap.gauge_last("sim.makespan"),
            Some(observed.makespan() as f64)
        );
    }
}

#[test]
fn instrumented_mcts_schedulers_are_bit_identical() {
    let dag = dag(5, 20);
    let spec = ClusterSpec::unit(2);

    let plain = MctsScheduler::pure(mcts_config(40, 7))
        .schedule(&dag, &spec)
        .unwrap();
    let registry = MetricsRegistry::new();
    let observed = MctsScheduler::pure(mcts_config(40, 7))
        .with_obs(&registry.sink("mcts"))
        .schedule(&dag, &spec)
        .unwrap();
    assert_eq!(plain, observed, "pure MCTS changed under instrumentation");

    let policy = PolicyNetwork::new(FeatureConfig::small(2), &mut StdRng::seed_from_u64(0));
    let plain_drl = MctsScheduler::drl(mcts_config(15, 7), policy.clone())
        .schedule(&dag, &spec)
        .unwrap();
    let observed_drl = MctsScheduler::drl(mcts_config(15, 7), policy)
        .with_obs(&registry.sink("mcts"))
        .schedule(&dag, &spec)
        .unwrap();
    assert_eq!(
        plain_drl, observed_drl,
        "DRL MCTS changed under instrumentation"
    );

    if spear_obs::compiled() {
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("mcts.episodes"), Some(2));
        assert!(snap.counter_value("mcts.iterations").unwrap() > 0);
        assert!(snap.counter_value("mcts.rollout_steps").unwrap() > 0);
        assert!(snap.histogram_count("mcts.decision_ns").unwrap() > 0);
        assert!(snap.histogram_count("mcts.tree_depth").unwrap() > 0);
        // The DRL run consulted the network (directly or via its cache).
        let probes = snap.counter_value("mcts.cache_hits").unwrap_or(0)
            + snap.counter_value("mcts.cache_misses").unwrap_or(0)
            + snap.counter_value("mcts.inference_skips").unwrap_or(0);
        assert!(probes > 0, "DRL run recorded no inference activity");
    }
}

#[test]
fn instrumented_training_is_bit_identical() {
    let spec = ClusterSpec::unit(2);
    let examples: Vec<Dag> = (0..2).map(|i| dag(20 + i, 12)).collect();
    let config = ReinforceConfig {
        epochs: 2,
        rollouts: 2,
        ..ReinforceConfig::default()
    };

    let run = |obs: Option<&Obs>| {
        let mut policy = PolicyNetwork::with_hidden(
            FeatureConfig::small(2),
            &[16],
            &mut StdRng::seed_from_u64(3),
        );
        let mut trainer = ReinforceTrainer::new(config.clone());
        if let Some(obs) = obs {
            trainer.set_obs(obs);
        }
        let curve = trainer
            .train(&mut policy, &examples, &spec, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let mut weights = Vec::new();
        policy.net().save(&mut weights).unwrap();
        (curve, weights)
    };

    let registry = MetricsRegistry::new();
    let sink = registry.sink("train");
    let (plain_curve, plain_weights) = run(None);
    let (obs_curve, obs_weights) = run(Some(&sink));
    assert_eq!(
        plain_curve, obs_curve,
        "curve changed under instrumentation"
    );
    assert_eq!(
        plain_weights, obs_weights,
        "weights changed under instrumentation"
    );

    if spear_obs::compiled() {
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("rl.epochs"), Some(2));
        assert!(snap.counter_value("rl.episodes").unwrap() > 0);
        assert!(snap.histogram_count("rl.episode_return").unwrap() > 0);
        assert!(snap.gauge_last("rl.grad_norm").unwrap() >= 0.0);
        assert!(snap.counter_value("rl.rollout_table_hits").unwrap() > 0);
        assert!(snap.counter_value("rl.rollout_table_misses").unwrap() > 0);
    }
}

/// `rl.rollout_table_hits + rl.rollout_table_misses` is the number of
/// rollout decisions, and the table's counters leave training as it
/// was. At learning rate 0 the weights never move, so `run_episode`
/// from the trainer's RNG stream replays its rollouts one decision at a
/// time and counts them.
#[test]
fn rollout_table_probes_count_every_decision() {
    let spec = ClusterSpec::unit(2);
    let examples: Vec<Dag> = (0..3).map(|i| dag(30 + i, 12)).collect();
    let config = ReinforceConfig {
        epochs: 2,
        rollouts: 5,
        ..ReinforceConfig::default()
    };
    let start = PolicyNetwork::with_hidden(
        FeatureConfig::small(2),
        &[16],
        &mut StdRng::seed_from_u64(5),
    );
    let weights = |policy: &PolicyNetwork| {
        let mut bytes = Vec::new();
        policy.net().save(&mut bytes).unwrap();
        bytes
    };
    let run = |obs: &Obs| {
        let mut policy = start.clone();
        let mut trainer = ReinforceTrainer::with_learning_rate(config.clone(), 0.0).with_obs(obs);
        let curve = trainer
            .train(&mut policy, &examples, &spec, &mut StdRng::seed_from_u64(6))
            .unwrap();
        (curve, weights(&policy))
    };

    let registry = MetricsRegistry::new();
    let observed = run(&registry.sink("train"));
    assert_eq!(observed, run(&Obs::noop()), "the sink changed training");
    assert_eq!(
        observed.1,
        weights(&start),
        "learning rate 0 moved a weight"
    );

    let mut replay = start.clone();
    let mut rng = StdRng::seed_from_u64(6);
    let mut decisions = 0;
    for _ in 0..config.epochs {
        for dag in &examples {
            for _ in 0..config.rollouts {
                let episode = run_episode(
                    &mut replay,
                    dag,
                    &spec,
                    SelectionMode::Sample,
                    true,
                    &mut rng,
                );
                decisions += episode.unwrap().steps.len() as u64;
            }
        }
    }
    if spear_obs::compiled() {
        let snap = registry.snapshot();
        let hits = snap.counter_value("rl.rollout_table_hits").unwrap();
        let misses = snap.counter_value("rl.rollout_table_misses").unwrap();
        assert_eq!(hits + misses, decisions);
        assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
    }
}

/// `rl.zero_advantage_examples` counts the examples whose rollouts all
/// returned one makespan. Pre-training the tiny pipeline for 100 epochs
/// at 1e-2 drives its cross-entropy to ~5e-8: the policy then samples one
/// schedule per example, every advantage is 0 and no epoch's entropy is
/// recorded. The tiny pipeline itself still explores.
#[test]
fn zero_advantage_examples_count_a_collapsed_policy() {
    let spec = ClusterSpec::unit(2);
    let run = |config: &TrainingPipelineConfig| {
        let registry = MetricsRegistry::new();
        let trained = train_policy_observed(config, &spec, &registry.sink("train")).unwrap();
        let zero = registry
            .snapshot()
            .counter_value("rl.zero_advantage_examples");
        (trained.curve, zero)
    };
    let mut collapsed = TrainingPipelineConfig::tiny();
    collapsed.pretrain.epochs = 100;
    collapsed.pretrain_alpha = 1e-2;
    let (curve, zero) = run(&collapsed);
    assert!(curve.iter().all(|p| p.mean_entropy == 0.0), "{curve:?}");
    let (tiny_curve, tiny_zero) = run(&TrainingPipelineConfig::tiny());
    assert!(tiny_curve.iter().all(|p| p.mean_entropy > 0.0));
    if spear_obs::compiled() {
        let all = (collapsed.num_examples * collapsed.reinforce.epochs) as u64;
        assert_eq!(zero, Some(all));
        assert!(tiny_zero.expect("registered with the trainer") < all);
    }
}

#[test]
fn one_run_covers_every_metric_family_in_the_exporters() {
    if !spear_obs::compiled() {
        return; // Exporters have nothing to cover in a disabled build.
    }
    let registry = MetricsRegistry::new();
    let sink = registry.sink("all");
    let job = dag(2, 16);
    let spec = ClusterSpec::unit(2);

    // sim.* + sched.*: an instrumented baseline.
    ObservedScheduler::new(CpScheduler::new().with_obs(&sink), &sink)
        .schedule(&job, &spec)
        .unwrap();
    // mcts.*: an instrumented search.
    MctsScheduler::pure(mcts_config(20, 1))
        .with_obs(&sink)
        .schedule(&job, &spec)
        .unwrap();
    // rl.*: a tiny instrumented pre-training run.
    let mut policy =
        PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut StdRng::seed_from_u64(1));
    let data = pretrain::build_dataset(&policy, std::slice::from_ref(&job), &spec).unwrap();
    let mut opt = spear_nn::RmsProp::new(1e-3, 0.9, 1e-9);
    pretrain::train_observed(
        &mut policy,
        &data,
        &mut opt,
        &PretrainConfig {
            epochs: 2,
            batch_size: 16,
        },
        &mut StdRng::seed_from_u64(2),
        &sink,
    );

    let snapshot = registry.snapshot();
    for family in ["sim.", "sched.", "mcts.", "rl."] {
        assert!(
            !snapshot.names_with_prefix(family).is_empty(),
            "no {family}* metrics in snapshot"
        );
    }

    let jsonl = snapshot.to_jsonl();
    for needle in [
        "\"metric\":\"sim.admissions\"",
        "\"metric\":\"sched.cp.schedule_ns\"",
        "\"metric\":\"mcts.iterations\"",
        "\"metric\":\"rl.pretrain_loss\"",
    ] {
        assert!(jsonl.contains(needle), "JSONL missing {needle}");
    }
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
    }
}

#[test]
fn parallel_workers_merge_into_one_snapshot() {
    let job = dag(4, 18);
    let spec = ClusterSpec::unit(2);
    let registry = MetricsRegistry::new();
    let mut parallel = RootParallelMcts::new(3, |seed| MctsScheduler::pure(mcts_config(15, seed)))
        .with_registry(&registry);
    let plain = RootParallelMcts::new(3, |seed| MctsScheduler::pure(mcts_config(15, seed)))
        .schedule(&job, &spec)
        .unwrap();
    let observed = parallel.schedule(&job, &spec).unwrap();
    assert_eq!(plain, observed, "registry changed the parallel result");
    if spear_obs::compiled() {
        let snap = registry.snapshot();
        // All three workers' episodes merged into the one counter.
        assert_eq!(snap.counter_value("mcts.episodes"), Some(3));
    }
}
