//! The full Spear pipeline end-to-end: train (pretrain → REINFORCE),
//! save the policy, reload it, schedule with it, and compare against a
//! baseline — the workflow a downstream user runs.

use spear::rl::SelectionMode;
use spear::{
    train_policy, ClusterSpec, FeatureConfig, MctsConfig, MctsScheduler, PolicyNetwork, Scheduler,
    TrainingPipelineConfig,
};

#[test]
fn train_save_load_schedule_roundtrip() {
    let spec = ClusterSpec::unit(2);
    let trained = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();

    // Save and reload the network.
    let mut buf = Vec::new();
    trained.policy.net().save(&mut buf).unwrap();
    let net = spear::nn::Mlp::load(buf.as_slice()).unwrap();
    let policy = PolicyNetwork::from_parts(FeatureConfig::small(2), net);

    // Schedule one of the training examples with the reloaded policy.
    let config = MctsConfig {
        initial_budget: 40,
        min_budget: 8,
        seed: 5,
        ..MctsConfig::default()
    };
    let mut spear = MctsScheduler::drl(config, policy);
    let dag = &trained.examples[0];
    let schedule = spear.schedule(dag, &spec).unwrap();
    schedule.validate(dag, &spec).unwrap();
}

#[test]
fn pretraining_lifts_policy_above_chance() {
    let spec = ClusterSpec::unit(2);
    let trained = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();
    // The tiny config still pushes imitation accuracy well above uniform
    // (1 / action_dim ≈ 17%).
    assert!(
        trained.pretrain_accuracy > 0.3,
        "accuracy {}",
        trained.pretrain_accuracy
    );
    // The supervised loss decreased.
    assert!(trained.pretrain_loss.last().unwrap() < trained.pretrain_loss.first().unwrap());
}

#[test]
fn learning_curve_is_recorded_per_epoch() {
    let spec = ClusterSpec::unit(2);
    let config = TrainingPipelineConfig::tiny();
    let trained = train_policy(&config, &spec).unwrap();
    assert_eq!(trained.curve.len(), config.reinforce.epochs);
    for (i, p) in trained.curve.iter().enumerate() {
        assert_eq!(p.epoch, i);
        assert!(p.mean_makespan > 0.0);
    }
}

#[test]
fn trained_policy_rolls_out_greedily() {
    let spec = ClusterSpec::unit(2);
    let trained = train_policy(&TrainingPipelineConfig::tiny(), &spec).unwrap();
    let mut policy = trained.policy;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    use rand::SeedableRng;
    for dag in &trained.examples {
        let ep = spear::rl::run_episode(
            &mut policy,
            dag,
            &spec,
            SelectionMode::Greedy,
            false,
            &mut rng,
        )
        .unwrap();
        assert!(ep.makespan >= dag.critical_path_length());
        assert!(ep.makespan <= dag.total_work());
    }
}
