//! Trained-policy management for the experiments.
//!
//! Several experiments need the trained DRL policy (Fig. 6(a), Fig. 8(a),
//! Fig. 9(c), ablations). Training is the most expensive step, so the
//! result is cached under `results/policy_<scale>.json` and reused across
//! binaries; delete the file to force retraining.

use spear::{
    train_policy, ClusterSpec, FeatureConfig, PolicyNetwork, TrainedPolicy, TrainingPipelineConfig,
};

use crate::{report, Scale};

/// The feature configuration every benchmark policy uses (the paper's).
pub fn feature_config() -> FeatureConfig {
    FeatureConfig::paper(2)
}

/// The training pipeline used at each scale. `Quick` trains a smaller
/// network on fewer examples/epochs (minutes); `Paper` uses the paper's
/// example counts with a reduced epoch count that converges under our
/// larger learning rate (see DESIGN.md §3 on the RMSProp substitution).
pub fn pipeline_config(scale: Scale) -> TrainingPipelineConfig {
    let mut config = match scale {
        Scale::Quick => TrainingPipelineConfig::fast(),
        Scale::Paper => {
            let mut c = TrainingPipelineConfig::paper();
            // 7000 epochs × 144 examples × 20 rollouts is ~10⁹ forward
            // passes — days on one core. The larger learning rate below
            // reaches the same Tetris/SJF crossover in ~2 orders of
            // magnitude fewer epochs (recorded in EXPERIMENTS.md).
            c.reinforce.epochs = 60;
            c.reinforce_alpha = 1e-3;
            c.num_examples = 48;
            c.hidden = Some(vec![128, 32, 32]);
            c
        }
    };
    config.features = feature_config();
    config
}

/// Returns the cached trained policy for `scale`, training and caching it
/// on first use.
pub fn obtain(scale: Scale, spec: &ClusterSpec) -> PolicyNetwork {
    let path = report::results_dir().join(format!("policy_{}.json", scale.tag()));
    if let Ok(file) = std::fs::File::open(&path) {
        if let Ok(net) = spear::nn::Mlp::load(std::io::BufReader::new(file)) {
            match PolicyNetwork::try_from_parts(feature_config(), net) {
                Ok(policy) => {
                    eprintln!("[policy] reusing cached {}", path.display());
                    return policy;
                }
                Err(e) => eprintln!("[policy] cached network unusable ({e}); retraining"),
            }
        }
    }
    eprintln!("[policy] training ({} scale)…", scale.tag());
    let trained = train(scale, spec);
    trained
        .policy
        .net()
        .save_to_path(&path)
        .expect("cannot cache trained policy");
    eprintln!("[policy] cached to {}", path.display());
    trained.policy
}

/// Runs the training pipeline for `scale` (no caching) and returns all
/// artifacts.
pub fn train(scale: Scale, spec: &ClusterSpec) -> TrainedPolicy {
    train_policy(&pipeline_config(scale), spec).expect("training pipeline failed")
}

/// The Fig. 8(b) variant of the pipeline: *minimal* pre-training, so the
/// plotted REINFORCE curve starts above the Tetris/SJF references and
/// visibly descends across them — the paper's Fig. 8(b) likewise starts
/// from a barely-initialized policy and crosses Tetris around epoch 900.
pub fn pipeline_config_curve(scale: Scale) -> TrainingPipelineConfig {
    let mut config = pipeline_config(scale);
    // No supervised warm-up for the *plotted* curve: the paper pretrains
    // because a random Theano policy yields "extremely long and
    // meaningless trajectories", but our masked action space guarantees
    // every rollout is a valid (work-conserving-or-better) schedule, so
    // REINFORCE can start from scratch — and the curve then starts at
    // random-policy quality, well above the Tetris reference, and its
    // descent across Tetris/SJF is visible as in the paper's figure.
    config.pretrain.epochs = 0;
    config.reinforce.epochs = match scale {
        Scale::Quick => 80,
        Scale::Paper => 250,
    };
    // A gentler learning rate than the cached-policy pipeline: with one
    // update per example per epoch, 1e-3 converges inside the first epoch
    // and the plotted descent collapses to a point; 2e-4 spreads it over
    // the first tenth of training (the paper's 1e-4 takes ~900 of 7000
    // epochs for the same crossing).
    config.reinforce_alpha = 2e-4;
    config
}

/// Runs the Fig. 8(b) curve pipeline (no caching).
pub fn train_curve(scale: Scale, spec: &ClusterSpec) -> TrainedPolicy {
    train_policy(&pipeline_config_curve(scale), spec).expect("training pipeline failed")
}
