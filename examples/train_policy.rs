//! The full training pipeline (paper §IV): supervised pre-training on the
//! critical-path expert, then REINFORCE with an averaged baseline. Prints
//! the learning curve and saves the trained network to
//! `target/spear_policy.json`.
//!
//! ```text
//! cargo run -p spear-core --example train_policy --release
//! ```

use spear::{
    train_policy, ClusterSpec, MctsConfig, MctsScheduler, Scheduler, TrainingPipelineConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ClusterSpec::unit(2);
    let config = TrainingPipelineConfig::fast();
    println!(
        "training: {} examples × {} tasks, {} pretrain epochs, {} REINFORCE epochs × {} rollouts",
        config.num_examples,
        config.example_spec.num_tasks,
        config.pretrain.epochs,
        config.reinforce.epochs,
        config.reinforce.rollouts,
    );
    println!("(the paper's full run is 144 examples × 7000 epochs; see DESIGN.md)");
    println!();

    let start = std::time::Instant::now();
    let trained = train_policy(&config, &spec)?;
    println!(
        "pre-training: loss {:.3} -> {:.3}, imitation accuracy {:.0}%",
        trained.pretrain_loss.first().unwrap(),
        trained.pretrain_loss.last().unwrap(),
        100.0 * trained.pretrain_accuracy
    );
    println!();
    println!("{:>6} {:>14} {:>10}", "epoch", "mean makespan", "entropy");
    let stride = (trained.curve.len() / 10).max(1);
    for p in trained.curve.iter().step_by(stride) {
        println!(
            "{:>6} {:>14.1} {:>10.3}",
            p.epoch, p.mean_makespan, p.mean_entropy
        );
    }
    if let Some(last) = trained.curve.last() {
        println!(
            "final mean makespan {:.1} after {:.0?}",
            last.mean_makespan,
            start.elapsed()
        );
    }

    let path = std::path::Path::new("target").join("spear_policy.json");
    trained.policy.net().save_to_path(&path)?;
    println!("saved policy to {}", path.display());

    // Plug the trained policy into Spear and schedule a held-out job.
    let mut spear = MctsScheduler::drl(
        MctsConfig {
            initial_budget: 100,
            min_budget: 25,
            ..MctsConfig::default()
        },
        trained.policy,
    );
    use rand::SeedableRng;
    let held_out = spear::dag::generator::LayeredDagSpec::paper_training()
        .generate(&mut rand::rngs::StdRng::seed_from_u64(9999));
    let schedule = spear.schedule(&held_out, &spec)?;
    println!(
        "held-out 25-task job: Spear makespan {} (critical path {})",
        schedule.makespan(),
        held_out.critical_path_length()
    );
    Ok(())
}
