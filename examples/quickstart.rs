//! Quickstart: schedule one random job with Spear and every baseline.
//!
//! ```text
//! cargo run -p spear-core --example quickstart --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{
    ClusterSpec, CpScheduler, FeatureConfig, Graphene, MctsConfig, MctsScheduler, PolicyNetwork,
    Scheduler, SjfScheduler, TetrisScheduler,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 50-task job with normally distributed runtimes and CPU/memory
    // demands, like the paper's simulation workload (scaled down so the
    // example finishes in seconds).
    let dag = LayeredDagSpec {
        num_tasks: 50,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(7));
    let spec = ClusterSpec::unit(2);

    println!(
        "job: {} tasks, critical path {} slots, total work {} slots",
        dag.len(),
        dag.critical_path_length(),
        dag.total_work()
    );
    println!(
        "lower bound on any makespan: {} slots",
        dag.makespan_lower_bound(spec.capacity())
    );
    println!();
    println!(
        "{:<10} {:>10} {:>12}",
        "scheduler", "makespan", "utilization"
    );

    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(TetrisScheduler::new()),
        Box::new(SjfScheduler::new()),
        Box::new(CpScheduler::new()),
        Box::new(Graphene::new()),
        Box::new(MctsScheduler::pure(MctsConfig {
            initial_budget: 300,
            min_budget: 50,
            ..MctsConfig::default()
        })),
        Box::new(MctsScheduler::drl(
            MctsConfig {
                initial_budget: 100,
                min_budget: 25,
                seed: 7,
                ..MctsConfig::default()
            },
            PolicyNetwork::new(FeatureConfig::paper(2), &mut StdRng::seed_from_u64(7)),
        )),
    ];
    for s in &mut schedulers {
        let schedule = s.schedule(&dag, &spec)?;
        schedule.validate(&dag, &spec)?;
        println!(
            "{:<10} {:>10} {:>11.1}%",
            s.name(),
            schedule.makespan(),
            100.0 * schedule.utilization(&dag, &spec)
        );
    }
    println!();
    println!("note: this Spear uses an *untrained* policy; run the");
    println!("train_policy example to see the full pipeline.");
    Ok(())
}
