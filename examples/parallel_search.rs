//! Root-parallel MCTS (the paper's §V-B note that "MCTS can easily be
//! parallelized"): run several independent searches concurrently and keep
//! the best schedule.
//!
//! ```text
//! cargo run -p spear-core --example parallel_search --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{ClusterSpec, MctsConfig, MctsScheduler, RootParallelMcts, Scheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dag = LayeredDagSpec {
        num_tasks: 60,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(17));
    let spec = ClusterSpec::unit(2);

    let budget = 150;
    let factory = |seed: u64| {
        MctsScheduler::pure(MctsConfig {
            initial_budget: budget,
            min_budget: 25,
            seed,
            ..MctsConfig::default()
        })
    };

    // One worker = a plain sequential search.
    let sequential = factory(0).schedule(&dag, &spec)?;
    println!(
        "sequential MCTS (budget {budget}):    makespan {}",
        sequential.makespan()
    );

    for workers in [2, 4, 8] {
        let start = std::time::Instant::now();
        let (best, stats) =
            RootParallelMcts::new(workers, factory).schedule_with_stats(&dag, &spec)?;
        best.validate(&dag, &spec)?;
        let total_iterations: u64 = stats.iter().map(|s| s.iterations).sum();
        println!(
            "root-parallel ×{workers}: makespan {} ({} total iterations, {:.2?})",
            best.makespan(),
            total_iterations,
            start.elapsed()
        );
    }
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\nbest-of-K never loses to any single worker; the workers run");
    println!("concurrently, on up to {cpus} CPUs of this host.");
    Ok(())
}
