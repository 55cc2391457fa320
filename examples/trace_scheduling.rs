//! Trace-driven scheduling (paper §V-C): generate the calibrated
//! synthetic Hive trace, schedule a sample of jobs with Spear and
//! Graphene, and report the per-job makespan reduction — the quantity of
//! Fig. 9(c).
//!
//! ```text
//! cargo run -p spear-core --example trace_scheduling --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::{
    ClusterSpec, FeatureConfig, Graphene, MctsConfig, MctsScheduler, PolicyNetwork, Scheduler,
    SyntheticTraceSpec, TraceStats,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = SyntheticTraceSpec::paper().generate(2019);
    let stats = TraceStats::compute(&trace);
    println!("synthetic production trace: {} MapReduce jobs", stats.jobs);
    println!(
        "  map tasks   : median {:.0}, max {}",
        stats.median_map_tasks, stats.max_map_tasks
    );
    println!(
        "  reduce tasks: median {:.0}, max {}",
        stats.median_reduce_tasks, stats.max_reduce_tasks
    );
    println!(
        "  mean runtimes: map median {:.0}s, reduce median {:.0}s",
        stats.median_map_runtime, stats.median_reduce_runtime
    );
    println!();

    let spec = ClusterSpec::unit(2);
    // Paper §V-C: Spear runs with initial budget 100, minimum budget 50
    // on the trace.
    let mut spear = MctsScheduler::drl(
        MctsConfig {
            initial_budget: 100,
            min_budget: 50,
            seed: 1,
            ..MctsConfig::default()
        },
        PolicyNetwork::new(FeatureConfig::paper(2), &mut StdRng::seed_from_u64(1)),
    );
    let mut graphene = Graphene::new();

    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>11}",
        "job", "tasks", "graphene", "spear", "reduction"
    );
    let mut reductions = Vec::new();
    for job in trace.jobs.iter().take(10) {
        let dag = job.to_dag()?;
        let g = graphene.schedule(&dag, &spec)?.makespan();
        let s = spear.schedule(&dag, &spec)?.makespan();
        let reduction = (g as f64 - s as f64) / g as f64;
        reductions.push(reduction);
        println!(
            "{:<14} {:>6} {:>10} {:>10} {:>10.1}%",
            job.id,
            dag.len(),
            g,
            s,
            100.0 * reduction
        );
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!();
    println!(
        "mean reduction over {} jobs: {:.1}% (paper: up to ≈20%, ≥0 in 90% of jobs)",
        reductions.len(),
        100.0 * mean
    );
    println!("run the fig9c experiment binary for the full 99-job CDF.");
    Ok(())
}
