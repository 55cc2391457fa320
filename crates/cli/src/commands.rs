//! The subcommand implementations.

use std::error::Error;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{
    execute_under_faults, ArrivalProcess, ArrivalStreamSpec, ClusterSpec, CpScheduler, Dag,
    FaultPlan, FaultProfile, FeatureConfig, Graphene, JobQueue, JobSource, MachineProfile,
    MctsConfig, MctsScheduler, MetricsRegistry, Obs, ObservedScheduler, PolicyNetwork,
    RandomScheduler, Scheduler, SjfScheduler, SyntheticTraceSpec, TetrisScheduler, Trace,
    TraceStats, TransferMode,
};

use crate::args::Args;

/// The `help` text.
pub const HELP: &str = "\
spear-cli — dependency-aware task scheduling with MCTS + deep RL

USAGE:
  spear-cli generate [--tasks 100] [--seed 0] [--trace] [--output file.json]
  spear-cli schedule (--dag file.json | --stg file.stg [--drop-dummies])
                     [--algo spear|mcts|tetris|sjf|cp|graphene|random]
                     [--budget 100] [--min-budget 50] [--policy policy.json]
                     [--capacity 1.0] [--seed 0] [--gantt] [--no-eval-cache]
                     [--machines 1] [--bandwidth 4]
                     [--transfer-mode direct|via-master]
                     [--nn-precision exact|fast]
                     [--faults 0.0] [--straggler 1.5] [--max-retries 3]
                     [--metrics-out metrics.jsonl] [--output schedule.json]
  spear-cli schedule --arrivals poisson|periodic [--jobs 20] [--job-tasks 8]
                     [--mean-gap 8.0 | --gap 8] [--trace-file trace.json]
                     [--horizon N] [--algo ...] [... as above]
  spear-cli train    [--profile tiny|fast|paper] --output policy.json
                     [--metrics-out metrics.jsonl]
  spear-cli evaluate [--tasks 100] [--dags 5] [--seed 0] [--budget 200]
                     [--metrics-out metrics.jsonl]
  spear-cli stats    (--dag file.json | --stg file.stg [--drop-dummies] [--seed 0]
                      | --trace-file file.json)

All demands/capacities are fractions of a two-dimensional (CPU, memory)
cluster unless the input file says otherwise. A flag the subcommand does
not read is an error.

--nn-precision selects the numeric mode of the DRL policy's inference
inside the search: `exact` (the default) runs the training-grade f64
forward pass and is bit-identical to previous releases; `fast` runs a
lane-padded f32 snapshot of the weights (and doubles the eval cache's
capacity at the same memory budget) for speed, at a bounded makespan-
quality cost validated by the differential judges. Training is always
f64; only search-time inference changes.

--arrivals switches `schedule` to the online multi-job mode: a seeded
stream of jobs (random layered DAGs, or a trace's jobs with
--trace-file) arrives over time — Poisson with --mean-gap, or every
--gap slots — and the scheduler works the whole stream through one
continuous episode. The report is per-job completion times (mean, p50,
p99 JCT and the slowdown-spread unfairness) instead of one makespan.
--horizon executes the plan up to that wall clock: jobs not fully
scheduled by then count as unfinished (a --dag run is reported as the
one-job stream that arrives at 0).

--faults injects seeded failures and stragglers at *execution* time:
the scheduler still plans against the fault-free DAG, then the plan is
executed under a deterministic per-(task, attempt) fault plan derived
from --seed. Both the failure and the straggler probability are set to
the --faults rate. Execution starts every attempt on the machine the
plan placed its task on and never before the task's planned start, so
faults work with any --machines and a fault-free run is the plan
itself. A failing attempt frees its resources mid-run and the task
re-queues (dependencies unchanged) until --max-retries extra attempts
are exhausted, which aborts the run with a typed error; a straggling
attempt occupies the cluster --straggler times longer than its
runtime. The realized makespan (or, with --arrivals, the realized JCT
report) is printed next to the planned one, and a complete run exits
with an error unless the plan and the run pass the tri-judge. A
--straggler/--max-retries pair whose worst case passes the 2^53-slot
clock ceiling is an error.

--machines N (1 to 1024) plans against a seeded cluster of N machines:
machine 0 keeps the full --capacity, later machines shrink by a seeded
factor, and every placement names its machine. A task whose parent ran
elsewhere waits for a deterministic transfer of the edge's payload —
ceil(bytes / link bandwidth) slots over the direct link, or up then
down the master uplinks with --transfer-mode via-master. --bandwidth
sets the baseline link speed in bytes per slot. The same --seed always
yields the same machine set, payload sizes and schedule. The default,
one machine, is the paper's single box.

--metrics-out writes every metric recorded during the run as JSON lines
(one metric per line). Metric recording is compiled in behind the `obs`
cargo feature; without it the flag still works but the file only notes
that the build has metrics compiled out.";

/// The flags `generate` reads; [`crate::run`] rejects any other.
pub const GENERATE_FLAGS: &[&str] = &["tasks", "seed", "trace", "output"];

/// The flags `schedule` reads, in both its single-DAG and `--arrivals`
/// modes.
pub const SCHEDULE_FLAGS: &[&str] = &[
    "dag",
    "stg",
    "drop-dummies",
    "algo",
    "budget",
    "min-budget",
    "policy",
    "capacity",
    "seed",
    "gantt",
    "no-eval-cache",
    "machines",
    "bandwidth",
    "transfer-mode",
    "nn-precision",
    "faults",
    "straggler",
    "max-retries",
    "metrics-out",
    "output",
    "arrivals",
    "jobs",
    "job-tasks",
    "mean-gap",
    "gap",
    "trace-file",
    "horizon",
];

/// The flags `train` reads.
pub const TRAIN_FLAGS: &[&str] = &["profile", "output", "metrics-out"];

/// The flags `evaluate` reads.
pub const EVALUATE_FLAGS: &[&str] = &["tasks", "dags", "seed", "budget", "metrics-out"];

/// The flags `stats` reads.
pub const STATS_FLAGS: &[&str] = &["dag", "stg", "drop-dummies", "seed", "trace-file"];

/// An active registry when `--metrics-out` was given (plus the path).
fn metrics_registry(args: &Args) -> (MetricsRegistry, Option<String>) {
    match args.get("metrics-out") {
        Some(path) => {
            if !spear::obs::compiled() {
                eprintln!(
                    "note: this build has metrics compiled out; \
                     rebuild with `--features obs` for real data"
                );
            }
            (MetricsRegistry::new(), Some(path.to_owned()))
        }
        None => (MetricsRegistry::disabled(), None),
    }
}

/// Writes the registry snapshot as JSONL if `--metrics-out` was given.
fn write_metrics(registry: &MetricsRegistry, path: Option<&str>) -> Result<(), Box<dyn Error>> {
    let Some(path) = path else { return Ok(()) };
    let body = if spear::obs::compiled() {
        registry.snapshot().to_jsonl()
    } else {
        "{\"note\":\"metrics compiled out; rebuild with --features obs\"}\n".to_owned()
    };
    std::fs::write(path, body)?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// The unreliable-cluster knobs of `schedule`: `--faults <rate>` sets both
/// the failure and the straggler probability, `--straggler` the slowdown
/// factor (finite, at least 1), `--max-retries` the per-task retry
/// budget. Without `--faults` the profile is null and execution stays
/// bit-identical to the fault-free simulator.
fn fault_profile(args: &Args) -> Result<FaultProfile, Box<dyn Error>> {
    let rate: f64 = args.get_or("faults", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--faults {rate} outside [0, 1]").into());
    }
    let straggler_factor = args.get_finite("straggler", 1.5, 1.0)?;
    let max_retries = args.get_or("max-retries", 3)?;
    if rate == 0.0 {
        return Ok(FaultProfile::none());
    }
    Ok(FaultProfile {
        straggler_factor,
        max_retries,
        ..FaultProfile::with_rate(rate)
    })
}

/// The seeded fault plan of `schedule` (`None` without `--faults`),
/// checked against the workload before anything is scheduled: a plan
/// whose worst case passes the slot ceiling could wrap its clock.
fn fault_plan(args: &Args, queue: &JobQueue) -> Result<Option<FaultPlan>, Box<dyn Error>> {
    let profile = fault_profile(args)?;
    if profile.is_none() {
        return Ok(None);
    }
    let plan = profile.plan(args.get_or("seed", 0)?);
    plan.check_clock(queue)
        .map_err(|e| format!("--straggler/--max-retries too large: {e}"))?;
    Ok(Some(plan))
}

/// `Some(value)` as its display form, `None` as `n/a` — JCT statistics
/// are absent (not zero) when no job completed.
fn opt_stat<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |x| x.to_string())
}

/// The cluster the schedulers plan against: a seeded set of `--machines`
/// machines (one by default: the paper's single box of `--capacity`)
/// linked at `--bandwidth` bytes/slot with `--transfer-mode` routing.
/// Machine 0 keeps the full `--capacity`, so single-box workloads stay
/// admissible.
fn cluster_spec(dims: usize, args: &Args) -> Result<ClusterSpec, Box<dyn Error>> {
    let capacity: f64 = args.get_or("capacity", 1.0)?;
    let machines: usize = args.get_or("machines", 1)?;
    let mode = match args.get("transfer-mode") {
        Some(raw) => TransferMode::parse(raw).map_err(|e| format!("--transfer-mode: {e}"))?,
        None => TransferMode::Direct,
    };
    let profile = MachineProfile {
        machines,
        dims,
        base_capacity: capacity,
        base_bandwidth: args.get_or("bandwidth", 4)?,
        mode,
        ..MachineProfile::sweep(machines)
    };
    let seed: u64 = args.get_or("seed", 0)?;
    Ok(ClusterSpec::hetero(profile.generate(seed)?)?)
}

/// Loads a DAG from `--dag file.json` or `--stg file.stg` (STG files get
/// demands from the simulation distribution, seeded by `--seed`).
fn load_dag(args: &Args) -> Result<Dag, Box<dyn Error>> {
    if let Some(path) = args.get("dag") {
        return Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?);
    }
    if let Some(path) = args.get("stg") {
        let seed: u64 = args.get_or("seed", 0)?;
        let model = spear::dag::stg::DemandModel::Normal {
            dims: 2,
            mean: 0.45,
            std_dev: 0.2,
            min: 0.05,
            max: 1.0,
        };
        let dag = spear::dag::stg::parse_stg(
            &std::fs::read_to_string(path)?,
            &model,
            args.flag("drop-dummies"),
            &mut StdRng::seed_from_u64(seed),
        )?;
        return Ok(dag);
    }
    Err("need --dag file.json or --stg file.stg".into())
}

fn write_or_print(args: &Args, json: &str) -> Result<(), Box<dyn Error>> {
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, json)?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `spear-cli generate`: a random layered DAG, or with `--trace` the full
/// synthetic 99-job production trace.
pub fn generate(args: &Args) -> Result<(), Box<dyn Error>> {
    let seed: u64 = args.get_or("seed", 0)?;
    if args.flag("trace") {
        let trace = SyntheticTraceSpec::paper().generate(seed);
        return write_or_print(args, &serde_json::to_string_pretty(&trace)?);
    }
    let spec = LayeredDagSpec {
        num_tasks: args.get_count("tasks", 100)?,
        ..LayeredDagSpec::paper_simulation()
    };
    let dag = spec.generate(&mut StdRng::seed_from_u64(seed));
    write_or_print(args, &serde_json::to_string_pretty(&dag)?)
}

fn build_scheduler(
    algo: &str,
    args: &Args,
    dag_dims: usize,
    obs: &Obs,
) -> Result<Box<dyn Scheduler>, Box<dyn Error>> {
    let budget: u64 = args.get_count("budget", 100)?;
    let min_budget: u64 = args.get_or("min-budget", budget / 2)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let nn_precision: spear::nn::Precision = match args.get("nn-precision") {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("unknown --nn-precision `{raw}` (exact|fast)"))?,
        None => spear::nn::Precision::Exact,
    };
    let config = MctsConfig {
        initial_budget: budget,
        min_budget,
        seed,
        // `--no-eval-cache` disables the fingerprint-keyed inference
        // cache for differential runs; results are bit-identical either
        // way, only the speed differs.
        eval_cache: !args.flag("no-eval-cache"),
        nn_precision,
        ..MctsConfig::default()
    };
    Ok(match algo {
        "tetris" => Box::new(TetrisScheduler::new().with_obs(obs)),
        "sjf" => Box::new(SjfScheduler::new().with_obs(obs)),
        "cp" => Box::new(CpScheduler::new().with_obs(obs)),
        "graphene" => Box::new(Graphene::new()),
        "random" => Box::new(RandomScheduler::seeded(seed).with_obs(obs)),
        "mcts" => Box::new(MctsScheduler::pure(config).with_obs(obs)),
        "spear" => {
            let features = FeatureConfig::paper(dag_dims);
            let policy = match args.get("policy") {
                Some(path) => {
                    let net = spear::nn::Mlp::load_from_path(path)?;
                    PolicyNetwork::try_from_parts(features, net)?
                }
                None => {
                    eprintln!("note: no --policy given; using an untrained network");
                    PolicyNetwork::new(features, &mut StdRng::seed_from_u64(seed))
                }
            };
            Box::new(MctsScheduler::drl(config, policy).with_obs(obs))
        }
        other => return Err(format!("unknown --algo `{other}`").into()),
    })
}

/// Builds the seeded `(arrival, DAG)` stream for the multi-job mode.
fn load_arrival_stream(args: &Args) -> Result<JobQueue, Box<dyn Error>> {
    let seed: u64 = args.get_or("seed", 0)?;
    let process = match args.require("arrivals")? {
        "poisson" => ArrivalProcess::Poisson {
            mean_gap: args.get_finite("mean-gap", 8.0, 0.0)?,
        },
        "periodic" => ArrivalProcess::Periodic {
            gap: args.get_or("gap", 8)?,
        },
        other => return Err(format!("unknown --arrivals `{other}` (poisson|periodic)").into()),
    };
    let source = match args.get("trace-file") {
        Some(path) => JobSource::Trace(Trace::load_from_path(path)?),
        None => JobSource::Layered(LayeredDagSpec {
            num_tasks: args.get_count("job-tasks", 8)?,
            ..LayeredDagSpec::paper_training()
        }),
    };
    let stream = ArrivalStreamSpec {
        jobs: args.get_count("jobs", 20)?,
        process,
        source,
    }
    .generate(seed)?;
    Ok(JobQueue::new(stream)?)
}

/// `spear-cli schedule`: schedule a DAG file — the one-job queue that
/// arrives at time 0 — and report the makespan, or — with `--arrivals` —
/// an online multi-job stream and its JCT report.
pub fn schedule(args: &Args) -> Result<(), Box<dyn Error>> {
    let stream = args.get("arrivals").is_some();
    let queue = if stream {
        load_arrival_stream(args)?
    } else {
        JobQueue::single(load_dag(args)?)?
    };
    let dag = queue.union_dag();
    let spec = cluster_spec(dag.dims(), args)?;
    let faults = fault_plan(args, &queue)?;
    let horizon = match args.get("horizon") {
        Some(_) => Some(args.get_or("horizon", 0)?),
        None => None,
    };
    let algo = args.get("algo").unwrap_or("spear");
    let (registry, metrics_path) = metrics_registry(args);
    let sink = registry.sink("cli");
    let mut scheduler =
        ObservedScheduler::new(build_scheduler(algo, args, dag.dims(), &sink)?, &sink);
    let start = std::time::Instant::now();
    let schedule = scheduler.schedule_multi(&queue, &spec)?;
    let elapsed = start.elapsed();
    schedule.validate(dag, &spec)?;
    if stream {
        println!(
            "{}: {} jobs ({} tasks), stream makespan {} in {:.2?}",
            scheduler.name(),
            queue.jobs(),
            dag.len(),
            schedule.makespan(),
            elapsed
        );
    } else {
        println!(
            "{}: makespan {} (lower bound {}, serial {}) in {:.2?}",
            scheduler.name(),
            schedule.makespan(),
            dag.makespan_lower_bound(spec.capacity()),
            dag.total_work(),
            elapsed
        );
        println!(
            "utilization {:.1}%",
            100.0 * schedule.utilization(dag, &spec)
        );
    }
    // A horizon without faults is a null-plan execution, cut at the horizon.
    let report = if faults.is_some() || horizon.is_some() {
        let plan = faults.unwrap_or_else(FaultPlan::none);
        let run = execute_under_faults(&queue, &spec, &schedule, &plan, horizon)?;
        if !run.truncated {
            let tri = spear::diffcheck::check_faulty_run(&queue, &spec, &schedule, &plan, &run);
            if !tri.all_ok() {
                return Err(
                    format!("the judges reject the plan or its run: {}", tri.summary()).into(),
                );
            }
        }
        if faults.is_some() {
            let attempts: u32 = run.attempts.iter().sum();
            println!(
                "faults: realized makespan {} (planned {}), {} failures, {} stragglers, \
                 {attempts} attempts / {} tasks{}",
                run.makespan,
                schedule.makespan(),
                run.failures,
                run.straggles,
                dag.len(),
                if run.truncated {
                    ", truncated at the horizon"
                } else {
                    ""
                }
            );
        }
        run.report
    } else {
        queue.jct_report(&schedule)
    };
    if stream || horizon.is_some() {
        println!(
            "completed {}/{} jobs ({} unfinished), jct mean {} p50 {} p99 {}, unfairness {:.2}",
            report.completions().len(),
            queue.jobs(),
            report.unfinished(),
            opt_stat(report.mean_jct().map(|m| format!("{m:.1}"))),
            opt_stat(report.p50_jct()),
            opt_stat(report.p99_jct()),
            report.unfairness()
        );
    }
    if args.flag("gantt") {
        println!("{}", schedule.render_gantt(dag, &spec, 100));
    }
    if let Some(out) = args.get("output") {
        std::fs::write(out, serde_json::to_string_pretty(&schedule)?)?;
        eprintln!("wrote {out}");
    }
    write_metrics(&registry, metrics_path.as_deref())?;
    Ok(())
}

/// `spear-cli train`: run the training pipeline and save the policy.
pub fn train(args: &Args) -> Result<(), Box<dyn Error>> {
    use spear::{train_policy_observed, TrainingPipelineConfig};
    let profile = args.get("profile").unwrap_or("fast");
    let config = match profile {
        "tiny" => TrainingPipelineConfig::tiny(),
        "fast" => TrainingPipelineConfig::fast(),
        "paper" => TrainingPipelineConfig::paper(),
        other => return Err(format!("unknown --profile `{other}`").into()),
    };
    let output = args.require("output")?;
    eprintln!(
        "training profile `{profile}`: {} examples × {} tasks, {} epochs",
        config.num_examples, config.example_spec.num_tasks, config.reinforce.epochs
    );
    let spec = ClusterSpec::unit(2);
    let (registry, metrics_path) = metrics_registry(args);
    let trained = train_policy_observed(&config, &spec, &registry.sink("train"))?;
    trained.policy.net().save_to_path(output)?;
    println!(
        "pretrain accuracy {:.0}%; final mean makespan {:.1}; saved to {output}",
        100.0 * trained.pretrain_accuracy,
        trained.curve.last().map_or(f64::NAN, |p| p.mean_makespan),
    );
    write_metrics(&registry, metrics_path.as_deref())?;
    Ok(())
}

/// `spear-cli evaluate`: compare every scheduler on random workloads.
pub fn evaluate(args: &Args) -> Result<(), Box<dyn Error>> {
    let tasks: usize = args.get_count("tasks", 100)?;
    let dags: usize = args.get_count("dags", 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let budget: u64 = args.get_count("budget", 200)?;
    let gen = LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_simulation()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs: Vec<Dag> = (0..dags).map(|_| gen.generate(&mut rng)).collect();
    let spec = ClusterSpec::unit(2);

    let (registry, metrics_path) = metrics_registry(args);
    let sink = registry.sink("evaluate");
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(TetrisScheduler::new().with_obs(&sink)),
        Box::new(SjfScheduler::new().with_obs(&sink)),
        Box::new(CpScheduler::new().with_obs(&sink)),
        Box::new(Graphene::new()),
        Box::new(
            MctsScheduler::pure(MctsConfig {
                initial_budget: budget,
                min_budget: (budget / 5).max(1),
                seed,
                ..MctsConfig::default()
            })
            .with_obs(&sink),
        ),
    ];
    println!("{:<10} {:>12} {:>10}", "scheduler", "mean", "seconds");
    for s in &mut schedulers {
        let mut s = ObservedScheduler::new(s, &sink);
        let start = std::time::Instant::now();
        let total: u64 = jobs
            .iter()
            .map(|d| s.schedule(d, &spec).map(|x| x.makespan()))
            .sum::<Result<u64, _>>()?;
        println!(
            "{:<10} {:>12.1} {:>10.2}",
            s.name(),
            total as f64 / dags as f64,
            start.elapsed().as_secs_f64()
        );
    }
    write_metrics(&registry, metrics_path.as_deref())?;
    Ok(())
}

/// `spear-cli stats`: summarize a DAG or trace file.
pub fn stats(args: &Args) -> Result<(), Box<dyn Error>> {
    if args.get("dag").is_some() || args.get("stg").is_some() {
        let dag = load_dag(args)?;
        println!("tasks         : {}", dag.len());
        println!("edges         : {}", dag.edges().len());
        println!("dimensions    : {}", dag.dims());
        println!("critical path : {}", dag.critical_path_length());
        println!("total work    : {}", dag.total_work());
        println!("width         : {}", spear::dag::topo::width(&dag));
        println!("depth         : {}", spear::dag::topo::depth(&dag));
        println!("max demand    : {}", dag.max_demand());
        return Ok(());
    }
    if let Some(path) = args.get("trace-file") {
        let s = TraceStats::compute(&Trace::load_from_path(path)?);
        println!("jobs                  : {}", s.jobs);
        println!("median map tasks      : {}", s.median_map_tasks);
        println!("median reduce tasks   : {}", s.median_reduce_tasks);
        println!(
            "max map / reduce      : {} / {}",
            s.max_map_tasks, s.max_reduce_tasks
        );
        println!("median map runtime    : {}", s.median_map_runtime);
        println!("median reduce runtime : {}", s.median_reduce_runtime);
        return Ok(());
    }
    Err("stats needs --dag, --stg or --trace-file".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn args(parts: &[&str]) -> Args {
        let argv: Vec<String> = parts.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(&argv).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("spear-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The entry `name` of a JSON object.
    fn field<'v>(v: &'v mut Value, name: &str) -> &'v mut Value {
        match v {
            Value::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == name).unwrap().1,
            _ => panic!("not an object"),
        }
    }

    /// Element `i` of a JSON array.
    fn item(v: &mut Value, i: usize) -> &mut Value {
        match v {
            Value::Arr(items) => &mut items[i],
            _ => panic!("not an array"),
        }
    }

    /// Writes a generated 6-task DAG, edited by `edit`, to a temp file.
    fn edited_dag(name: &str, edit: impl FnOnce(&mut Value)) -> String {
        let dag = LayeredDagSpec {
            num_tasks: 6,
            ..LayeredDagSpec::paper_simulation()
        }
        .generate(&mut StdRng::seed_from_u64(1));
        let mut value = serde_json::to_value(&dag);
        edit(&mut value);
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&value).unwrap()).unwrap();
        path
    }

    #[test]
    fn generate_then_schedule_roundtrip() {
        let dag_path = tmp("cli-dag.json");
        generate(&args(&[
            "--tasks", "12", "--seed", "3", "--output", &dag_path,
        ]))
        .unwrap();
        schedule(&args(&["--dag", &dag_path, "--algo", "cp", "--gantt"])).unwrap();
        stats(&args(&["--dag", &dag_path])).unwrap();
    }

    #[test]
    fn generate_trace_and_stats() {
        let path = tmp("cli-trace.json");
        generate(&args(&["--trace", "--seed", "1", "--output", &path])).unwrap();
        stats(&args(&["--trace-file", &path])).unwrap();
    }

    /// `stats` sums runtimes near `u64::MAX` without overflow: in the
    /// first job's mean, and in the middle pair of the per-job means.
    #[test]
    fn stats_summarizes_huge_trace_runtimes() {
        let job = |map_runtimes: Vec<u64>| spear::TraceJob {
            id: "j".into(),
            map_demands: vec![spear::ResourceVec::from_slice(&[0.1]); map_runtimes.len()],
            map_runtimes,
            reduce_runtimes: vec![1],
            reduce_demands: vec![spear::ResourceVec::from_slice(&[0.1])],
        };
        let jobs = vec![job(vec![u64::MAX; 2]), job(vec![3])];
        let path = tmp("cli-huge-trace.json");
        std::fs::write(&path, serde_json::to_string(&Trace { jobs }).unwrap()).unwrap();
        stats(&args(&["--trace-file", &path])).unwrap();
    }

    /// `stats` refuses a trace whose map stage has more runtimes than
    /// demand vectors, whose demands disagree on dimensions, or whose
    /// demand is negative, with the one-line error `schedule` gives.
    #[test]
    fn stats_and_schedule_refuse_a_misaligned_trace_alike() {
        let job = |map_demands: &[&[f64]], reduce_demands: &[&[f64]]| spear::TraceJob {
            id: "a".into(),
            map_runtimes: vec![5, 7],
            reduce_runtimes: vec![3],
            map_demands: map_demands
                .iter()
                .map(|d| spear::ResourceVec::from_slice(d))
                .collect(),
            reduce_demands: reduce_demands
                .iter()
                .map(|d| spear::ResourceVec::from_slice(d))
                .collect(),
        };
        let fails = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
            crate::run(&argv).unwrap_err().to_string()
        };
        let schedule = [
            "schedule",
            "--arrivals",
            "poisson",
            "--jobs",
            "1",
            "--algo",
            "tetris",
        ];
        for (name, job, want) in [
            (
                "misaligned",
                job(&[&[0.1]], &[&[0.1]]),
                "job a: map stage has 2 runtimes but 1 demand vectors",
            ),
            (
                "mixed-dims",
                job(&[&[0.1, 0.1], &[0.1, 0.1]], &[&[0.1]]),
                "building the two-stage DAG: task t2 has 1 resource dimensions, expected 2",
            ),
            (
                "negative",
                job(&[&[-0.1], &[0.1]], &[&[0.1]]),
                "building the two-stage DAG: task t0 has a negative or non-finite resource demand",
            ),
        ] {
            let path = tmp(&format!("cli-{name}-trace.json"));
            std::fs::write(
                &path,
                serde_json::to_string(&Trace { jobs: vec![job] }).unwrap(),
            )
            .unwrap();
            assert_eq!(fails(&["stats", "--trace-file", &path]), want, "{name}");
            assert_eq!(
                fails(&[&schedule[..], &["--trace-file", &path]].concat()),
                want,
                "{name}"
            );
        }
    }

    #[test]
    fn schedule_with_mcts_and_output() {
        let dag_path = tmp("cli-dag2.json");
        generate(&args(&["--tasks", "8", "--output", &dag_path])).unwrap();
        let out = tmp("cli-schedule.json");
        schedule(&args(&[
            "--dag", &dag_path, "--algo", "mcts", "--budget", "15", "--output", &out,
        ]))
        .unwrap();
        let loaded: spear::Schedule =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(loaded.makespan() > 0);
    }

    /// A `--policy` file that does not fit the paper featurizer, or whose
    /// weight array was truncated, fails `schedule --algo spear` with a
    /// typed shape error instead of a panic.
    #[test]
    fn malformed_policy_files_fail_with_shape_errors() {
        use spear::nn::{Mlp, MlpConfig, ShapeError};
        let dag_path = tmp("cli-dag-policy.json");
        generate(&args(&[
            "--tasks", "6", "--seed", "1", "--output", &dag_path,
        ]))
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let paper = FeatureConfig::paper(2);

        let wrong_width = tmp("cli-policy-wrong-width.json");
        Mlp::new(MlpConfig::new(100, &[8], paper.action_dim()), &mut rng)
            .save_to_path(&wrong_width)
            .unwrap();

        let truncated = tmp("cli-policy-truncated.json");
        let net = Mlp::new(
            MlpConfig::new(paper.input_dim(), &[8], paper.action_dim()),
            &mut rng,
        );
        let mut value = serde_json::to_value(&net);
        let Value::Arr(layers) = field(&mut value, "layers") else {
            panic!("layers is an array")
        };
        let Value::Arr(data) = field(field(&mut layers[0], "weights"), "data") else {
            panic!("weight data is an array")
        };
        data.truncate(100);
        std::fs::write(&truncated, serde_json::to_string(&value).unwrap()).unwrap();

        for (path, what) in [
            (&wrong_width, "policy network input width"),
            (&truncated, "layer 0 weights data length"),
        ] {
            let err = schedule(&args(&[
                "--dag", &dag_path, "--algo", "spear", "--budget", "5", "--policy", path,
            ]))
            .expect_err("a malformed policy must not schedule");
            let shape = err.downcast_ref::<ShapeError>().expect("a shape error");
            assert_eq!(shape.what, what);
        }
    }

    #[test]
    fn no_eval_cache_flag_matches_cached_run() {
        let dag_path = tmp("cli-dag-cache.json");
        generate(&args(&[
            "--tasks", "8", "--seed", "2", "--output", &dag_path,
        ]))
        .unwrap();
        let on = tmp("cli-cache-on.json");
        let off = tmp("cli-cache-off.json");
        schedule(&args(&[
            "--dag", &dag_path, "--algo", "spear", "--budget", "10", "--output", &on,
        ]))
        .unwrap();
        schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "spear",
            "--budget",
            "10",
            "--no-eval-cache",
            "--output",
            &off,
        ]))
        .unwrap();
        // The escape hatch changes speed only, never the schedule.
        assert_eq!(
            std::fs::read_to_string(&on).unwrap(),
            std::fs::read_to_string(&off).unwrap()
        );
    }

    /// `--nn-precision fast` must run end to end, and — like the exact
    /// path — the eval cache must change only speed, never the schedule
    /// (the f32 rounding happens on the inference path, before the
    /// cache).
    #[test]
    fn fast_precision_flag_is_cache_transparent() {
        let dag_path = tmp("cli-dag-fastprec.json");
        generate(&args(&[
            "--tasks", "8", "--seed", "5", "--output", &dag_path,
        ]))
        .unwrap();
        let on = tmp("cli-fastprec-on.json");
        let off = tmp("cli-fastprec-off.json");
        schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "spear",
            "--budget",
            "10",
            "--nn-precision",
            "fast",
            "--output",
            &on,
        ]))
        .unwrap();
        schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "spear",
            "--budget",
            "10",
            "--nn-precision",
            "fast",
            "--no-eval-cache",
            "--output",
            &off,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&on).unwrap(),
            std::fs::read_to_string(&off).unwrap()
        );
    }

    #[test]
    fn unknown_nn_precision_is_rejected() {
        let dag_path = tmp("cli-dag-badprec.json");
        generate(&args(&["--tasks", "4", "--output", &dag_path])).unwrap();
        let err = schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "spear",
            "--nn-precision",
            "f16",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("f16"), "unexpected error: {err}");
    }

    /// Every bad number, misspelled or removed flag and corrupt input file
    /// fails with a one-line error instead of a panic, an abort or a
    /// silently wrong run.
    #[test]
    fn bad_inputs_fail_with_one_line_errors() {
        let dag = edited_dag("cli-bad-base.json", |_| {});
        let runtime = |path: &str, runtime: f64| {
            edited_dag(path, |v| {
                *field(item(field(v, "tasks"), 1), "runtime") = Value::Num(runtime)
            })
        };
        let demand = |path: &str, demand: &[f64]| {
            let demand = Value::Arr(demand.iter().map(|&d| Value::Num(d)).collect());
            edited_dag(path, |v| {
                *field(item(field(v, "tasks"), 1), "demand") = demand
            })
        };
        let wrapping_json = runtime("cli-bad-wrap.json", u64::MAX as f64);
        let zero_runtime = runtime("cli-bad-zero.json", 0.0);
        let negative_demand = demand("cli-bad-negative.json", &[-0.5, 0.5]);
        let short_demand = demand("cli-bad-short.json", &[0.5]);
        let self_edge = edited_dag("cli-bad-self-edge.json", |v| {
            let Value::Arr(edges) = field(v, "edges") else {
                panic!("edges is an array")
            };
            edges.push(serde_json::to_value(&spear::dag::Edge {
                from: spear::TaskId::new(2),
                to: spear::TaskId::new(2),
            }));
        });
        let wrapping_stg = tmp("cli-bad-wrap.stg");
        std::fs::write(&wrapping_stg, "2\n0 18446744073709551615 0\n1 4 1 0\n").unwrap();
        let huge_header = tmp("cli-bad-header.stg");
        std::fs::write(&huge_header, "999999999999\n0 1 0\n").unwrap();
        // A policy whose first weight is `1e999`, which parses as infinity.
        let inf_policy = tmp("cli-bad-policy.json");
        let paper = FeatureConfig::paper(2);
        let net = spear::nn::Mlp::new(
            spear::nn::MlpConfig::new(paper.input_dim(), &[8], paper.action_dim()),
            &mut StdRng::seed_from_u64(0),
        );
        let mut value = serde_json::to_value(&net);
        let layer0 = item(field(&mut value, "layers"), 0);
        *item(field(field(layer0, "weights"), "data"), 0) = Value::Num(123_456_789.0);
        let text = serde_json::to_string(&value)
            .unwrap()
            .replacen("[123456789,", "[1e999,", 1);
        std::fs::write(&inf_policy, text).unwrap();

        let poisson = ["schedule", "--arrivals", "poisson", "--algo", "tetris"];
        let faulty = ["schedule", "--dag", &dag, "--algo", "cp", "--faults", "0.2"];
        let cases: Vec<(Vec<&str>, &str)> = vec![
            (
                vec!["schedule", "--dag", &dag, "--algo", "mcts", "--budget", "0"],
                "--budget must be at least 1",
            ),
            (
                vec![
                    "schedule", "--dag", &dag, "--algo", "spear", "--budget", "0",
                ],
                "--budget must be at least 1",
            ),
            (
                vec!["evaluate", "--budget", "0"],
                "--budget must be at least 1",
            ),
            (
                vec!["generate", "--tasks", "0"],
                "--tasks must be at least 1",
            ),
            (
                vec!["evaluate", "--tasks", "0"],
                "--tasks must be at least 1",
            ),
            (
                [&poisson[..], &["--job-tasks", "0"]].concat(),
                "--job-tasks must be at least 1",
            ),
            (
                [&poisson[..], &["--jobs", "0"]].concat(),
                "--jobs must be at least 1",
            ),
            (vec!["evaluate", "--dags", "0"], "--dags must be at least 1"),
            (
                [&poisson[..], &["--mean-gap", "1e300"]].concat(),
                "past the 9007199254740992 slot ceiling",
            ),
            (
                [&faulty[..], &["--straggler", "inf"]].concat(),
                "--straggler must be a finite number >= 1",
            ),
            (
                [&faulty[..], &["--straggler", "nan"]].concat(),
                "--straggler must be a finite number >= 1",
            ),
            (
                [&faulty[..], &["--straggler", "1e30"]].concat(),
                "past the 9007199254740992 slot ceiling",
            ),
            (
                vec!["schedule", "--dag", &dag, "--machines", "0"],
                "a cluster needs between 1 and 1024 machines, got 0",
            ),
            (
                vec!["schedule", "--dag", &dag, "--machines", "100000"],
                "a cluster needs between 1 and 1024 machines, got 100000",
            ),
            (
                [&poisson[..], &["--machines", "4294967296"]].concat(),
                "a cluster needs between 1 and 1024 machines, got 4294967296",
            ),
            (
                [&poisson[..], &["--mean-gap", "inf"]].concat(),
                "--mean-gap must be a finite number >= 0",
            ),
            (
                [&poisson[..], &["--mean-gap", "-3"]].concat(),
                "--mean-gap must be a finite number >= 0",
            ),
            (
                [&poisson[..], &["--mean-gap", "nan"]].concat(),
                "--mean-gap must be a finite number >= 0",
            ),
            (
                vec!["schedule", "--dag", &dag, "--bugdet", "5"],
                "unknown flag --bugdet for schedule",
            ),
            (
                vec!["generate", "--task", "3"],
                "unknown flag --task for generate",
            ),
            (
                vec!["schedule", "--dag", &dag, "--search-threads", "2"],
                "unknown flag --search-threads for schedule",
            ),
            (
                vec!["schedule", "--dag", &dag, "--leaf-batch", "8"],
                "unknown flag --leaf-batch for schedule",
            ),
            (
                vec!["schedule", "--stg", &wrapping_stg, "--algo", "tetris"],
                "task runtimes sum to more than",
            ),
            (
                vec!["schedule", "--stg", &huge_header, "--algo", "tetris"],
                "fewer task lines than the header announced",
            ),
            (
                vec!["schedule", "--dag", &wrapping_json, "--algo", "tetris"],
                "task runtimes sum to more than",
            ),
            (
                vec!["schedule", "--dag", &zero_runtime, "--algo", "tetris"],
                "task t1 has zero runtime",
            ),
            (
                vec!["schedule", "--dag", &negative_demand, "--algo", "tetris"],
                "task t1 has a negative or non-finite resource demand",
            ),
            (
                vec!["schedule", "--dag", &short_demand, "--algo", "tetris"],
                "task t1 has 1 resource dimensions, expected 2",
            ),
            (
                vec!["schedule", "--dag", &self_edge, "--algo", "tetris"],
                "self-loop on task t2",
            ),
            (
                vec![
                    "schedule",
                    "--dag",
                    &dag,
                    "--algo",
                    "spear",
                    "--policy",
                    &inf_policy,
                ],
                "malformed network: layer 0 non-finite weight count is 1, expected 0",
            ),
        ];
        for (argv, want) in cases {
            let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
            let err = crate::run(&argv)
                .expect_err(&format!("{argv:?} must fail"))
                .to_string();
            assert!(err.contains(want), "{argv:?}: got `{err}`, want `{want}`");
            assert!(!err.contains('\n'), "{argv:?}: multi-line error `{err}`");
        }
    }

    #[test]
    fn schedule_arrivals_poisson_stream() {
        schedule(&args(&[
            "--arrivals",
            "poisson",
            "--jobs",
            "5",
            "--job-tasks",
            "5",
            "--mean-gap",
            "4.0",
            "--algo",
            "tetris",
            "--seed",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn schedule_arrivals_periodic_with_horizon_and_output() {
        let out = tmp("cli-multi-schedule.json");
        schedule(&args(&[
            "--arrivals",
            "periodic",
            "--gap",
            "3",
            "--jobs",
            "4",
            "--job-tasks",
            "4",
            "--algo",
            "sjf",
            "--horizon",
            "6",
            "--output",
            &out,
        ]))
        .unwrap();
        let loaded: spear::Schedule =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(loaded.makespan() > 0);
    }

    #[test]
    fn schedule_arrivals_replays_a_trace_file() {
        let trace_path = tmp("cli-multi-trace.json");
        generate(&args(&["--trace", "--seed", "2", "--output", &trace_path])).unwrap();
        schedule(&args(&[
            "--arrivals",
            "poisson",
            "--jobs",
            "3",
            "--mean-gap",
            "10.0",
            "--trace-file",
            &trace_path,
            "--algo",
            "cp",
        ]))
        .unwrap();
    }

    /// A multi-machine stream under `--horizon` is executed machine by
    /// machine up to the horizon: the JCT report prints, and the
    /// completed-job count rises as the horizon loosens until every job
    /// completes.
    #[test]
    fn horizon_reports_a_multi_machine_stream() {
        let argv = [
            "--arrivals",
            "poisson",
            "--jobs",
            "4",
            "--job-tasks",
            "6",
            "--machines",
            "3",
            "--algo",
            "tetris",
        ];
        schedule(&args(&[&argv[..], &["--horizon", "20"]].concat())).unwrap();
        let parsed = args(&argv);
        let queue = load_arrival_stream(&parsed).unwrap();
        let spec = cluster_spec(queue.union_dag().dims(), &parsed).unwrap();
        assert_eq!(spec.num_machines(), 3);
        let planned = TetrisScheduler::new()
            .schedule_multi(&queue, &spec)
            .unwrap();
        assert!(planned.placements().iter().any(|p| p.machine > 0));
        let mut completed = Vec::new();
        let report_at = |horizon| {
            let none = FaultPlan::none();
            execute_under_faults(&queue, &spec, &planned, &none, Some(horizon))
                .unwrap()
                .report
        };
        for horizon in (0..=planned.makespan()).step_by(5) {
            completed.push(report_at(horizon).completions().len());
        }
        assert!(completed.windows(2).all(|w| w[0] <= w[1]), "{completed:?}");
        assert_eq!(completed[0], 0);
        let full = report_at(planned.makespan());
        assert_eq!(full.completions().len(), queue.jobs());
    }

    /// A 1e30 straggler would saturate an attempt's occupancy and wrap the
    /// fault executor's clock, so every seed is refused with the one-line
    /// clock error before anything is scheduled.
    #[test]
    fn huge_stragglers_are_rejected_before_scheduling() {
        let dag_path = tmp("cli-dag-huge-straggler.json");
        generate(&args(&[
            "--tasks", "12", "--seed", "3", "--output", &dag_path,
        ]))
        .unwrap();
        for seed in 1..=8 {
            let seed = seed.to_string();
            let argv: Vec<String> = [
                "schedule",
                "--dag",
                &dag_path,
                "--faults",
                "0.1",
                "--straggler",
                "1e30",
                "--algo",
                "tetris",
                "--seed",
                &seed,
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            let err = crate::run(&argv).unwrap_err().to_string();
            assert!(err.contains("slot ceiling"), "seed {seed}: {err}");
            assert!(!err.contains("disagree"), "seed {seed}: {err}");
            assert!(!err.contains('\n'), "seed {seed}: {err}");
        }
    }

    #[test]
    fn schedule_with_faults_replays_the_plan_under_failures() {
        let dag_path = tmp("cli-dag-faults.json");
        generate(&args(&[
            "--tasks", "12", "--seed", "6", "--output", &dag_path,
        ]))
        .unwrap();
        schedule(&args(&[
            "--dag", &dag_path, "--algo", "cp", "--seed", "6", "--faults", "0.3",
        ]))
        .unwrap();
    }

    #[test]
    fn schedule_arrivals_with_faults_and_horizon() {
        schedule(&args(&[
            "--arrivals",
            "periodic",
            "--gap",
            "4",
            "--jobs",
            "4",
            "--job-tasks",
            "5",
            "--algo",
            "tetris",
            "--seed",
            "2",
            "--faults",
            "0.2",
            "--straggler",
            "2.0",
            "--horizon",
            "40",
        ]))
        .unwrap();
    }

    #[test]
    fn faults_run_on_a_multi_machine_cluster() {
        // Each run replays its plan under faults on three machines and
        // fails unless the realized run passes the fault tri-judge.
        let dag_path = tmp("cli-dag-faults-m3.json");
        generate(&args(&[
            "--tasks", "12", "--seed", "3", "--output", &dag_path,
        ]))
        .unwrap();
        let dag = format!("--dag {dag_path} --algo tetris --faults 0.2 --seed 1");
        let stream = "--arrivals poisson --jobs 4 --job-tasks 6 --transfer-mode via-master \
                      --algo cp --faults 0.1 --seed 5";
        for flags in [dag.as_str(), stream] {
            let flags: Vec<&str> = flags
                .split_whitespace()
                .chain(["--machines", "3"])
                .collect();
            schedule(&args(&flags)).unwrap();
        }
    }

    #[test]
    fn exhausted_retries_surface_as_a_typed_error() {
        let dag_path = tmp("cli-dag-exhaust.json");
        generate(&args(&["--tasks", "6", "--output", &dag_path])).unwrap();
        let err = schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "sjf",
            "--faults",
            "1.0",
            "--max-retries",
            "0",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("retry budget"), "unexpected error: {err}");
    }

    #[test]
    fn out_of_range_fault_rates_are_rejected() {
        let dag_path = tmp("cli-dag-badrate.json");
        generate(&args(&["--tasks", "4", "--output", &dag_path])).unwrap();
        let err = schedule(&args(&["--dag", &dag_path, "--faults", "1.5"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("outside [0, 1]"));
    }

    #[test]
    fn unknown_arrival_process_is_rejected() {
        let err = schedule(&args(&["--arrivals", "bursty", "--algo", "tetris"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("bursty"));
    }

    #[test]
    fn unknown_algo_is_rejected() {
        let dag_path = tmp("cli-dag3.json");
        generate(&args(&["--tasks", "4", "--output", &dag_path])).unwrap();
        let err = schedule(&args(&["--dag", &dag_path, "--algo", "magic"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("magic"));
    }

    #[test]
    fn schedule_on_a_heterogeneous_cluster() {
        let dag_path = tmp("cli-dag-hetero.json");
        generate(&args(&[
            "--tasks", "10", "--seed", "9", "--output", &dag_path,
        ]))
        .unwrap();
        let out = tmp("cli-hetero-schedule.json");
        schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "tetris",
            "--machines",
            "3",
            "--bandwidth",
            "2",
            "--transfer-mode",
            "via-master",
            "--seed",
            "9",
            "--output",
            &out,
        ]))
        .unwrap();
        let loaded: spear::Schedule =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // A 3-machine run actually spreads across machines.
        assert!(loaded.placements().iter().any(|p| p.machine > 0));
    }

    #[test]
    fn explicit_single_machine_matches_the_single_box_schedule() {
        let dag_path = tmp("cli-dag-onebox.json");
        generate(&args(&[
            "--tasks", "10", "--seed", "4", "--output", &dag_path,
        ]))
        .unwrap();
        let homo = tmp("cli-onebox-homo.json");
        let one = tmp("cli-onebox-hetero.json");
        schedule(&args(&[
            "--dag", &dag_path, "--algo", "cp", "--output", &homo,
        ]))
        .unwrap();
        schedule(&args(&[
            "--dag",
            &dag_path,
            "--algo",
            "cp",
            "--machines",
            "1",
            "--output",
            &one,
        ]))
        .unwrap();
        let a: spear::Schedule =
            serde_json::from_str(&std::fs::read_to_string(&homo).unwrap()).unwrap();
        let b: spear::Schedule =
            serde_json::from_str(&std::fs::read_to_string(&one).unwrap()).unwrap();
        // `--machines 1` is the default single box.
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_transfer_mode_is_rejected() {
        let dag_path = tmp("cli-dag-badmode.json");
        generate(&args(&["--tasks", "4", "--output", &dag_path])).unwrap();
        let err = schedule(&args(&[
            "--dag",
            &dag_path,
            "--machines",
            "2",
            "--transfer-mode",
            "teleport",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("teleport"), "unexpected error: {err}");
    }

    #[test]
    fn stats_requires_an_input() {
        assert!(stats(&args(&[])).is_err());
    }

    #[test]
    fn schedules_stg_files() {
        let path = tmp("cli-graph.stg");
        std::fs::write(&path, "4\n0 0 0\n1 5 1 0\n2 7 1 0\n3 0 2 1 2\n").unwrap();
        schedule(&args(&["--stg", &path, "--algo", "cp", "--drop-dummies"])).unwrap();
        stats(&args(&["--stg", &path])).unwrap();
    }

    #[test]
    fn evaluate_small_workload() {
        evaluate(&args(&["--tasks", "8", "--dags", "2", "--budget", "10"])).unwrap();
    }
}
