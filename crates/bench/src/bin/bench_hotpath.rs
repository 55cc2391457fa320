//! The reproducible hot-path benchmark: measures MCTS search throughput
//! (iterations/sec, rollout steps/sec, policy inferences/sec) on a fixed
//! fig6a-style workload and writes `BENCH_mcts.json` at the repository
//! root.
//!
//! Usage:
//!
//! * `bench_hotpath` — full measurement; if a committed baseline exists at
//!   `crates/bench/baseline/bench_hotpath_baseline.json`, speedup factors
//!   against it are included in the output.
//! * `bench_hotpath --save-baseline` — additionally snapshots this run as
//!   the committed baseline (run once *before* an optimization lands).
//! * `bench_hotpath --quick` — a seconds-scale smoke configuration for CI;
//!   writes `BENCH_mcts_quick.json` instead and never compares against the
//!   full baseline. With the eval cache on, quick mode exits nonzero if
//!   the policy's input table served no hits. The JSON output and any
//!   `--metrics-out` file are written *before* that exit, so a failed run
//!   still leaves its evidence for CI to upload. (The quick makespans are
//!   pinned by `tests/golden_determinism.rs`.)
//! * `bench_hotpath --no-eval-cache` — disables the policy's frontier and
//!   input tables (differential runs; makespans must not move).
//! * `bench_hotpath --metrics-out metrics.jsonl` — additionally writes the
//!   metrics recorded during the measured runs as JSON lines, and folds the
//!   same snapshot into the `metrics` field of the JSON output. Requires a
//!   build with `--features obs` for real data (recording is compiled out
//!   otherwise, keeping the measured hot path bit-identical to the plain
//!   build).
//!
//! Makespans per DAG are part of the output: across a pure performance
//! refactor they must not move (the same check the golden determinism
//! test enforces).
//!
//! Every run also works a seeded Poisson multi-job arrival stream through
//! the DRL-guided search in one continuous episode and folds the per-job
//! completion times (mean/p50/p99 JCT, unfairness — `null` when no job
//! completed, never a fake zero) into the output as the `multi_job`
//! section, then re-executes the same planned stream under a seeded 10%
//! fault plan (failures + 1.5x stragglers) and folds the realized
//! makespan, fault counters and recovery slowdown into the `faults`
//! section. The fault replay never perturbs the planned sections: the
//! quick goldens stay bit-identical.
//!
//! The `nn_precision` section (written in quick mode too) compares exact
//! (f64) against fast (f32) policy inference: raw kernel ns/inference,
//! DRL-guided search throughput at both precisions, and the makespan
//! quality ratio. Fast schedules are not pinned — they are validated by
//! the three diffcheck judges, and a judge failure gates the exit code.
//! The quick runs always use `Precision::Exact`, so fast-path changes
//! cannot drift the pinned makespans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use spear::dag::generator::LayeredDagSpec;
use spear::rl::EvalCacheStats;
use spear::{
    execute_under_faults, ArrivalProcess, ArrivalStreamSpec, ClusterSpec, Dag, FaultProfile,
    FeatureConfig, JobQueue, JobSource, MctsConfig, MctsScheduler, MetricsRegistry, Obs,
    PolicyNetwork, Schedule, SearchStats,
};
use spear_bench::workload;

/// Workload generator seed (same family as fig6a's simulation DAGs).
const WORKLOAD_SEED: u64 = 42;

/// Search seed for both scheduler families.
const SEARCH_SEED: u64 = 7;

/// Throughput and determinism record of one scheduler family.
///
/// The cache fields carry `#[serde(default)]` so baselines written before
/// the eval cache existed still parse (they read as all-zero).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SectionMetrics {
    iterations: u64,
    rollout_steps: u64,
    policy_inferences: u64,
    #[serde(default)]
    cache_hits: u64,
    #[serde(default)]
    cache_misses: u64,
    #[serde(default)]
    cache_evictions: u64,
    #[serde(default)]
    inference_skips: u64,
    /// The policy's input table, probed on every frontier-table miss
    /// (`cache_misses`): its hits are misses that ran no forward pass.
    #[serde(default)]
    input_hits: u64,
    #[serde(default)]
    input_misses: u64,
    #[serde(default)]
    input_evictions: u64,
    elapsed_seconds: f64,
    iterations_per_sec: f64,
    rollout_steps_per_sec: f64,
    policy_inferences_per_sec: f64,
    /// hits / (hits + misses) — the fraction of cache probes served.
    #[serde(default)]
    cache_hit_rate: f64,
    /// skips / (hits + misses + skips) — the fraction of decision points
    /// that never consulted the network's distribution at all.
    #[serde(default)]
    inference_skip_ratio: f64,
    makespans: Vec<u64>,
}

impl SectionMetrics {
    fn from_runs(runs: &[(u64, SearchStats)], elapsed_seconds: f64, input: EvalCacheStats) -> Self {
        let sum = |f: fn(&SearchStats) -> u64| runs.iter().map(|(_, s)| f(s)).sum::<u64>();
        let iterations = sum(|s| s.iterations);
        let rollout_steps = sum(|s| s.rollout_steps);
        let policy_inferences = sum(|s| s.policy_inferences);
        let cache_hits = sum(|s| s.cache_hits);
        let cache_misses = sum(|s| s.cache_misses);
        let cache_evictions = sum(|s| s.cache_evictions);
        let inference_skips = sum(|s| s.inference_skips);
        let per_sec = |count: u64| count as f64 / elapsed_seconds.max(1e-9);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        SectionMetrics {
            iterations,
            rollout_steps,
            policy_inferences,
            cache_hits,
            cache_misses,
            cache_evictions,
            inference_skips,
            input_hits: input.hits,
            input_misses: input.misses,
            input_evictions: input.evictions,
            elapsed_seconds,
            iterations_per_sec: per_sec(iterations),
            rollout_steps_per_sec: per_sec(rollout_steps),
            policy_inferences_per_sec: per_sec(policy_inferences),
            cache_hit_rate: ratio(cache_hits, cache_hits + cache_misses),
            inference_skip_ratio: ratio(
                inference_skips,
                cache_hits + cache_misses + inference_skips,
            ),
            makespans: runs.iter().map(|&(m, _)| m).collect(),
        }
    }
}

/// One full measurement: workload parameters + both scheduler families.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotpathReport {
    mode: String,
    dags: usize,
    tasks: usize,
    workload_seed: u64,
    pure: SectionMetrics,
    drl: SectionMetrics,
}

/// Current-over-baseline throughput ratios.
#[derive(Debug, Serialize)]
struct Speedup {
    pure_iterations_per_sec: f64,
    pure_rollout_steps_per_sec: f64,
    drl_iterations_per_sec: f64,
    drl_policy_inferences_per_sec: f64,
}

/// The online multi-job section: a seeded Poisson arrival stream worked by
/// the sequential DRL-guided search (the Spear configuration) in one
/// continuous episode, reported as per-job completion times.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MultiJobReport {
    jobs: usize,
    tasks_per_job: usize,
    mean_gap: f64,
    stream_seed: u64,
    elapsed_seconds: f64,
    /// Jobs the episode left unfinished (0 for a complete episode).
    unfinished: usize,
    /// `None` (JSON `null`) when no job completed — absent, not zero.
    mean_jct: Option<f64>,
    p50_jct: Option<u64>,
    p99_jct: Option<u64>,
    /// Spread (max − min) of per-job slowdowns.
    unfairness: f64,
    /// Completion time of the whole stream (union makespan).
    stream_makespan: u64,
    /// Per-job JCTs in queue (arrival) order — deterministic in the seeds,
    /// like the single-job makespans above.
    jcts: Vec<u64>,
}

/// The `faults` section: the planned multi-job stream re-executed under a
/// seeded fault plan. Faults bite at execution time only, so this section
/// cannot move the planned makespans or the quick goldens.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FaultsReport {
    fail_rate: f64,
    straggler_rate: f64,
    straggler_factor: f64,
    max_retries: u32,
    planned_makespan: u64,
    realized_makespan: u64,
    failures: u64,
    straggles: u64,
    /// realized / planned makespan — the fault-recovery overhead.
    slowdown: f64,
    unfinished: usize,
    mean_jct: Option<f64>,
    p99_jct: Option<u64>,
    elapsed_seconds: f64,
}

/// One side (exact or fast) of the precision comparison: raw-kernel
/// latency plus a full DRL-guided search pass over the workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct NnPrecisionPoint {
    /// Single-example policy-net forward latency (kernel only, no search).
    ns_per_inference: f64,
    /// DRL-guided search throughput over the workload DAGs.
    iterations_per_sec: f64,
    policy_inferences: u64,
    elapsed_seconds: f64,
    makespans: Vec<u64>,
}

/// The `nn_precision` section: exact (f64) vs fast (f32) inference on the
/// same workload. The exact side is the pinned golden path; the fast side
/// is validated per-DAG by the diffcheck judges instead of by bit
/// equality, with the makespan-quality ratio reported.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct NnPrecisionReport {
    /// Always `false`: the comparison disables the eval cache on both
    /// sides so it measures the inference path itself rather than the
    /// cache's ability to hide it. The cache is makespan-transparent by
    /// pinned invariant, so the schedules are identical either way.
    eval_cache: bool,
    exact: NnPrecisionPoint,
    fast: NnPrecisionPoint,
    /// Exact ns/inference over fast ns/inference (kernel-level gain).
    inference_speedup: f64,
    /// Fast DRL iterations/s over exact DRL iterations/s (end-to-end gain).
    drl_speedup: f64,
    /// max over DAGs of fast_makespan / exact_makespan — the quality cost
    /// of dropping to f32 (1.0 = identical schedules).
    max_makespan_ratio: f64,
    /// Every fast schedule passed all three diffcheck judges.
    judges_ok: bool,
}

/// What `BENCH_mcts.json` holds. A `metrics` key is added to the emitted
/// JSON only when `--metrics-out` was given (so runs without it keep the
/// pre-observability output format byte-for-byte).
#[derive(Debug, Serialize)]
struct BenchOutput {
    report: HotpathReport,
    baseline: Option<HotpathReport>,
    speedup: Option<Speedup>,
    multi_job: MultiJobReport,
    faults: FaultsReport,
    nn_precision: NnPrecisionReport,
}

struct ModeParams {
    tag: &'static str,
    dags: usize,
    tasks: usize,
    pure_budget: (u64, u64),
    drl_budget: (u64, u64),
    multi_jobs: usize,
    multi_tasks: usize,
    multi_mean_gap: f64,
}

const FULL: ModeParams = ModeParams {
    tag: "full",
    dags: 6,
    tasks: 50,
    pure_budget: (800, 160),
    drl_budget: (40, 8),
    multi_jobs: 10,
    multi_tasks: 20,
    multi_mean_gap: 10.0,
};

const QUICK: ModeParams = ModeParams {
    tag: "quick",
    dags: 2,
    tasks: 30,
    pure_budget: (60, 12),
    drl_budget: (15, 3),
    multi_jobs: 4,
    multi_tasks: 8,
    multi_mean_gap: 5.0,
};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline/bench_hotpath_baseline.json")
}

/// Schedules every DAG with `scheduler`, returning each makespan with its
/// stats, the elapsed seconds, and the policy's input-table counters.
fn measure(
    dags: &[Dag],
    spec: &ClusterSpec,
    mut scheduler: MctsScheduler,
) -> (Vec<(u64, SearchStats)>, f64, EvalCacheStats) {
    let start = std::time::Instant::now();
    let runs: Vec<(u64, SearchStats)> = dags
        .iter()
        .map(|dag| {
            let (schedule, stats) = scheduler
                .schedule_with_stats(dag, spec)
                .expect("workload fits cluster");
            schedule
                .validate(dag, spec)
                .expect("schedule must be valid");
            (schedule.makespan(), stats)
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    (runs, elapsed, scheduler.policy().input_cache_stats())
}

fn pure_scheduler(params: &ModeParams) -> MctsScheduler {
    MctsScheduler::pure(MctsConfig {
        initial_budget: params.pure_budget.0,
        min_budget: params.pure_budget.1,
        seed: SEARCH_SEED,
        ..MctsConfig::default()
    })
}

fn drl_scheduler(params: &ModeParams, eval_cache: bool) -> MctsScheduler {
    drl_scheduler_precision(params, eval_cache, spear::nn::Precision::Exact)
}

fn drl_scheduler_precision(
    params: &ModeParams,
    eval_cache: bool,
    nn_precision: spear::nn::Precision,
) -> MctsScheduler {
    // An untrained paper-architecture policy: inference cost is identical
    // to a trained one, and no multi-minute training enters the harness.
    let mut rng = StdRng::seed_from_u64(0);
    let policy = PolicyNetwork::new(FeatureConfig::paper(2), &mut rng);
    MctsScheduler::drl(
        MctsConfig {
            initial_budget: params.drl_budget.0,
            min_budget: params.drl_budget.1,
            seed: SEARCH_SEED,
            eval_cache,
            nn_precision,
            ..MctsConfig::default()
        },
        policy,
    )
}

fn run_report(params: &ModeParams, eval_cache: bool, obs: &Obs) -> HotpathReport {
    let dags = workload::simulation_dags(params.dags, params.tasks, WORKLOAD_SEED);
    let spec = workload::cluster();
    eprintln!(
        "[bench_hotpath] {} mode: {} DAGs x {} tasks (eval cache {})",
        params.tag,
        params.dags,
        params.tasks,
        if eval_cache { "on" } else { "off" }
    );
    let (pure_runs, pure_elapsed, pure_input) =
        measure(&dags, &spec, pure_scheduler(params).with_obs(obs));
    eprintln!("[bench_hotpath] pure MCTS done in {pure_elapsed:.2}s");
    let (drl_runs, drl_elapsed, drl_input) = measure(
        &dags,
        &spec,
        drl_scheduler(params, eval_cache).with_obs(obs),
    );
    eprintln!("[bench_hotpath] DRL-guided done in {drl_elapsed:.2}s");
    HotpathReport {
        mode: params.tag.to_string(),
        dags: params.dags,
        tasks: params.tasks,
        workload_seed: WORKLOAD_SEED,
        pure: SectionMetrics::from_runs(&pure_runs, pure_elapsed, pure_input),
        drl: SectionMetrics::from_runs(&drl_runs, drl_elapsed, drl_input),
    }
}

fn run_multi_job(
    params: &ModeParams,
    eval_cache: bool,
    obs: &Obs,
) -> (MultiJobReport, JobQueue, Schedule) {
    let stream = ArrivalStreamSpec {
        jobs: params.multi_jobs,
        process: ArrivalProcess::Poisson {
            mean_gap: params.multi_mean_gap,
        },
        source: JobSource::Layered(LayeredDagSpec {
            num_tasks: params.multi_tasks,
            ..LayeredDagSpec::paper_simulation()
        }),
    }
    .generate(WORKLOAD_SEED)
    .expect("layered job source is total");
    let queue = JobQueue::new(stream).expect("generated stream forms a valid queue");
    let spec = workload::cluster();
    let mut scheduler = drl_scheduler(params, eval_cache).with_obs(obs);
    let start = std::time::Instant::now();
    let (schedule, _) = scheduler
        .schedule_multi_with_stats(&queue, &spec)
        .expect("stream fits cluster");
    let elapsed = start.elapsed().as_secs_f64();
    schedule
        .validate(queue.union_dag(), &spec)
        .expect("stream schedule must be valid");
    let report = queue.jct_report(&schedule);
    assert_eq!(
        report.unfinished(),
        0,
        "complete episode leaves no job behind"
    );
    eprintln!(
        "[bench_hotpath] multi-job drl: {} jobs x {} tasks in {elapsed:.2}s, jct mean {} p99 {}",
        params.multi_jobs,
        params.multi_tasks,
        fmt_opt(report.mean_jct().map(|m| format!("{m:.1}"))),
        fmt_opt(report.p99_jct())
    );
    let multi = MultiJobReport {
        jobs: params.multi_jobs,
        tasks_per_job: params.multi_tasks,
        mean_gap: params.multi_mean_gap,
        stream_seed: WORKLOAD_SEED,
        elapsed_seconds: elapsed,
        unfinished: report.unfinished(),
        mean_jct: report.mean_jct(),
        p50_jct: report.p50_jct(),
        p99_jct: report.p99_jct(),
        unfairness: report.unfairness(),
        stream_makespan: schedule.makespan(),
        jcts: report.completions().iter().map(|c| c.jct).collect(),
    };
    (multi, queue, schedule)
}

/// `Some(value)` displayed, `None` as `n/a` — mirrors the CLI's handling
/// of absent JCT statistics.
fn fmt_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |x| x.to_string())
}

/// Re-executes the planned multi-job schedule under a seeded 10% fault
/// plan (failures and 1.5x stragglers; a retry budget of 5 keeps the
/// deterministic stream clear of exhaustion) and reports the realized run.
fn run_faults(queue: &JobQueue, planned: &Schedule) -> FaultsReport {
    let profile = FaultProfile {
        max_retries: 5,
        ..FaultProfile::with_rate(0.10)
    };
    let plan = profile.plan(WORKLOAD_SEED);
    let spec = workload::cluster();
    let start = std::time::Instant::now();
    let faulty = execute_under_faults(queue, &spec, planned, &plan, None)
        .expect("the 5-retry budget outlasts a seeded 10% failure rate");
    let elapsed = start.elapsed().as_secs_f64();
    let report = &faulty.report;
    eprintln!(
        "[bench_hotpath] faults @ {:.0}%: realized makespan {} (planned {}), {} failures, {} stragglers",
        100.0 * profile.fail_rate,
        faulty.makespan,
        planned.makespan(),
        faulty.failures,
        faulty.straggles
    );
    FaultsReport {
        fail_rate: profile.fail_rate,
        straggler_rate: profile.straggler_rate,
        straggler_factor: profile.straggler_factor,
        max_retries: profile.max_retries,
        planned_makespan: planned.makespan(),
        realized_makespan: faulty.makespan,
        failures: faulty.failures,
        straggles: faulty.straggles,
        slowdown: faulty.makespan as f64 / planned.makespan().max(1) as f64,
        unfinished: report.unfinished(),
        mean_jct: report.mean_jct(),
        p99_jct: report.p99_jct(),
        elapsed_seconds: elapsed,
    }
}

/// Measures raw single-example forward latency of the paper-architecture
/// policy net: the f64 `Mlp` scratch path vs the f32 `InferenceEngine`
/// kernels, on the same pseudo-random feature rows. Returns
/// `(exact_ns, fast_ns)` per inference.
fn kernel_latency(policy: &PolicyNetwork, reps: usize) -> (f64, f64) {
    use rand::Rng;
    let engine = policy.inference_engine();
    let input_dim = engine.input_dim();
    // A small rotation of feature rows defeats trivially value-predictable
    // branches without touching the measured allocation-free paths.
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED);
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..input_dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut fwd = spear::nn::ForwardScratch::default();
    let mut inf = spear::nn::InferScratch::new();
    // Warm both scratches to steady state before timing.
    for row in &rows {
        std::hint::black_box(policy.net().forward_one_into(row, &mut fwd));
        std::hint::black_box(engine.forward_one(row, &mut inf));
    }
    let start = std::time::Instant::now();
    for i in 0..reps {
        let out = policy
            .net()
            .forward_one_into(&rows[i % rows.len()], &mut fwd);
        std::hint::black_box(out);
    }
    let exact_ns = start.elapsed().as_nanos() as f64 / reps.max(1) as f64;
    let start = std::time::Instant::now();
    for i in 0..reps {
        let out = engine.forward_one(&rows[i % rows.len()], &mut inf);
        std::hint::black_box(out);
    }
    let fast_ns = start.elapsed().as_nanos() as f64 / reps.max(1) as f64;
    (exact_ns, fast_ns)
}

/// Runs the DRL-guided search at both precisions over the same workload,
/// microbenches the raw kernels, and validates every fast schedule with
/// the three diffcheck judges. Both sides run with the eval cache off:
/// the section measures the inference path, and the cache would dilute
/// the comparison by serving ~half the probes from memory. Because the
/// cache is makespan-transparent (a pinned invariant), the exact side's
/// makespans still match the `drl` section and the quick goldens.
fn run_nn_precision(params: &ModeParams, obs: &Obs) -> NnPrecisionReport {
    let eval_cache = false;
    let dags = workload::simulation_dags(params.dags, params.tasks, WORKLOAD_SEED);
    let spec = workload::cluster();
    let reps = if params.tag == "quick" {
        20_000
    } else {
        200_000
    };
    let mut rng = StdRng::seed_from_u64(0);
    let policy = PolicyNetwork::new(FeatureConfig::paper(2), &mut rng);
    let (exact_ns, fast_ns) = kernel_latency(&policy, reps);

    let measure_precision = |precision: spear::nn::Precision| {
        let mut scheduler = drl_scheduler_precision(params, eval_cache, precision).with_obs(obs);
        let start = std::time::Instant::now();
        let runs: Vec<(Schedule, SearchStats)> = dags
            .iter()
            .map(|dag| {
                let (schedule, stats) = scheduler
                    .schedule_with_stats(dag, &spec)
                    .expect("workload fits cluster");
                (schedule, stats)
            })
            .collect();
        (runs, start.elapsed().as_secs_f64())
    };
    let (exact_runs, exact_elapsed) = measure_precision(spear::nn::Precision::Exact);
    let (fast_runs, fast_elapsed) = measure_precision(spear::nn::Precision::Fast);

    // The fast schedules are not pinned; the judges decide their validity
    // and the makespan ratio reports their quality against exact.
    let mut judges_ok = true;
    for (dag, (schedule, _)) in dags.iter().zip(&fast_runs) {
        let queue = JobQueue::single(dag.clone()).expect("workload forms a queue");
        let tri = spear::diffcheck::check_schedule(&queue, &spec, schedule);
        if !tri.all_ok() {
            judges_ok = false;
            eprintln!(
                "[bench_hotpath] FAST JUDGE FAILURE on a {}-task DAG: {}",
                dag.len(),
                tri.summary()
            );
        }
    }
    let max_makespan_ratio = exact_runs
        .iter()
        .zip(&fast_runs)
        .map(|((e, _), (f, _))| f.makespan() as f64 / e.makespan().max(1) as f64)
        .fold(0.0_f64, f64::max);

    let point = |runs: &[(Schedule, SearchStats)], elapsed: f64, ns: f64| NnPrecisionPoint {
        ns_per_inference: ns,
        iterations_per_sec: runs.iter().map(|(_, s)| s.iterations).sum::<u64>() as f64
            / elapsed.max(1e-9),
        policy_inferences: runs.iter().map(|(_, s)| s.policy_inferences).sum(),
        elapsed_seconds: elapsed,
        makespans: runs.iter().map(|(s, _)| s.makespan()).collect(),
    };
    let exact = point(&exact_runs, exact_elapsed, exact_ns);
    let fast = point(&fast_runs, fast_elapsed, fast_ns);
    eprintln!(
        "[bench_hotpath] nn precision: exact {exact_ns:.0} ns/inference, fast {fast_ns:.0} ns/inference, drl {:.2}x",
        fast.iterations_per_sec / exact.iterations_per_sec.max(1e-9)
    );
    NnPrecisionReport {
        eval_cache,
        inference_speedup: exact_ns / fast_ns.max(1e-9),
        drl_speedup: fast.iterations_per_sec / exact.iterations_per_sec.max(1e-9),
        max_makespan_ratio,
        judges_ok,
        exact,
        fast,
    }
}

fn comparable(a: &HotpathReport, b: &HotpathReport) -> bool {
    a.mode == b.mode && a.dags == b.dags && a.tasks == b.tasks && a.workload_seed == b.workload_seed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    let eval_cache = !args.iter().any(|a| a == "--no-eval-cache");
    let metrics_out: Option<String> = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let params = if quick { &QUICK } else { &FULL };

    let registry = if metrics_out.is_some() {
        if !spear::obs::compiled() {
            eprintln!(
                "[bench_hotpath] note: metrics compiled out; rebuild with --features obs for data"
            );
        }
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let sink = registry.sink("bench_hotpath");

    let report = run_report(params, eval_cache, &sink);

    // The gates below fail the exit code, but only *after* the JSON output
    // and any `--metrics-out` file are written — a failed run must still
    // leave its evidence on disk for CI to upload.
    //
    // The input table must earn its memory: a cache-on quick run whose
    // input table never served a hit means the key or the probe broke.
    let input_ok = !(quick && eval_cache && report.drl.input_hits == 0);
    if !input_ok {
        eprintln!("[bench_hotpath] INPUT TABLE SERVED NO HITS with the eval cache on");
    }

    let (multi_job, multi_queue, multi_schedule) = run_multi_job(params, eval_cache, &sink);
    let faults = run_faults(&multi_queue, &multi_schedule);
    let nn_precision = run_nn_precision(params, &sink);

    let baseline: Option<HotpathReport> = std::fs::read_to_string(baseline_path())
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .filter(|b| comparable(b, &report));
    let speedup = baseline.as_ref().map(|b| Speedup {
        pure_iterations_per_sec: report.pure.iterations_per_sec / b.pure.iterations_per_sec,
        pure_rollout_steps_per_sec: report.pure.rollout_steps_per_sec
            / b.pure.rollout_steps_per_sec,
        drl_iterations_per_sec: report.drl.iterations_per_sec / b.drl.iterations_per_sec,
        drl_policy_inferences_per_sec: report.drl.policy_inferences_per_sec
            / b.drl.policy_inferences_per_sec,
    });

    println!(
        "pure: {:>10.0} iterations/s  {:>12.0} rollout steps/s  makespans {:?}",
        report.pure.iterations_per_sec, report.pure.rollout_steps_per_sec, report.pure.makespans
    );
    println!(
        "drl:  {:>10.0} iterations/s  {:>12.0} rollout steps/s  {:>10.0} inferences/s  makespans {:?}",
        report.drl.iterations_per_sec,
        report.drl.rollout_steps_per_sec,
        report.drl.policy_inferences_per_sec,
        report.drl.makespans
    );
    println!(
        "drl cache: {} hits / {} misses / {} evictions ({:.1}% hit rate), {} singleton skips ({:.1}% of decision points)",
        report.drl.cache_hits,
        report.drl.cache_misses,
        report.drl.cache_evictions,
        100.0 * report.drl.cache_hit_rate,
        report.drl.inference_skips,
        100.0 * report.drl.inference_skip_ratio
    );
    println!(
        "drl input table: {} hits / {} misses / {} evictions",
        report.drl.input_hits, report.drl.input_misses, report.drl.input_evictions
    );
    println!(
        "multi-job drl: {} jobs x {} tasks ({} unfinished), jct mean {} p50 {} p99 {}, unfairness {:.2}, stream makespan {}",
        multi_job.jobs,
        multi_job.tasks_per_job,
        multi_job.unfinished,
        fmt_opt(multi_job.mean_jct.map(|m| format!("{m:.1}"))),
        fmt_opt(multi_job.p50_jct),
        fmt_opt(multi_job.p99_jct),
        multi_job.unfairness,
        multi_job.stream_makespan
    );
    println!(
        "faults @ {:.0}%: realized makespan {} (planned {}, {:.2}x), {} failures, {} stragglers, jct mean {}",
        100.0 * faults.fail_rate,
        faults.realized_makespan,
        faults.planned_makespan,
        faults.slowdown,
        faults.failures,
        faults.straggles,
        fmt_opt(faults.mean_jct.map(|m| format!("{m:.1}")))
    );
    println!(
        "nn precision: exact {:.0} ns/inference, fast {:.0} ns/inference ({:.2}x kernel); drl {:.0} -> {:.0} iterations/s ({:.2}x); max makespan ratio {:.3}, judges {}",
        nn_precision.exact.ns_per_inference,
        nn_precision.fast.ns_per_inference,
        nn_precision.inference_speedup,
        nn_precision.exact.iterations_per_sec,
        nn_precision.fast.iterations_per_sec,
        nn_precision.drl_speedup,
        nn_precision.max_makespan_ratio,
        if nn_precision.judges_ok { "OK" } else { "FAILED" }
    );
    if let Some(s) = &speedup {
        println!(
            "speedup vs baseline: pure {:.2}x iterations/s, {:.2}x rollout steps/s; drl {:.2}x iterations/s, {:.2}x inferences/s",
            s.pure_iterations_per_sec,
            s.pure_rollout_steps_per_sec,
            s.drl_iterations_per_sec,
            s.drl_policy_inferences_per_sec
        );
    } else {
        println!("no comparable baseline at {}", baseline_path().display());
    }

    if save_baseline {
        let path = baseline_path();
        std::fs::create_dir_all(path.parent().expect("has parent"))
            .expect("cannot create baseline dir");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )
        .expect("cannot write baseline");
        eprintln!("[bench_hotpath] baseline saved to {}", path.display());
    }

    let metrics = metrics_out.as_deref().map(|path| {
        let snapshot = registry.snapshot();
        std::fs::write(path, snapshot.to_jsonl()).expect("cannot write metrics output");
        eprintln!("[bench_hotpath] wrote metrics to {path}");
        serde_json::from_str(&snapshot.to_json())
            .expect("snapshot JSON round-trips through serde_json")
    });

    let out_name = if quick {
        "BENCH_mcts_quick.json"
    } else {
        "BENCH_mcts.json"
    };
    let out_path = repo_root().join(out_name);
    let judges_ok = nn_precision.judges_ok;
    let output = BenchOutput {
        report,
        baseline,
        speedup,
        multi_job,
        faults,
        nn_precision,
    };
    let mut value = serde_json::to_value(&output);
    if let (Some(m), serde_json::Value::Obj(entries)) = (metrics, &mut value) {
        entries.push(("metrics".to_string(), m));
    }
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&value).expect("output serializes"),
    )
    .expect("cannot write benchmark output");
    eprintln!("[bench_hotpath] wrote {}", out_path.display());

    // Any gate failing means the run is evidence of a regression: the
    // judges catch an invalid fast schedule, the input check a dead input
    // table. The JSON above is already on disk either way.
    if !judges_ok || !input_ok {
        std::process::exit(1);
    }
}
