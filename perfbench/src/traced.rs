//! The traced run: per-layer spans and counts, timed from the benchmark's
//! own files around the calls into each crate.
//!
//! A search workload schedules its first jobs twice. The untraced pass
//! calls the library scheduler exactly as the end-to-end run does and
//! supplies the exact counts (`SearchStats`). The traced pass drives
//! `MctsSearch` decision by decision the way `MctsScheduler` does, with
//! the policy wrapped in a [`TracingPolicy`] that times every
//! `choose_*` call and keeps every [`KEEP_EVERY`]-th state it is shown;
//! its schedules must equal the untraced pass's. Afterwards the
//! simulator, featurizer and network functions are timed on the kept
//! states, and each unit cost times its exact count gives the layer's
//! time inside the spans. The training workload times the pipeline's
//! phases the same way.

use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::analysis::GraphFeatures;
use spear::mcts::{DrlPolicy, MctsSearch, PolicyContext, RandomPolicy, SearchPolicy};
use spear::nn::{loss, ForwardScratch, InferScratch, Matrix, Mlp, Optimizer, RmsProp};
use spear::rl::{pretrain, EvalCacheStats, ReinforceTrainer, StateView};
use spear::sched::{greedy_makespan_estimate, greedy_makespan_estimate_multi};
use spear::{
    train_policy, Action, ClusterSpec, Dag, JobQueue, MctsConfig, PolicyNetwork, Schedule,
    SearchStats, SimEnv, SimState, SpearError, TaskId,
};

use crate::host::{runq_wait_share, schedstat, ReferenceKernel};
use crate::metrics::Report;
use crate::stats::{beyond, median, percentile, ratio};
use crate::workload::{
    check, cluster, search_config, warm_up, Inputs, Output, Prepared, Scale, Shape, Workload,
};

/// Keep one in this many states the policy is shown.
pub const KEEP_EVERY: u64 = 1024;
/// At most this many kept states.
const MAX_KEPT: usize = 3000;
/// Repetitions of each unit-cost call per kept state.
const REPS: u32 = 8;

/// A [`SearchPolicy`] that forwards to `inner`, timing every `choose_*`
/// call when `timed` and keeping a sample of the states it is shown.
#[derive(Debug)]
pub struct TracingPolicy<P> {
    inner: P,
    timed: bool,
    calls: u64,
    policy_ns: u64,
    job: usize,
    kept: Vec<(usize, SimState)>,
}

impl<P: SearchPolicy> TracingPolicy<P> {
    /// Wraps `inner`; `timed` adds a span around every call.
    pub fn new(inner: P, timed: bool) -> Self {
        TracingPolicy {
            inner,
            timed,
            calls: 0,
            policy_ns: 0,
            job: 0,
            kept: Vec::new(),
        }
    }

    fn keep(&mut self, state: &SimState) {
        self.calls += 1;
        if self.calls.is_multiple_of(KEEP_EVERY) && self.kept.len() < MAX_KEPT {
            self.kept.push((self.job, state.clone()));
        }
    }
}

impl<P: SearchPolicy> SearchPolicy for TracingPolicy<P> {
    fn choose_expansion(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        untried: &[Action],
        rng: &mut StdRng,
    ) -> usize {
        self.keep(state);
        if !self.timed {
            return self.inner.choose_expansion(ctx, state, untried, rng);
        }
        let start = Instant::now();
        let pick = self.inner.choose_expansion(ctx, state, untried, rng);
        self.policy_ns += start.elapsed().as_nanos() as u64;
        pick
    }

    fn choose_rollout(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action {
        self.keep(state);
        if !self.timed {
            return self.inner.choose_rollout(ctx, state, legal, rng);
        }
        let start = Instant::now();
        let action = self.inner.choose_rollout(ctx, state, legal, rng);
        self.policy_ns += start.elapsed().as_nanos() as u64;
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn inferences(&self) -> u64 {
        self.inner.inferences()
    }

    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }

    fn cache_stats(&self) -> EvalCacheStats {
        self.inner.cache_stats()
    }

    fn inference_skips(&self) -> u64 {
        self.inner.inference_skips()
    }
}

/// Spans (seconds) and counts of one job scheduled by [`drive`].
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// The whole job.
    pub wall_s: f64,
    /// `greedy_makespan_estimate` (or `_multi`).
    pub estimate_s: f64,
    /// `GraphFeatures::compute`.
    pub features_s: f64,
    /// Each decision: its iterations, `best_action` and `advance`.
    pub decisions_ms: Vec<f64>,
    /// The search's counters, as `SearchStats` reports them.
    pub stats: SearchStats,
}

/// Schedules `dag` (the union DAG of `queue`, for a stream) by driving
/// `MctsSearch` the way `MctsScheduler` does, with a span around each
/// call into another crate and around each decision.
///
/// # Errors
///
/// Returns the simulator's error, as the scheduler would.
pub fn drive<P: SearchPolicy>(
    policy: &mut P,
    config: &MctsConfig,
    dag: &Dag,
    spec: &ClusterSpec,
    queue: Option<&JobQueue>,
) -> Result<(Schedule, JobTrace), SpearError> {
    let job_start = Instant::now();
    let mut trace = JobTrace::default();
    let start = Instant::now();
    let estimate = match queue {
        Some(queue) => greedy_makespan_estimate_multi(queue, spec)?,
        None => greedy_makespan_estimate(dag, spec)?,
    } as f64;
    trace.estimate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let features = GraphFeatures::compute(dag);
    trace.features_s = start.elapsed().as_secs_f64();

    let exploration = config.exploration_coeff * estimate.max(1.0);
    let budget = config.budget();
    let inferences_before = policy.inferences();
    let skips_before = policy.inference_skips();
    let cache_before = policy.cache_stats();
    let mut search = match queue {
        Some(queue) => MctsSearch::from_root_state(
            dag,
            spec,
            &features,
            policy,
            exploration,
            config.seed,
            SimState::new_multi(queue, spec)?,
        )?,
        None => MctsSearch::new(dag, spec, &features, policy, exploration, config.seed)?,
    };
    search.set_max_value_mode(config.max_value_backprop);
    let mut decisions = 0u64;
    while !search.is_terminal() {
        decisions += 1;
        let start = Instant::now();
        for _ in 0..budget.at_depth(decisions) {
            search.run_iteration();
        }
        let action = search.best_action();
        search.advance(action)?;
        trace.decisions_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let cache = search.policy_cache_stats();
    trace.stats = SearchStats {
        iterations: search.iterations(),
        rollout_steps: search.rollout_steps(),
        tree_nodes: search.tree_size(),
        decisions,
        policy_inferences: search.policy_inferences() - inferences_before,
        cache_hits: cache.hits - cache_before.hits,
        cache_misses: cache.misses - cache_before.misses,
        cache_evictions: cache.evictions - cache_before.evictions,
        inference_skips: search.policy_inference_skips() - skips_before,
        ..SearchStats::default()
    };
    let schedule = SimEnv::from_state(dag, spec, search.root_state().clone()).into_schedule()?;
    trace.wall_s = job_start.elapsed().as_secs_f64();
    Ok((schedule, trace))
}

/// Whether two runs' counters agree (everything but the elapsed time).
fn same_counts(a: &SearchStats, b: &SearchStats) -> bool {
    SearchStats {
        elapsed_seconds: 0.0,
        ..*a
    } == SearchStats {
        elapsed_seconds: 0.0,
        ..*b
    }
}

/// Unit costs measured on kept states after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `legal_actions_into` + `apply_legal`, per rollout step.
    pub step_ns: f64,
    /// `SimState::clone_from`.
    pub clone_ns: f64,
    /// `SimState::frontier_fingerprint`.
    pub fingerprint_ns: f64,
    /// `Featurizer::featurize_into`.
    pub featurize_ns: f64,
    /// `Mlp::forward_one_into` (exact `f64`).
    pub forward_ns: f64,
    /// `InferenceEngine::forward_one` (fast `f32`).
    pub forward_fast_ns: f64,
    /// One 64-row `forward` + `backward` + `RmsProp::step`.
    pub train_step_us: f64,
}

/// A deterministic work-conserving random pick (the pure-MCTS rollout
/// rule) from an xorshift stream.
fn pick(legal: &[Action], rng: &mut u64) -> Action {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let tasks = legal
        .iter()
        .filter(|a| !matches!(a, Action::Process))
        .count();
    if tasks == 0 {
        return Action::Process;
    }
    *legal
        .iter()
        .filter(|a| !matches!(a, Action::Process))
        .nth((*rng % tasks as u64) as usize)
        .expect("counted above")
}

/// Rounds of each unit-cost measurement. The fastest round counts, so a
/// burst of contention from other tenants of the host during one round
/// does not decide the cost.
const ROUNDS: usize = 3;

/// The fastest of [`ROUNDS`] calls of `round`, which returns nanoseconds.
fn fastest_round(mut round: impl FnMut() -> u128) -> f64 {
    (0..ROUNDS).map(|_| round()).min().unwrap_or(0) as f64
}

/// Times the simulator's stepping, cloning and fingerprinting on the
/// kept states (grouped by job, whose DAG each belongs to).
fn cluster_costs(kept: &[(usize, SimState)], dags: &[&Dag], units: &mut UnitCosts) {
    let ops = kept.len() as f64 * f64::from(REPS);
    let clone_ns = fastest_round(|| {
        let mut scratch: Option<(usize, SimState)> = None;
        let mut ns = 0;
        for (job, state) in kept {
            if scratch.as_ref().is_none_or(|(j, _)| j != job) {
                scratch = Some((*job, state.clone()));
            }
            let dst = &mut scratch.as_mut().expect("set above").1;
            let start = Instant::now();
            for _ in 0..REPS {
                dst.clone_from(black_box(state));
            }
            ns += start.elapsed().as_nanos();
        }
        ns
    });
    let fingerprint_ns = fastest_round(|| {
        let start = Instant::now();
        for (_, state) in kept {
            for _ in 0..REPS {
                black_box(black_box(state).frontier_fingerprint());
            }
        }
        start.elapsed().as_nanos()
    });
    let mut steps = 0u64;
    let step_ns = fastest_round(|| {
        let mut legal = Vec::new();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut ns = 0;
        steps = 0;
        for (job, state) in kept {
            let dag = dags[*job];
            let mut dst = state.clone();
            let start = Instant::now();
            loop {
                dst.legal_actions_into(dag, &mut legal);
                if legal.is_empty() {
                    break;
                }
                let action = pick(&legal, &mut rng);
                dst.apply_legal(dag, action);
                steps += 1;
            }
            ns += start.elapsed().as_nanos();
        }
        ns
    });
    units.clone_ns = ratio(clone_ns, ops);
    units.fingerprint_ns = ratio(fingerprint_ns, ops);
    units.step_ns = ratio(step_ns, steps as f64);
}

/// One 64-row supervised step — `forward`, cross-entropy, `backward`,
/// `RmsProp::step` — on a copy of `net`, in microseconds (median of 15).
fn train_step_us(net: &Mlp, rows: &[Vec<f64>], masks: &[Vec<bool>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let picked: Vec<usize> = (0..64).map(|i| i % rows.len()).collect();
    let refs: Vec<&[f64]> = picked.iter().map(|&i| rows[i].as_slice()).collect();
    let x = Matrix::from_rows(&refs);
    let masks: Vec<Vec<bool>> = picked.iter().map(|&i| masks[i].clone()).collect();
    let targets: Vec<usize> = masks
        .iter()
        .map(|m| m.iter().position(|&legal| legal).unwrap_or(0))
        .collect();
    let mut net = net.clone();
    let mut opt = RmsProp::new(1e-3, 0.9, 1e-9);
    let mut times = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        let logits = net.forward(&x);
        let (_, d) = loss::softmax_cross_entropy(&logits, &targets, Some(&masks));
        net.zero_grad();
        net.backward(&d);
        opt.step(&mut net);
        net.zero_grad();
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Times featurization and both forward passes on the kept states.
fn policy_costs(
    kept: &[(usize, SimState)],
    dags: &[&Dag],
    features: &[GraphFeatures],
    policy: &PolicyNetwork,
    units: &mut UnitCosts,
) {
    let spec = cluster();
    let featurizer = policy.featurizer();
    let mut ready: Vec<TaskId> = Vec::new();
    let mut view = StateView::default();
    let (mut rows, mut masks) = (Vec::new(), Vec::new());
    for (job, state) in kept {
        featurizer.featurize_into(
            dags[*job],
            &spec,
            state,
            &features[*job],
            &mut ready,
            &mut view,
        );
        rows.push(view.features.clone());
        masks.push(view.mask.clone());
    }
    let ops = kept.len() as f64 * f64::from(REPS);
    let featurize_ns = fastest_round(|| {
        let start = Instant::now();
        for (job, state) in kept {
            for _ in 0..REPS {
                featurizer.featurize_into(
                    dags[*job],
                    &spec,
                    black_box(state),
                    &features[*job],
                    &mut ready,
                    &mut view,
                );
            }
        }
        start.elapsed().as_nanos()
    });
    units.featurize_ns = ratio(featurize_ns, ops);

    let net = policy.net();
    let mut scratch = ForwardScratch::default();
    let forward_ns = fastest_round(|| {
        let start = Instant::now();
        for row in &rows {
            for _ in 0..REPS {
                black_box(net.forward_one_into(black_box(row), &mut scratch));
            }
        }
        start.elapsed().as_nanos()
    });
    units.forward_ns = ratio(forward_ns, ops);

    let engine = policy.inference_engine();
    let mut infer = InferScratch::new();
    let forward_fast_ns = fastest_round(|| {
        let start = Instant::now();
        for row in &rows {
            for _ in 0..REPS {
                black_box(engine.forward_one(black_box(row), &mut infer));
            }
        }
        start.elapsed().as_nanos()
    });
    units.forward_fast_ns = ratio(forward_fast_ns, ops);
    units.train_step_us = train_step_us(net, &rows, &masks);
}

/// Runs `workload` traced and reports every per-layer metric.
///
/// # Errors
///
/// Fails if set-up fails; a failing job is counted, not returned.
pub fn run(workload: Workload, scale: Scale, seed: u64) -> Result<Report, Box<dyn Error>> {
    let mut report = Report::new();
    for &(name, _) in crate::metrics::PER_LAYER {
        report.set(name, 0.0);
    }
    let mut kernel = ReferenceKernel::new();
    let (mut prepared, setups) = Prepared::repeated(workload, scale, seed, &mut kernel)?;
    if workload.uses_policy() {
        report.set("nn.load_ms", median(&setups.load_ms));
    }
    if workload == Workload::SpearStream {
        report.set(
            "trace.stream_gen_ms",
            median(&setups.inputs_ms) / prepared.inputs.len() as f64,
        );
    }
    warm_up(&mut prepared, seed)?;
    let mut references = Vec::new();
    let sched_before = schedstat();
    let start = Instant::now();
    match workload {
        Workload::Train => {
            trace_training(&mut prepared, &mut report, &mut kernel, &mut references)?
        }
        Workload::MctsDag100 => {
            let tracer = TracingPolicy::new(RandomPolicy, false);
            trace_search(
                &mut prepared,
                tracer,
                &mut report,
                &mut kernel,
                &mut references,
            )?;
        }
        Workload::SpearDag100 | Workload::SpearStream => {
            let config = search_config(workload, prepared.scale);
            let policy = prepared.policy.clone().expect("policy-guided workload");
            let inner =
                DrlPolicy::with_cache_precision(policy, config.eval_cache, config.nn_precision);
            let tracer = TracingPolicy::new(inner, true);
            trace_search(
                &mut prepared,
                tracer,
                &mut report,
                &mut kernel,
                &mut references,
            )?;
        }
    }
    let runq = runq_wait_share(sched_before, schedstat(), start.elapsed().as_secs_f64());
    report.set("host.reference_ms", median(&references));
    report.set("host.runq_wait_share", runq);
    Ok(report)
}

/// Shares of the traced wall clock, one per layer.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    wall_s: f64,
    mcts_s: f64,
    cluster_s: f64,
    rl_s: f64,
    nn_s: f64,
    sched_s: f64,
    dag_s: f64,
}

impl Ledger {
    fn record(&self, report: &mut Report, untraced_wall_s: f64) {
        let share = |x: f64| ratio(x, self.wall_s);
        let attributed =
            self.mcts_s + self.cluster_s + self.rl_s + self.nn_s + self.sched_s + self.dag_s;
        report.set("mcts.self_share", share(self.mcts_s));
        report.set("cluster.self_share", share(self.cluster_s));
        report.set("rl.self_share", share(self.rl_s));
        report.set("nn.self_share", share(self.nn_s));
        report.set("sched.self_share", share(self.sched_s));
        report.set("dag.self_share", share(self.dag_s));
        report.set("ledger.unattributed_share", share(self.wall_s - attributed));
        report.set(
            "ledger.trace_overhead",
            ratio(self.wall_s, untraced_wall_s) - 1.0,
        );
        eprintln!(
            "[perfbench] ledger over {:.3} s traced ({:.3} s untraced): mcts {:.1}% cluster {:.1}% \
             rl {:.1}% nn {:.1}% sched {:.1}% dag {:.1}% unattributed {:.1}%",
            self.wall_s,
            untraced_wall_s,
            100.0 * share(self.mcts_s),
            100.0 * share(self.cluster_s),
            100.0 * share(self.rl_s),
            100.0 * share(self.nn_s),
            100.0 * share(self.sched_s),
            100.0 * share(self.dag_s),
            100.0 * share(self.wall_s - attributed)
        );
    }
}

fn trace_search<P: SearchPolicy>(
    prepared: &mut Prepared,
    mut tracer: TracingPolicy<P>,
    report: &mut Report,
    kernel: &mut ReferenceKernel,
    references: &mut Vec<f64>,
) -> Result<(), Box<dyn Error>> {
    let spec = cluster();
    let config = search_config(prepared.workload, prepared.scale);
    let jobs = Shape::of(prepared.workload, prepared.scale)
        .traced_jobs
        .min(prepared.inputs.len());

    // Untraced pass: the library call, for reference schedules and counts.
    let mut reference: Vec<Option<(Schedule, SearchStats, f64)>> = Vec::new();
    for index in 0..jobs {
        references.push(kernel.sample_ms());
        let scheduler = prepared.scheduler.as_mut().expect("search workload");
        let start = Instant::now();
        let result = match &prepared.inputs {
            Inputs::Dags(dags) => scheduler.schedule_with_stats(&dags[index], &spec),
            Inputs::Streams(streams) => scheduler.schedule_multi_with_stats(&streams[index], &spec),
            Inputs::Train { .. } => unreachable!("training is traced separately"),
        };
        let wall = start.elapsed().as_secs_f64();
        match result {
            Ok((schedule, stats)) => {
                let output = Output::Schedule(schedule);
                report.job(check(&prepared.inputs, index, &output));
                let Output::Schedule(schedule) = output else {
                    unreachable!()
                };
                reference.push(Some((schedule, stats, wall)));
            }
            Err(e) => {
                report.job(Some(format!("job {index}: {e}")));
                reference.push(None);
            }
        }
    }

    // Traced pass: the same jobs, driven decision by decision.
    let mut traces = Vec::new();
    let mut dags: Vec<&Dag> = Vec::new();
    for index in 0..jobs {
        let (dag, queue) = match &prepared.inputs {
            Inputs::Dags(d) => (&d[index], None),
            Inputs::Streams(s) => (s[index].union_dag(), Some(&s[index])),
            Inputs::Train { .. } => unreachable!("training is traced separately"),
        };
        dags.push(dag);
        references.push(kernel.sample_ms());
        tracer.job = index;
        let problem = match (
            drive(&mut tracer, &config, dag, &spec, queue),
            &reference[index],
        ) {
            (Ok((schedule, trace)), Some((expected, stats, _))) => {
                let problem = if &schedule != expected {
                    Some(format!(
                        "traced job {index} scheduled differently from the untraced run"
                    ))
                } else if !same_counts(&trace.stats, stats) {
                    Some(format!(
                        "traced job {index} searched differently from the untraced run"
                    ))
                } else {
                    None
                };
                traces.push(trace);
                problem
            }
            (Ok(_), None) => Some(format!(
                "traced job {index} succeeded where the untraced run failed"
            )),
            (Err(e), _) => Some(format!("traced job {index}: {e}")),
        };
        report.job(problem);
    }
    if traces.is_empty() {
        report.fail("no traced job completed");
        return Ok(());
    }

    // Unit costs on the kept states.
    let features: Vec<GraphFeatures> = dags.iter().map(|d| GraphFeatures::compute(d)).collect();
    let mut units = UnitCosts::default();
    cluster_costs(&tracer.kept, &dags, &mut units);
    let guided = tracer.timed;
    if guided {
        let policy = prepared.policy.as_ref().expect("policy-guided workload");
        policy_costs(&tracer.kept, &dags, &features, policy, &mut units);
    }

    // Exact counts from the untraced pass.
    let done = reference.iter().flatten().count().max(1) as f64;
    let sum = |f: fn(&SearchStats) -> u64| {
        reference
            .iter()
            .flatten()
            .map(|(_, s, _)| f(s))
            .sum::<u64>() as f64
    };
    let (iterations, steps, nodes) = (
        sum(|s| s.iterations),
        sum(|s| s.rollout_steps),
        sum(|s| s.tree_nodes as u64),
    );
    let (forwards, hits, misses) = (
        sum(|s| s.policy_inferences),
        sum(|s| s.cache_hits),
        sum(|s| s.cache_misses),
    );
    let (evictions, skips) = (sum(|s| s.cache_evictions), sum(|s| s.inference_skips));
    let untraced_wall: f64 = reference.iter().flatten().map(|(_, _, w)| w).sum();
    let decisions: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.decisions_ms.iter().copied())
        .collect();
    if beyond(&decisions, 99.0) < 10 {
        eprintln!("[perfbench] note: fewer than ten decisions beyond the p99");
    }

    report.set("mcts.decision_ms_p50", median(&decisions));
    report.set("mcts.decision_ms_p99", percentile(&decisions, 99.0));
    report.set("mcts.decisions_per_job", decisions.len() as f64 / done);
    report.set("mcts.iterations_per_s", ratio(iterations, untraced_wall));
    report.set("mcts.rollout_steps_per_job", steps / done);
    report.set("mcts.tree_nodes_per_job", nodes / done);
    report.set("cluster.step_ns", units.step_ns);
    report.set("cluster.clone_ns", units.clone_ns);
    report.set(
        "cluster.fingerprint_ns",
        if guided { units.fingerprint_ns } else { 0.0 },
    );
    report.set(
        "sched.estimate_ms",
        1e3 * median(&traces.iter().map(|t| t.estimate_s).collect::<Vec<_>>()),
    );
    report.set(
        "dag.graph_features_us",
        1e6 * median(&traces.iter().map(|t| t.features_s).collect::<Vec<_>>()),
    );
    if guided {
        report.set(
            "rl.policy_call_ns",
            ratio(tracer.policy_ns as f64, tracer.calls as f64),
        );
        report.set("rl.featurize_ns", units.featurize_ns);
        report.set("rl.cache_hit_rate", ratio(hits, hits + misses));
        report.set("rl.cache_evictions", evictions / done);
        report.set("rl.inference_skip_ratio", ratio(skips, tracer.calls as f64));
        report.set("nn.forward_ns", units.forward_ns);
        report.set("nn.forward_fast_ns", units.forward_fast_ns);
        report.set("nn.forwards_per_job", forwards / done);
        report.set("nn.train_step_us", units.train_step_us);
    }

    // The ledger: each layer's span minus its children's.
    let stepping_s = 1e-9 * (steps * units.step_ns + iterations * units.clone_ns);
    let probes_s = if guided {
        1e-9 * (hits + misses) * units.fingerprint_ns
    } else {
        0.0
    };
    let nn_s = if guided {
        1e-9 * forwards * units.forward_ns
    } else {
        0.0
    };
    let policy_s = 1e-9 * tracer.policy_ns as f64;
    let decisions_s = 1e-3 * decisions.iter().sum::<f64>();
    let ledger = Ledger {
        wall_s: traces.iter().map(|t| t.wall_s).sum(),
        mcts_s: decisions_s - policy_s - stepping_s,
        cluster_s: stepping_s + probes_s,
        rl_s: if guided {
            policy_s - nn_s - probes_s
        } else {
            0.0
        },
        nn_s,
        sched_s: traces.iter().map(|t| t.estimate_s).sum(),
        dag_s: traces.iter().map(|t| t.features_s).sum(),
    };
    ledger.record(report, untraced_wall);
    eprintln!(
        "[perfbench] {} traced: {} jobs, {} decisions ({} beyond p99), {} kept states, {} policy calls",
        prepared.workload.name(),
        traces.len(),
        decisions.len(),
        beyond(&decisions, 99.0),
        tracer.kept.len(),
        tracer.calls
    );
    Ok(())
}

/// The training workload: `train_policy` untraced, then its phases one
/// by one with a span each — the same calls in the same order on the
/// same RNG stream, so the curves must match.
fn trace_training(
    prepared: &mut Prepared,
    report: &mut Report,
    kernel: &mut ReferenceKernel,
    references: &mut Vec<f64>,
) -> Result<(), Box<dyn Error>> {
    let spec = cluster();
    let Inputs::Train { config, .. } = &prepared.inputs else {
        unreachable!("training workload");
    };
    let config = config.clone();

    references.push(kernel.sample_ms());
    let start = Instant::now();
    let expected = train_policy(&config, &spec);
    let untraced_wall = start.elapsed().as_secs_f64();
    let expected = match expected {
        Ok(trained) => {
            let output = Output::Trained(Box::new(trained));
            report.job(check(&prepared.inputs, 0, &output));
            let Output::Trained(trained) = output else {
                unreachable!()
            };
            trained
        }
        Err(e) => {
            report.job(Some(format!("pipeline: {e}")));
            return Ok(());
        }
    };

    references.push(kernel.sample_ms());
    let wall = Instant::now();
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let examples: Vec<Dag> = (0..config.num_examples)
        .map(|_| config.example_spec.generate(&mut rng))
        .collect();
    let mut dag_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut policy = match &config.hidden {
        Some(h) => PolicyNetwork::with_hidden(config.features.clone(), h, &mut rng),
        None => PolicyNetwork::new(config.features.clone(), &mut rng),
    };
    let init_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let dataset = pretrain::build_dataset(&policy, &examples, &spec)?;
    let dataset_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut opt = RmsProp::new(config.pretrain_alpha, 0.9, 1e-9);
    let pretrain_loss =
        pretrain::train(&mut policy, &dataset, &mut opt, &config.pretrain, &mut rng);
    let pretrain_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let accuracy = pretrain::accuracy(&policy, &dataset);
    let accuracy_s = start.elapsed().as_secs_f64();
    let mut trainer =
        ReinforceTrainer::with_learning_rate(config.reinforce.clone(), config.reinforce_alpha);
    let start = Instant::now();
    let with_features: Vec<(Dag, GraphFeatures)> = examples
        .iter()
        .map(|d| (d.clone(), GraphFeatures::compute(d)))
        .collect();
    dag_s += start.elapsed().as_secs_f64();
    let mut curve = Vec::new();
    let mut epochs_ms = Vec::new();
    for epoch in 0..config.reinforce.epochs {
        let start = Instant::now();
        curve.push(trainer.train_epoch(&mut policy, &with_features, &spec, epoch, &mut rng)?);
        epochs_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let problem = (curve != expected.curve
        || pretrain_loss != expected.pretrain_loss
        || accuracy != expected.pretrain_accuracy)
        .then(|| "traced pipeline trained differently from train_policy".to_owned());
    report.job(problem);

    let rows = dataset.features.len();
    let step_us = train_step_us(policy.net(), &dataset.features, &dataset.masks);
    let batch = config.pretrain.batch_size.max(1);
    let batches = (config.pretrain.epochs * rows.div_ceil(batch)) as f64;
    let nn_in_pretrain_s = 1e-6 * step_us * batches * (batch.min(rows) as f64 / 64.0);
    report.set("rl.expert_dataset_ms", dataset_s * 1e3);
    report.set(
        "rl.pretrain_epoch_ms",
        ratio(pretrain_s * 1e3, config.pretrain.epochs as f64),
    );
    report.set("rl.reinforce_epoch_ms", median(&epochs_ms));
    report.set("nn.train_step_us", step_us);
    let reinforce_s = 1e-3 * epochs_ms.iter().sum::<f64>();
    Ledger {
        wall_s,
        rl_s: dataset_s + pretrain_s + accuracy_s + reinforce_s - nn_in_pretrain_s,
        nn_s: init_s + nn_in_pretrain_s,
        dag_s,
        ..Ledger::default()
    }
    .record(report, untraced_wall);
    Ok(())
}
