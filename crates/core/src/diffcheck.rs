//! Differential schedule checking: one plan, its realized run, three
//! independent judges.
//!
//! Every scheduler in this reproduction emits a [`Schedule`], and every
//! paper comparison trusts that those schedules are feasible. This module
//! re-verifies each plan of a [`JobQueue`] — one DAG is the one-job queue
//! that arrives at time 0 — together with its execution by
//! [`execute_under_faults`], the one replay of a plan, under a
//! [`FaultPlan`] (the null plan when faults are off), **three independent
//! ways**, and flags any disagreement ([`check_faulty_run`];
//! [`check_schedule`] is its null-plan case):
//!
//! 1. declarative — [`Schedule::validate`] on the plan, with arrival
//!    gating, per-job JCT accounting and job-local re-validation, and a
//!    re-derivation of the whole run from the plan's pure fault draws;
//! 2. operational — an audited re-execution reproduces the run, no
//!    attempt starts before its planned start or off its planned machine,
//!    and under the null plan the run is the plan, placement for
//!    placement;
//! 3. occupancy — the plan and the run's failed and final attempts placed
//!    onto [`ResourceTimeline`] grids, one per machine, with the transfer
//!    window of every interval re-derived from the machine set.
//!
//! A plan and run all three accept are near-certainly feasible; a case
//! they *disagree* on exposes a bookkeeping bug in one of the three cores
//! (the epsilon-drift fixture under `tests/fixtures/` is exactly such a
//! case, found by this harness). The seeded fuzz corpus ([`corpus`])
//! crosses [`LayeredDagSpec`] workloads — single DAGs and Poisson streams,
//! on one box and on seeded multi-machine clusters — with every scheduler
//! in the workspace, including an epsilon-jitter mode that places demands
//! within one [`FIT_EPSILON`] of the capacity boundary, where the
//! accounting bugs live; the [`fault_corpus`] crosses the roster with the
//! EXPERIMENTS.md fault rates. [`CaseSpec::run_on`] runs either kind of
//! case. Deterministic retry exhaustion is a legal outcome, but any
//! nondeterminism in it is a finding. Failing cases shrink to minimized
//! committed fixtures ([`Fixture`]): machines first, then the workload
//! ([`shrink_queue`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use spear_cluster::{
    execute_under_faults, ClusterError, ClusterSpec, FailedRun, FaultOutcome, FaultPlan, FaultyRun,
    JobQueue, MachineSet, ResourceTimeline, Schedule, SpearError, TransferMode,
};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::{Dag, DagBuilder, ResourceVec, Task, TaskId, FIT_EPSILON};
use spear_mcts::{MctsConfig, MctsScheduler};
use spear_rl::{FeatureConfig, PolicyNetwork};
use spear_sched::{
    BnBConfig, BnBScheduler, CpScheduler, Graphene, RandomScheduler, Scheduler, SjfScheduler,
    TetrisScheduler,
};
use spear_trace::{ArrivalProcess, ArrivalStreamSpec, FaultProfile, JobSource};

/// Every scheduler the differential fuzzer exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// Tetris-style packing-score list scheduler.
    Tetris,
    /// Shortest-job-first list scheduler.
    Sjf,
    /// Critical-path list scheduler.
    Cp,
    /// Seeded random list scheduler.
    Random,
    /// Graphene-style troublesome-task packing.
    Graphene,
    /// Branch-and-bound exact search (node-capped).
    BnB,
    /// Pure MCTS with random rollouts.
    MctsPure,
    /// MCTS guided by the greedy packing heuristic.
    MctsHeuristic,
    /// MCTS guided by an (untrained) DRL policy — the Spear configuration.
    MctsDrl,
    /// DRL-guided MCTS with the inference cache disabled, so the fuzzer
    /// exercises the uncached inference path (which must produce the same
    /// feasible schedules as the cached one).
    MctsDrlNoCache,
}

impl SchedulerKind {
    /// The full roster, in fuzzing order.
    pub const ALL: [SchedulerKind; 10] = [
        SchedulerKind::Tetris,
        SchedulerKind::Sjf,
        SchedulerKind::Cp,
        SchedulerKind::Random,
        SchedulerKind::Graphene,
        SchedulerKind::BnB,
        SchedulerKind::MctsPure,
        SchedulerKind::MctsHeuristic,
        SchedulerKind::MctsDrl,
        SchedulerKind::MctsDrlNoCache,
    ];

    /// Stable name, used in fixture files and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Tetris => "tetris",
            SchedulerKind::Sjf => "sjf",
            SchedulerKind::Cp => "cp",
            SchedulerKind::Random => "random",
            SchedulerKind::Graphene => "graphene",
            SchedulerKind::BnB => "bnb",
            SchedulerKind::MctsPure => "mcts-pure",
            SchedulerKind::MctsHeuristic => "mcts-heuristic",
            SchedulerKind::MctsDrl => "mcts-drl",
            SchedulerKind::MctsDrlNoCache => "mcts-drl-nocache",
        }
    }

    /// Inverse of [`SchedulerKind::name`].
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds a fresh, deterministic instance. Search budgets are kept
    /// small: the fuzzer cares about schedule *feasibility*, not quality,
    /// and small budgets buy more cases per CI second.
    pub fn build(self, seed: u64, dims: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Tetris => Box::new(TetrisScheduler::new()),
            SchedulerKind::Sjf => Box::new(SjfScheduler::new()),
            SchedulerKind::Cp => Box::new(CpScheduler::new()),
            SchedulerKind::Random => Box::new(RandomScheduler::seeded(seed)),
            SchedulerKind::Graphene => Box::new(Graphene::new()),
            SchedulerKind::BnB => {
                Box::new(BnBScheduler::with_config(BnBConfig { max_nodes: 20_000 }))
            }
            SchedulerKind::MctsPure | SchedulerKind::MctsHeuristic => {
                let config = MctsConfig {
                    initial_budget: 32,
                    min_budget: 8,
                    seed,
                    ..MctsConfig::default()
                };
                Box::new(if self == SchedulerKind::MctsPure {
                    MctsScheduler::pure(config)
                } else {
                    MctsScheduler::heuristic(config)
                })
            }
            SchedulerKind::MctsDrl | SchedulerKind::MctsDrlNoCache => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                let policy =
                    PolicyNetwork::with_hidden(FeatureConfig::small(dims), &[16], &mut rng);
                Box::new(MctsScheduler::drl(
                    MctsConfig {
                        initial_budget: 16,
                        min_budget: 4,
                        seed,
                        eval_cache: self != SchedulerKind::MctsDrlNoCache,
                        ..MctsConfig::default()
                    },
                    policy,
                ))
            }
        }
    }
}

/// The three independent verdicts on a plan and its realized run.
/// `Ok(())` means the judge accepts; `Err` carries a human-readable
/// reason.
#[derive(Debug, Clone, PartialEq)]
pub struct TriCheck {
    /// Verdict of the declarative judge: [`Schedule::validate`] and the
    /// re-derivation of the run from the fault draws.
    pub validate: Result<(), String>,
    /// Verdict of the operational judge: the audited re-execution.
    pub sim_replay: Result<(), String>,
    /// Verdict of the occupancy judge: the [`ResourceTimeline`] grids.
    pub timeline_replay: Result<(), String>,
}

impl TriCheck {
    /// All three judges accept the schedule.
    pub fn all_ok(&self) -> bool {
        self.validate.is_ok() && self.sim_replay.is_ok() && self.timeline_replay.is_ok()
    }

    /// The judges disagree — the interesting case: at least one accepts
    /// what another rejects, so one of the three accounting cores is
    /// wrong.
    pub fn is_disagreement(&self) -> bool {
        let oks = [
            self.validate.is_ok(),
            self.sim_replay.is_ok(),
            self.timeline_replay.is_ok(),
        ];
        oks.iter().any(|&o| o) && oks.iter().any(|&o| !o)
    }

    /// One-line verdict summary, e.g. `validate=ok sim=ok timeline=ok`.
    pub fn summary(&self) -> String {
        let v = |r: &Result<(), String>| match r {
            Ok(()) => "ok".to_owned(),
            Err(e) => format!("FAIL({e})"),
        };
        format!(
            "validate={} sim={} timeline={}",
            v(&self.validate),
            v(&self.sim_replay),
            v(&self.timeline_replay)
        )
    }
}

/// The null-plan case of [`check_faulty_run`]: executes `schedule`, a
/// schedule of `queue`'s union DAG, under [`FaultPlan::none()`] and judges
/// the plan and its run. An execution that fails is the operational
/// judge's rejection; the other two then judge the plan alone.
pub fn check_schedule(queue: &JobQueue, spec: &ClusterSpec, schedule: &Schedule) -> TriCheck {
    let none = FaultPlan::none();
    let run = execute_under_faults(queue, spec, schedule, &none, None);
    judge(queue, spec, schedule, &none, run.as_ref())
}

/// Runs the three judges on the fault-free plan `planned` of `queue` and
/// on `run`, its complete execution under `plan` (no horizon — every task
/// placed):
///
/// 1. **validate** — [`Schedule::validate`] on the plan with arrival
///    gating, per-job JCT accounting and job-local re-validation, then a
///    declarative re-derivation of the whole run from the plan's pure
///    draws: completeness, arrival gating, per-attempt durations, every
///    failed attempt matching a `Fail` draw exactly, the retry budget,
///    re-queue ordering, precedence and transfer windows on realized
///    times, capacity event sweeps (the cluster's and each machine's) over
///    final *and* failed occupancy intervals, the fault counters and the
///    JCT report;
/// 2. **sim replay** — a fresh audited re-execution
///    ([`execute_under_faults`]) reproduces the recorded run bit for bit,
///    every attempt runs on its planned machine no earlier than its
///    planned start, and under the null plan the run is the plan;
/// 3. **timeline replay** — the plan, then the run's failed and final
///    attempts with their drawn durations, placed onto their machine's
///    [`ResourceTimeline`] occupancy grid, each interval clear of its
///    parents' transfer windows.
pub fn check_faulty_run(
    queue: &JobQueue,
    spec: &ClusterSpec,
    planned: &Schedule,
    plan: &FaultPlan,
    run: &FaultyRun,
) -> TriCheck {
    judge(queue, spec, planned, plan, Ok(run))
}

/// The tri-judge over `planned` and the result of executing it under
/// `plan`: a failed execution is the operational judge's rejection, and
/// the declarative and occupancy judges then judge the plan alone.
fn judge(
    queue: &JobQueue,
    spec: &ClusterSpec,
    planned: &Schedule,
    plan: &FaultPlan,
    run: Result<&FaultyRun, &SpearError>,
) -> TriCheck {
    let dag = queue.union_dag();
    let on_plan = |e: String| format!("plan: {e}");
    let declarative = validate(queue, spec, planned).map_err(on_plan);
    let grids = occupancy(dag, spec, &FaultPlan::none(), planned, &[], |_| 1).map_err(on_plan);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            return TriCheck {
                validate: declarative,
                sim_replay: Err(format!("execution: {e}")),
                timeline_replay: grids,
            }
        }
    };
    let on_run = |e: String| format!("run: {e}");
    let attempts = |t: TaskId| run.attempts.get(t.index()).copied().unwrap_or(0);
    TriCheck {
        validate: declarative.and_then(|()| validate_run(queue, spec, plan, run).map_err(on_run)),
        sim_replay: replay(queue, spec, planned, plan, run),
        timeline_replay: grids.and_then(|()| {
            occupancy(dag, spec, plan, &run.schedule, &run.failed_runs, attempts).map_err(on_run)
        }),
    }
}

/// The declarative judge of a plan: [`Schedule::validate`] on the union
/// DAG, arrival gating, per-job JCT accounting against
/// [`JobQueue::jct_report`], and — on a single box — every per-job
/// sub-schedule re-validated against its own job DAG. (Transfer payloads
/// are seeded by union task ids, so on a multi-machine cluster a job-local
/// re-check would read other edges' payloads; the union check covers
/// transfers there.)
fn validate(queue: &JobQueue, spec: &ClusterSpec, schedule: &Schedule) -> Result<(), String> {
    schedule
        .validate(queue.union_dag(), spec)
        .map_err(|e| e.to_string())?;
    for span in queue.spans() {
        for local in 0..span.tasks {
            let task = TaskId::new(span.first_task + local);
            let p = schedule
                .placement_of(task)
                .ok_or_else(|| format!("job {}: task {task} is unplaced", span.job))?;
            if p.start < span.arrival {
                return Err(format!(
                    "job {}: task {task} starts at {} before the job arrives at {}",
                    span.job, p.start, span.arrival
                ));
            }
        }
    }
    let report = queue.jct_report(schedule);
    if report.unfinished() != 0 || report.completions().len() != queue.jobs() {
        return Err(format!(
            "report covers {} of {} jobs ({} unfinished) in a complete schedule",
            report.completions().len(),
            queue.jobs(),
            report.unfinished()
        ));
    }
    // Job-local ids carry no transfer payloads, so sub-schedules
    // re-validate on one machine only.
    let local = spec.num_machines() == 1;
    for (span, sub) in queue.spans().iter().zip(queue.per_job_schedules(schedule)) {
        if local {
            sub.validate(queue.job_dag(span.job), spec)
                .map_err(|e| format!("job {} sub-schedule: {e}", span.job))?;
        }
        let c = &report.completions()[span.job];
        let jct = sub.makespan() - span.arrival;
        if c.jct != jct {
            return Err(format!(
                "job {}: report says jct {} but the placements span {}",
                span.job, c.jct, jct
            ));
        }
    }
    Ok(())
}

/// The operational judge: an audited re-execution of `planned` under
/// `plan` ([`InvariantAuditor`](spear_cluster::InvariantAuditor) after
/// every step) reproduces `run` bit for bit; every attempt of the run
/// starts on its task's planned machine, no earlier than its planned
/// start; and under the null plan the run is the plan, placement for
/// placement.
fn replay(
    queue: &JobQueue,
    spec: &ClusterSpec,
    planned: &Schedule,
    plan: &FaultPlan,
    run: &FaultyRun,
) -> Result<(), String> {
    let reexec = execute_under_faults(queue, spec, planned, plan, None)
        .map_err(|e| format!("audited re-execution: {e}"))?;
    if reexec.schedule != run.schedule {
        return Err("re-executed placements diverge from the recorded run".to_owned());
    }
    if &reexec != run {
        return Err(format!(
            "re-executed accounting diverges: makespan {} vs {}, failures {} vs {}, \
             straggles {} vs {}, {} vs {} failed runs",
            reexec.makespan,
            run.makespan,
            reexec.failures,
            run.failures,
            reexec.straggles,
            run.straggles,
            reexec.failed_runs.len(),
            run.failed_runs.len()
        ));
    }
    let failed = run.failed_runs.iter().map(|f| (f.task, f.start, f.machine));
    let finals = run.schedule.placements().iter();
    for (task, start, machine) in failed.chain(finals.map(|p| (p.task, p.start, p.machine))) {
        let p = planned
            .placement_of(task)
            .ok_or_else(|| format!("task {task} runs but has no planned placement"))?;
        if start < p.start || machine != p.machine {
            return Err(format!(
                "task {task} starts at {start} on m{machine}, planned at {} on m{}",
                p.start, p.machine
            ));
        }
    }
    if plan.is_none() && run.schedule != *planned {
        let moved = planned
            .placements()
            .iter()
            .find(|p| run.schedule.placement_of(p.task) != Some(p));
        return Err(format!(
            "the null-plan run is not the plan (first moved placement: {moved:?})"
        ));
    }
    Ok(())
}

/// The occupancy judge on one realization of a plan: the final attempts
/// in `finals` (attempt index one below the task's count in `attempts`)
/// after the `failed` ones — the plan itself is the null plan's
/// realization, with no failures and one attempt each. Every attempt
/// interval must span the slots `plan` draws for it, fit the occupancy
/// already placed on its machine's [`ResourceTimeline`] (each with that
/// machine's own capacity) slot by slot, and start no earlier than each
/// parent's output reaches its machine: the parent's final finish plus the
/// transfer delay, re-derived from the [`MachineSet`] alone — seeded edge
/// bytes divided by link bandwidth. That derivation shares no code with
/// [`Schedule::validate`]'s edge loop or the simulator's gate, so a bug in
/// either shows up as a judge disagreement rather than a silent
/// agreement. Completeness is out of scope here.
fn occupancy(
    dag: &Dag,
    spec: &ClusterSpec,
    plan: &FaultPlan,
    finals: &Schedule,
    failed: &[FailedRun],
    attempts: impl Fn(TaskId) -> u32,
) -> Result<(), String> {
    let machines = spec.machines();
    let mut grids: Vec<ResourceTimeline> = machines
        .capacities()
        .iter()
        .map(|c| ResourceTimeline::new(c.clone()))
        .collect();
    let failed = failed
        .iter()
        .map(|f| Ok::<_, String>((f.task, f.attempt, f.start, f.end, f.machine)));
    let finals_iter = finals.placements().iter().map(|p| {
        let last = attempts(p.task)
            .checked_sub(1)
            .ok_or_else(|| format!("task {} is placed without a started attempt", p.task))?;
        Ok((p.task, last, p.start, p.finish, p.machine))
    });
    for interval in failed.chain(finals_iter) {
        let (task, attempt, start, end, machine) = interval?;
        let slots = plan.run_slots(task, attempt, dag.task(task).runtime());
        if end.checked_sub(start) != Some(slots) {
            return Err(format!(
                "task {task} spans [{start}, {end}) but attempt {attempt} occupies {slots} slots"
            ));
        }
        let tl = grids.get_mut(machine as usize).ok_or_else(|| {
            format!(
                "task {task} is placed on machine {machine} of a {}-machine cluster",
                spec.num_machines()
            )
        })?;
        let demand = dag.task(task).demand();
        if !tl.fits(demand, start, slots) {
            return Err(format!(
                "task {task} does not fit machine {machine}'s occupancy grid at [{start}, {end})"
            ));
        }
        tl.place(demand, start, slots);
        for &parent in dag.parents(task) {
            let Some(p) = finals.placement_of(parent) else {
                continue;
            };
            let bytes = machines.edge_bytes(parent.index(), task.index());
            let delay = machines.transfer_delay(bytes, p.machine, machine);
            if start < p.finish.saturating_add(delay) {
                return Err(format!(
                    "task {task} starts at {start} inside the transfer window of its parent \
                     {parent} (finish {} + {bytes} bytes over the m{}->m{machine} link = {delay} \
                     slots)",
                    p.finish, p.machine
                ));
            }
        }
    }
    match finals.placements().iter().map(|p| p.finish).max() {
        Some(latest) if latest != finals.makespan() => Err(format!(
            "latest finish {latest} != recorded makespan {}",
            finals.makespan()
        )),
        _ => Ok(()),
    }
}

/// One fuzz case: a seeded workload — one DAG, or a Poisson stream of
/// `jobs` DAGs — on one box or a seeded multi-machine cluster, crossed
/// with a scheduler.
///
/// A multi-machine cluster's capacities taper (machine 0 is always
/// full-size, so every task admissible on a unit cluster stays admissible)
/// and its bandwidth matrix is deterministically non-uniform in the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Seed for the workload, the network and the scheduler.
    pub seed: u64,
    /// Jobs in the stream; 1 is the paper's single DAG arriving at 0.
    pub jobs: usize,
    /// Tasks per job DAG.
    pub num_tasks: usize,
    /// Resource dimensions.
    pub dims: usize,
    /// Mean Poisson inter-arrival gap in time slots (streams only).
    pub mean_gap: f64,
    /// Machines; 1 is the single unit box.
    pub machines: usize,
    /// Base link bandwidth in bytes per slot (multi-machine only).
    pub bandwidth: u64,
    /// How cross-machine transfers are routed (multi-machine only).
    pub mode: TransferMode,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// Snap demands next to the capacity boundary (within one
    /// `FIT_EPSILON`) to probe the epsilon-admission region.
    pub epsilon_jitter: bool,
    /// Execution-time faults for [`CaseSpec::run_on`], frozen to a plan
    /// by the case seed. The scheduler always plans against the
    /// fault-free workload — faults bite at execution time — so every
    /// roster member runs unchanged.
    pub faults: FaultProfile,
}

impl CaseSpec {
    /// The paper's setting: one DAG of `num_tasks` tasks on a unit box.
    pub fn single(seed: u64, num_tasks: usize, dims: usize, scheduler: SchedulerKind) -> Self {
        CaseSpec {
            seed,
            jobs: 1,
            num_tasks,
            dims,
            mean_gap: 0.0,
            machines: 1,
            bandwidth: 1,
            mode: TransferMode::Direct,
            scheduler,
            epsilon_jitter: false,
            faults: FaultProfile::none(),
        }
    }

    /// Generates the case's job queue deterministically from its seed.
    ///
    /// # Panics
    ///
    /// Panics if the case parameters are degenerate (zero jobs/tasks).
    pub fn queue(&self) -> JobQueue {
        let layered = LayeredDagSpec {
            num_tasks: self.num_tasks,
            dims: self.dims,
            ..LayeredDagSpec::paper_training()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut jobs = if self.jobs == 1 {
            vec![(0, layered.generate(&mut rng))]
        } else {
            ArrivalStreamSpec {
                jobs: self.jobs,
                process: ArrivalProcess::Poisson {
                    mean_gap: self.mean_gap,
                },
                source: JobSource::Layered(layered),
            }
            .generate(self.seed)
            .expect("layered source is total")
        };
        if self.epsilon_jitter {
            for (_, dag) in &mut jobs {
                *dag = jitter_demands(dag, &mut rng);
            }
        }
        JobQueue::new(jobs).expect("generated jobs form a valid queue")
    }

    /// The cluster the case runs on: a unit box, or the seeded machine set.
    ///
    /// # Panics
    ///
    /// Panics only on degenerate parameters (zero bandwidth).
    pub fn cluster(&self) -> ClusterSpec {
        let n = self.machines;
        if n <= 1 {
            return ClusterSpec::unit(self.dims);
        }
        // Capacities taper: 1.0, 0.75, 0.5, 0.75, 1.0, ... per dimension.
        let tapers = [1.0, 0.75, 0.5, 0.75];
        let capacities: Vec<ResourceVec> = (0..n)
            .map(|i| {
                let scale = tapers[i % tapers.len()];
                ResourceVec::from_slice(&vec![scale; self.dims])
            })
            .collect();
        // Non-uniform links: the (i, j) link gets 1x or 2x the base
        // bandwidth, deterministically in (seed, i, j).
        let bandwidth: Vec<u64> = (0..n * n)
            .map(|ij| self.bandwidth * (1 + (self.seed.wrapping_add(ij as u64)) % 2))
            .collect();
        let machines = MachineSet::new(capacities, bandwidth, self.mode, self.seed, 8)
            .expect("case parameters form a valid machine set");
        ClusterSpec::hetero(machines).expect("machine set is valid")
    }

    /// The frozen fault plan of this case (the null plan without faults).
    pub fn plan(&self) -> FaultPlan {
        self.faults.plan(self.seed)
    }

    /// Plans `queue` (the case's workload, or a shrunk one) with the
    /// case's scheduler against the fault-free cluster, executes the plan
    /// under the case's fault plan and judges the plan and its run three
    /// ways ([`check_faulty_run`]).
    ///
    /// `Ok(None)` means the execution exhausted a task's retry budget — a
    /// legal outcome, but only a *deterministic* one: the case re-executes
    /// and demands the identical typed error, reporting any divergence as
    /// a finding.
    ///
    /// # Errors
    ///
    /// The scheduler's own failure or nondeterministic exhaustion — both
    /// findings.
    pub fn run_on(&self, queue: &JobQueue) -> Result<Option<TriCheck>, String> {
        let spec = self.cluster();
        let planned = self
            .scheduler
            .build(self.seed, self.dims)
            .schedule_multi(queue, &spec)
            .map_err(|e| format!("{} failed to schedule: {e}", self.scheduler.name()))?;
        let plan = self.plan();
        let execute = || execute_under_faults(queue, &spec, &planned, &plan, None);
        match execute() {
            Err(SpearError::Cluster(ClusterError::RetriesExhausted { task, attempts })) => {
                match execute() {
                    Err(SpearError::Cluster(ClusterError::RetriesExhausted {
                        task: t2,
                        attempts: a2,
                    })) if (t2, a2) == (task, attempts) => Ok(None),
                    other => Err(format!(
                        "retry exhaustion is nondeterministic: task {task} after {attempts} \
                         attempts, then {other:?}"
                    )),
                }
            }
            run => Ok(Some(judge(queue, &spec, &planned, &plan, run.as_ref()))),
        }
    }

    /// [`CaseSpec::run_on`] the case's own workload.
    ///
    /// # Errors
    ///
    /// As [`CaseSpec::run_on`].
    pub fn run(&self) -> Result<Option<TriCheck>, String> {
        self.run_on(&self.queue())
    }

    /// Short label for reports, e.g. `tetris/n25/seed42/jitter` or
    /// `cp/j4xn6/m3/bw4/via-master/seed7`.
    pub fn label(&self) -> String {
        let mut label = format!("{}/", self.scheduler.name());
        if self.jobs > 1 {
            label += &format!("j{}x", self.jobs);
        }
        label += &format!("n{}", self.num_tasks);
        if self.machines > 1 {
            let mode = match self.mode {
                TransferMode::Direct => "direct",
                TransferMode::ViaMaster => "via-master",
            };
            label += &format!("/m{}/bw{}/{mode}", self.machines, self.bandwidth);
        }
        label += &format!("/seed{}", self.seed);
        if self.epsilon_jitter {
            label += "/jitter";
        }
        if !self.faults.is_none() {
            label += &format!("/f{:.2}", self.faults.fail_rate);
        }
        label
    }
}

/// Rebuilds `dag` with every demand snapped to a multiple of 1/8 of unit
/// capacity plus a few ±3e-10 steps of jitter — right up against the
/// `FIT_EPSILON` admission boundary where the accounting bugs live, yet
/// never *on* it: sums of jitter offsets are integer multiples of 3e-10,
/// and no such multiple equals `FIT_EPSILON` (1e-9), so every feasibility
/// comparison has at least 1e-10 of margin — far above f64 rounding error
/// at magnitude 1 — and the three judges' different summation orders
/// cannot produce spurious knife-edge disagreements.
fn jitter_demands<R: Rng + ?Sized>(dag: &Dag, rng: &mut R) -> Dag {
    let mut b = DagBuilder::new(dag.dims());
    for t in dag.tasks() {
        let demand: Vec<f64> = t
            .demand()
            .as_slice()
            .iter()
            .map(|&d| {
                let snapped = ((d * 8.0).round() / 8.0).clamp(0.125, 1.0);
                let steps = rng.gen_range(0u32..6) as f64 - 2.0;
                // Cap below capacity + FIT_EPSILON (at 3 steps exactly) so
                // the task stays admissible on a unit cluster.
                (snapped + steps * 3e-10).min(1.0 + 0.9 * FIT_EPSILON)
            })
            .collect();
        b.add_task(Task::new(t.runtime(), ResourceVec::from_slice(&demand)));
    }
    for e in dag.edges() {
        b.add_edge(e.from, e.to).expect("edges of a valid dag");
    }
    b.build().expect("jittering preserves the dag structure")
}

/// The seeded fuzz corpus: `count` cases cycling the full scheduler roster
/// through four interleaved families, in every eight cases five single
/// DAGs on one box, then one job stream on one box, one single DAG on a
/// 2–3-machine cluster and one job stream on a 2–3-machine cluster.
/// Case `j` of a family keeps the same parameters whatever `count` is.
/// Deterministic in `base_seed`, so CI replays the exact same matrix.
pub fn corpus(count: usize, base_seed: u64) -> Vec<CaseSpec> {
    interleave(count, &[0, 0, 0, 0, 0, 1, 2, 3])
        .map(|(family, j)| family_case(family, j, base_seed))
        .collect()
}

/// `(family, j)` of each of `count` cases cycling through `pattern`: the
/// i-th case is the j-th of its family, whatever `count` is.
fn interleave(count: usize, pattern: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut next = [0usize; 4];
    (0..count).map(move |i| {
        let family = pattern[i % pattern.len()];
        next[family] += 1;
        (family, next[family] - 1)
    })
}

/// Case `j` of corpus family `family` (0–3, see [`corpus`]).
fn family_case(family: usize, j: usize, base_seed: u64) -> CaseSpec {
    let seed = base_seed.wrapping_add(j as u64);
    let scheduler = SchedulerKind::ALL[j % SchedulerKind::ALL.len()];
    let gaps = [2.0, 6.0, 12.0];
    let bandwidths = [1u64, 4, 16];
    let mode = if (j / 2).is_multiple_of(2) {
        TransferMode::Direct
    } else {
        TransferMode::ViaMaster
    };
    match family {
        // Single DAGs of mixed sizes, alternating plain and
        // epsilon-jittered demands.
        0 => CaseSpec {
            epsilon_jitter: j % 2 == 1,
            ..CaseSpec::single(seed, [8, 14, 25][j % 3], 1 + (j / 3) % 2, scheduler)
        },
        // Poisson streams of mixed load.
        1 => CaseSpec {
            jobs: 3 + j % 3,
            mean_gap: gaps[j % 3],
            ..CaseSpec::single(seed, 6 + 2 * (j % 2), 1 + (j / 3) % 2, scheduler)
        },
        // Single DAGs on multi-machine clusters, both transfer
        // modes, mixed bandwidths.
        2 => CaseSpec {
            machines: 2 + j % 2,
            bandwidth: bandwidths[j % 3],
            mode,
            ..CaseSpec::single(seed, [6, 10, 14][j % 3], 1 + (j / 3) % 2, scheduler)
        },
        // Streams on multi-machine clusters.
        _ => CaseSpec {
            jobs: 3 + j % 3,
            mean_gap: gaps[j % 3],
            machines: 2 + j % 2,
            bandwidth: bandwidths[j % 3],
            mode,
            ..CaseSpec::single(seed, 6, 1 + (j / 3) % 2, scheduler)
        },
    }
}

/// The declarative judge of a run: re-derives the entire run from the
/// plan's pure per-(task, attempt) draws and checks the recorded intervals
/// and counters against that derivation.
fn validate_run(
    queue: &JobQueue,
    spec: &ClusterSpec,
    plan: &FaultPlan,
    run: &FaultyRun,
) -> Result<(), String> {
    let dag = queue.union_dag();
    if run.truncated {
        return Err("the run was cut short by a horizon".to_owned());
    }
    if run.attempts.len() != dag.len() {
        return Err(format!(
            "attempts vector covers {} of {} tasks",
            run.attempts.len(),
            dag.len()
        ));
    }
    // 1. Completeness, the retry budget, and per-placement durations
    // against the final attempt's draw.
    let mut seen = vec![false; dag.len()];
    for p in run.schedule.placements() {
        let i = p.task.index();
        if i >= dag.len() || seen[i] {
            return Err(format!(
                "duplicate or out-of-range placement for task {}",
                p.task
            ));
        }
        seen[i] = true;
        let attempts = run.attempts[i];
        if attempts == 0 {
            return Err(format!("task {} is placed but started no attempt", p.task));
        }
        if attempts > plan.max_attempts() {
            return Err(format!(
                "task {} started {attempts} attempts over the budget of {}",
                p.task,
                plan.max_attempts()
            ));
        }
        let runtime = dag.task(p.task).runtime();
        let last = attempts - 1;
        if matches!(
            plan.outcome(p.task, last, runtime),
            FaultOutcome::Fail { .. }
        ) {
            return Err(format!(
                "task {}: final attempt {last} is a failure draw yet the run completed it",
                p.task
            ));
        }
        let slots = plan.run_slots(p.task, last, runtime);
        if p.finish.checked_sub(p.start) != Some(slots) {
            return Err(format!(
                "task {} spans [{}, {}) but attempt {last} occupies {slots} slots",
                p.task, p.start, p.finish
            ));
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!("task {missing} never completed in a full run"));
    }
    // 2. Failed attempts: every non-final attempt of every task, exactly
    // once, each interval matching its `Fail` draw, and the re-queue
    // ordering (an attempt begins only after the previous one frees its
    // slots; the final attempt begins after the last failure).
    let mut failed: Vec<Vec<(u32, u64, u64)>> = vec![Vec::new(); dag.len()];
    for f in &run.failed_runs {
        if f.task.index() >= dag.len() {
            return Err(format!("failed run of out-of-range task {}", f.task));
        }
        failed[f.task.index()].push((f.attempt, f.start, f.end));
    }
    for (i, mut runs) in failed.into_iter().enumerate() {
        let task = TaskId::new(i);
        let runtime = dag.task(task).runtime();
        let attempts = run.attempts[i];
        runs.sort_unstable_by_key(|&(a, _, _)| a);
        if runs.len() as u32 != attempts - 1 {
            return Err(format!(
                "task {task}: {} failed attempts recorded for {attempts} started attempts",
                runs.len()
            ));
        }
        let mut prev_end = 0u64;
        for (k, &(attempt, start, end)) in runs.iter().enumerate() {
            if attempt as usize != k {
                return Err(format!("task {task}: failed attempts skip index {k}"));
            }
            let after = match plan.outcome(task, attempt, runtime) {
                FaultOutcome::Fail { after } => after,
                _ => {
                    return Err(format!(
                        "task {task}: attempt {attempt} is recorded failed but draws no failure"
                    ))
                }
            };
            if end.checked_sub(start) != Some(after) {
                return Err(format!(
                    "task {task}: failed attempt {attempt} spans [{start}, {end}) \
                     but aborts after {after} slots"
                ));
            }
            if start < prev_end {
                return Err(format!(
                    "task {task}: attempt {attempt} starts at {start} \
                     before the previous attempt frees at {prev_end}"
                ));
            }
            prev_end = end;
        }
        let p = run
            .schedule
            .placement_of(task)
            .expect("completeness checked above");
        if p.start < prev_end {
            return Err(format!(
                "task {task}: final attempt starts at {} before the last failure frees at \
                 {prev_end}",
                p.start
            ));
        }
    }
    // 3. Arrivals, precedence and transfers on realized times: no attempt
    // (failed or final) may begin before its job arrives, nor a child's
    // before the parent's completing attempt finishes and its output
    // reaches the attempt's machine.
    for span in queue.spans() {
        let tasks = span.first_task..span.first_task + span.tasks;
        let early = run
            .failed_runs
            .iter()
            .map(|f| (f.task, f.start))
            .chain(run.schedule.placements().iter().map(|p| (p.task, p.start)))
            .find(|&(t, start)| tasks.contains(&t.index()) && start < span.arrival);
        if let Some((task, start)) = early {
            return Err(format!(
                "task {task} begins at {start} before job {} arrives at {}",
                span.job, span.arrival
            ));
        }
    }
    let machines = spec.machines();
    let attempts_of = |task: TaskId| {
        let failed = run.failed_runs.iter().filter(move |f| f.task == task);
        failed.map(|f| (f.start, f.machine)).chain(
            run.schedule
                .placement_of(task)
                .map(|p| (p.start, p.machine)),
        )
    };
    for e in dag.edges() {
        let parent = run
            .schedule
            .placement_of(e.from)
            .expect("completeness checked above");
        for (start, machine) in attempts_of(e.to) {
            let bytes = machines.edge_bytes(e.from.index(), e.to.index());
            let delay = machines.transfer_delay(bytes, parent.machine, machine);
            if start < parent.finish.saturating_add(delay) {
                return Err(format!(
                    "task {} begins at {start} on m{machine} before its parent {} finishes at \
                     {} on m{} plus {delay} transfer slots",
                    e.to, e.from, parent.finish, parent.machine
                ));
            }
        }
    }
    // 4. Capacity, via event sweeps over final *and* failed occupancy
    // intervals — failed attempts hold resources until they abort, so
    // they are part of the same constraint — for the cluster and for
    // each machine, with the arithmetic of `Schedule::validate`.
    let finals = run.schedule.placements().iter();
    let finals = finals.map(|p| (p.start, p.finish, p.task, p.machine));
    let failed = run.failed_runs.iter();
    let failed = failed.map(|f| (f.start, f.end, f.task, f.machine));
    spec.check_occupancy(dag, finals.chain(failed))
        .map_err(|e| format!("realized occupancy: {e}"))?;
    // 5. Fault accounting and the makespan.
    if run.failures != run.failed_runs.len() as u64 {
        return Err(format!(
            "failure counter {} != {} recorded failed runs",
            run.failures,
            run.failed_runs.len()
        ));
    }
    let straggles = run
        .schedule
        .placements()
        .iter()
        .filter(|p| {
            let last = run.attempts[p.task.index()] - 1;
            matches!(
                plan.outcome(p.task, last, dag.task(p.task).runtime()),
                FaultOutcome::Straggle { .. }
            )
        })
        .count() as u64;
    if run.straggles != straggles {
        return Err(format!(
            "straggle counter {} != {straggles} re-derived straggling attempts",
            run.straggles
        ));
    }
    let latest = run
        .schedule
        .placements()
        .iter()
        .map(|p| p.finish)
        .max()
        .unwrap_or(0);
    if run.makespan != latest || run.schedule.makespan() != latest {
        return Err(format!(
            "makespan {} (schedule {}) != latest finish {latest}",
            run.makespan,
            run.schedule.makespan()
        ));
    }
    if run.report != queue.jct_report(&run.schedule) {
        return Err("the JCT report disagrees with the realized placements".to_owned());
    }
    Ok(())
}

/// The seeded fault-injection corpus: `count` single-DAG cases cycling the
/// full roster over mixed job sizes and the EXPERIMENTS.md fault rates,
/// in every four cases three on one box (the [`corpus`]'s single DAGs
/// without jitter) and one on a 2–3-machine cluster (its multi-machine
/// DAGs). Case `j` of a family keeps the same parameters whatever `count`
/// is, so the one-box cases are the corpus's cases from before machines
/// joined it. Deterministic in `base_seed`.
pub fn fault_corpus(count: usize, base_seed: u64) -> Vec<CaseSpec> {
    let rates = [0.05, 0.10, 0.20];
    interleave(count, &[0, 0, 0, 2])
        .map(|(family, j)| CaseSpec {
            faults: FaultProfile::with_rate(rates[j % rates.len()]),
            epsilon_jitter: false,
            ..family_case(family, j, base_seed)
        })
        .collect()
}

/// A task of a committed regression [`Fixture`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixtureTask {
    /// Runtime in time slots.
    pub runtime: u64,
    /// Per-dimension resource demand.
    pub demand: Vec<f64>,
}

/// An edge of a committed regression [`Fixture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixtureEdge {
    /// Parent task index.
    pub from: usize,
    /// Child task index.
    pub to: usize,
}

/// One job of a job-stream [`Fixture`]: the next `tasks` tasks of the
/// fixture's task list, arriving at `arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixtureJob {
    /// Arrival time slot.
    pub arrival: u64,
    /// Number of tasks in the job.
    pub tasks: usize,
}

/// A minimized, self-contained regression case committed under
/// `tests/fixtures/`: the exact workload (tasks + edges, and for a job
/// stream its arrivals), the cluster, and which scheduler (with which
/// seed) exposes the disagreement. [`Fixture::verify`] re-runs the
/// scheduler — not a stored schedule — so a fixture keeps guarding the
/// code path after the underlying bug is fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fixture {
    /// Stable fixture name (also the file stem).
    pub name: String,
    /// What bug the fixture pins, in one or two sentences.
    pub description: String,
    /// [`SchedulerKind::name`] of the scheduler under test.
    pub scheduler: String,
    /// Seed handed to the scheduler.
    pub seed: u64,
    /// Cluster capacity per dimension.
    pub capacity: Vec<f64>,
    /// The tasks, in id order.
    pub tasks: Vec<FixtureTask>,
    /// The precedence edges.
    pub edges: Vec<FixtureEdge>,
    /// Heterogeneous machine set, when the fixture pins a multi-machine
    /// case; `None` (the default, so legacy fixtures parse) means the
    /// single-box cluster described by `capacity`.
    #[serde(default)]
    pub machines: Option<MachineSet>,
    /// The jobs of a job-stream witness, in queue order, partitioning the
    /// task list; empty (the default, so legacy fixtures parse) means the
    /// whole task list is one job arriving at 0.
    #[serde(default)]
    pub jobs: Vec<FixtureJob>,
}

impl Fixture {
    /// Reconstructs the DAG (a job stream's union DAG).
    ///
    /// # Panics
    ///
    /// Panics if the fixture encodes an invalid graph (hand-edited file).
    pub fn dag(&self) -> Dag {
        let dims = self.capacity.len();
        let mut b = DagBuilder::new(dims);
        for t in &self.tasks {
            b.add_task(Task::new(t.runtime, ResourceVec::from_slice(&t.demand)));
        }
        for e in &self.edges {
            b.add_edge(TaskId::new(e.from), TaskId::new(e.to))
                .expect("fixture edge must be valid");
        }
        b.build().expect("fixture must encode a valid dag")
    }

    /// Reconstructs the job queue.
    ///
    /// # Panics
    ///
    /// Panics if the jobs do not partition a valid workload.
    pub fn queue(&self) -> JobQueue {
        let dag = self.dag();
        if self.jobs.is_empty() {
            return JobQueue::single(dag).expect("fixture must encode a valid dag");
        }
        queue_of(&dag, &self.jobs)
    }

    /// Reconstructs the cluster spec (heterogeneous when the fixture
    /// stores a machine set).
    ///
    /// # Panics
    ///
    /// Panics if the stored capacity or machine set is invalid.
    pub fn cluster(&self) -> ClusterSpec {
        match &self.machines {
            Some(m) => {
                ClusterSpec::hetero(m.clone()).expect("fixture must encode a valid machine set")
            }
            None => ClusterSpec::new(ResourceVec::from_slice(&self.capacity))
                .expect("fixture must encode a valid capacity"),
        }
    }

    /// Re-runs the named scheduler on the fixture's workload and judges
    /// the schedule three ways.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler name is unknown or the scheduler fails.
    pub fn verify(&self) -> TriCheck {
        let kind = SchedulerKind::from_name(&self.scheduler)
            .unwrap_or_else(|| panic!("unknown scheduler {:?} in fixture", self.scheduler));
        let queue = self.queue();
        let spec = self.cluster();
        let schedule = kind
            .build(self.seed, spec.dims())
            .schedule_multi(&queue, &spec)
            .unwrap_or_else(|e| panic!("fixture scheduler {} failed: {e}", self.scheduler));
        check_schedule(&queue, &spec, &schedule)
    }

    /// Captures a concrete (workload, scheduler, seed) triple as a
    /// fixture.
    pub fn from_parts(
        name: &str,
        description: &str,
        scheduler: SchedulerKind,
        seed: u64,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Fixture {
        let dag = queue.union_dag();
        let bare = queue.jobs() == 1 && queue.span(0).arrival == 0;
        Fixture {
            name: name.to_owned(),
            description: description.to_owned(),
            scheduler: scheduler.name().to_owned(),
            seed,
            capacity: spec.capacity().as_slice().to_vec(),
            tasks: dag
                .tasks()
                .iter()
                .map(|t| FixtureTask {
                    runtime: t.runtime(),
                    demand: t.demand().as_slice().to_vec(),
                })
                .collect(),
            edges: dag
                .edges()
                .iter()
                .map(|e| FixtureEdge {
                    from: e.from.index(),
                    to: e.to.index(),
                })
                .collect(),
            // Any one-machine set is the single box of its capacity.
            machines: (spec.num_machines() > 1).then(|| spec.machines().clone()),
            jobs: if bare {
                Vec::new()
            } else {
                queue
                    .spans()
                    .iter()
                    .map(|s| FixtureJob {
                        arrival: s.arrival,
                        tasks: s.tasks,
                    })
                    .collect()
            },
        }
    }

    /// Serializes to pretty JSON (the committed fixture format; f64
    /// demands round-trip exactly through shortest-float formatting). A
    /// bare-DAG fixture omits its empty `jobs` list, so it serializes as
    /// before job streams existed.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    pub fn to_json(&self) -> String {
        let mut value = serde_json::to_value(self);
        if let (true, serde_json::Value::Obj(fields)) = (self.jobs.is_empty(), &mut value) {
            fields.retain(|(name, _)| name != "jobs");
        }
        serde_json::to_string_pretty(&value).expect("fixture serialization cannot fail")
    }

    /// Parses a fixture file.
    ///
    /// # Errors
    ///
    /// Returns the JSON parse error as a string.
    pub fn from_json(s: &str) -> Result<Fixture, String> {
        serde_json::from_str(s).map_err(|e| format!("{e:?}"))
    }
}

/// Shrinks a failing workload to a locally-minimal one: repeatedly try
/// removing one task (dropping its edges, and its job once empty), keeping
/// any removal after which `fails` still holds, until a full pass removes
/// nothing. Arrivals stay with their jobs. The predicate receives the
/// candidate queue and must return `true` while the bug still reproduces.
pub fn shrink_queue<F>(queue: &JobQueue, mut fails: F) -> JobQueue
where
    F: FnMut(&JobQueue) -> bool,
{
    let mut dag = queue.union_dag().clone();
    let mut jobs: Vec<FixtureJob> = queue
        .spans()
        .iter()
        .map(|s| FixtureJob {
            arrival: s.arrival,
            tasks: s.tasks,
        })
        .collect();
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < dag.len() && dag.len() > 1 {
            let candidate = remove_task(&dag, i);
            let mut candidate_jobs = jobs.clone();
            let mut first = 0;
            for (k, job) in jobs.iter().enumerate() {
                if i < first + job.tasks {
                    candidate_jobs[k].tasks -= 1;
                    break;
                }
                first += job.tasks;
            }
            candidate_jobs.retain(|job| job.tasks > 0);
            if fails(&queue_of(&candidate, &candidate_jobs)) {
                dag = candidate;
                jobs = candidate_jobs;
                removed_any = true;
                // Indices shifted; re-test the same position.
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return queue_of(&dag, &jobs);
        }
    }
}

/// Rebuilds the queue whose union DAG is `dag`, cut into `jobs`'
/// consecutive task blocks (edges never cross blocks).
fn queue_of(dag: &Dag, jobs: &[FixtureJob]) -> JobQueue {
    let mut first = 0;
    let pairs = jobs
        .iter()
        .map(|job| {
            let block = first..first + job.tasks;
            first += job.tasks;
            let mut b = DagBuilder::new(dag.dims());
            for t in &dag.tasks()[block.clone()] {
                b.add_task(t.clone());
            }
            for e in dag.edges() {
                if block.contains(&e.from.index()) {
                    b.add_edge(
                        TaskId::new(e.from.index() - block.start),
                        TaskId::new(e.to.index() - block.start),
                    )
                    .expect("edges stay inside their job");
                }
            }
            (job.arrival, b.build().expect("a job block is a valid dag"))
        })
        .collect();
    JobQueue::new(pairs).expect("job blocks form a valid queue")
}

/// Rebuilds `dag` without task `removed` (edges touching it are dropped;
/// later task ids shift down by one).
fn remove_task(dag: &Dag, removed: usize) -> Dag {
    let mut b = DagBuilder::new(dag.dims());
    for (i, t) in dag.tasks().iter().enumerate() {
        if i != removed {
            b.add_task(t.clone());
        }
    }
    let shift = |i: usize| if i > removed { i - 1 } else { i };
    for e in dag.edges() {
        let (f, t) = (e.from.index(), e.to.index());
        if f != removed && t != removed {
            b.add_edge(TaskId::new(shift(f)), TaskId::new(shift(t)))
                .expect("surviving edges stay acyclic");
        }
    }
    b.build().expect("removing a task preserves acyclicity")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_round_trip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_name("nope"), None);
    }

    #[test]
    fn a_clean_tetris_case_passes_three_ways() {
        let case = CaseSpec::single(7, 10, 2, SchedulerKind::Tetris);
        assert_eq!(case.label(), "tetris/n10/seed7");
        let tri = case.run().unwrap().unwrap();
        assert!(tri.all_ok(), "{}", tri.summary());
        assert!(!tri.is_disagreement());
    }

    #[test]
    fn a_corrupted_schedule_is_rejected_coherently() {
        // Two 0.6-demand tasks forced to overlap on a unit cluster: all
        // three judges must reject (capacity), i.e. no disagreement.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        let queue = JobQueue::single(b.build().unwrap()).unwrap();
        let spec = ClusterSpec::unit(1);
        let schedule = Schedule::from_placements(
            vec![
                spear_cluster::Placement::new(TaskId::new(0), 0, 2),
                spear_cluster::Placement::new(TaskId::new(1), 0, 2),
            ],
            2,
        );
        let tri = check_schedule(&queue, &spec, &schedule);
        assert!(tri.validate.is_err());
        assert!(tri.sim_replay.is_err());
        assert!(tri.timeline_replay.is_err());
        assert!(!tri.is_disagreement());
    }

    fn stream(seed: u64, jobs: usize, num_tasks: usize, dims: usize, mean_gap: f64) -> CaseSpec {
        CaseSpec {
            jobs,
            mean_gap,
            ..CaseSpec::single(seed, num_tasks, dims, SchedulerKind::Tetris)
        }
    }

    #[test]
    fn a_clean_multi_job_case_passes_three_ways() {
        let case = stream(5, 3, 6, 2, 4.0);
        assert_eq!(case.label(), "tetris/j3xn6/seed5");
        let queue = case.queue();
        assert_eq!(queue.jobs(), 3);
        let tri = case.run_on(&queue).unwrap().unwrap();
        assert!(tri.all_ok(), "{}", tri.summary());
    }

    #[test]
    fn an_early_start_multi_schedule_is_rejected() {
        // Schedule a job's task before the job arrives: the declarative
        // judge must flag arrival gating and the operational judge must
        // refuse (the arrival-aware executor cannot start the task early,
        // so the null-plan run is not the plan).
        let case = CaseSpec {
            scheduler: SchedulerKind::Sjf,
            ..stream(9, 2, 4, 1, 20.0)
        };
        let queue = case.queue();
        let spec = case.cluster();
        let late = queue.span(1);
        assert!(late.arrival > 0, "seed must produce a staggered stream");
        let schedule = SjfScheduler::new().schedule_multi(&queue, &spec).unwrap();
        let mut placements = schedule.placements().to_vec();
        // Pull every late-job task forward by its arrival offset.
        for p in &mut placements {
            if p.task.index() >= late.first_task {
                p.start = p.start.saturating_sub(late.arrival);
                p.finish = p.finish.saturating_sub(late.arrival);
            }
        }
        let makespan = placements.iter().map(|p| p.finish).max().unwrap();
        let corrupted = Schedule::from_placements(placements, makespan);
        let tri = check_schedule(&queue, &spec, &corrupted);
        assert!(tri.validate.is_err(), "{}", tri.summary());
        assert!(tri.sim_replay.is_err(), "{}", tri.summary());
    }

    #[test]
    fn corpus_is_deterministic_and_covers_the_roster() {
        let a = corpus(320, 1);
        assert_eq!(a, corpus(320, 1));
        // Four families: single DAGs and streams, on one box and on
        // multi-machine clusters, each crossing the whole roster.
        let families: [&dyn Fn(&CaseSpec) -> bool; 4] = [
            &|c| c.jobs == 1 && c.machines == 1,
            &|c| c.jobs > 1 && c.machines == 1,
            &|c| c.jobs == 1 && c.machines > 1,
            &|c| c.jobs > 1 && c.machines > 1,
        ];
        let sizes: Vec<usize> = families
            .iter()
            .map(|f| a.iter().filter(|c| f(c)).count())
            .collect();
        assert_eq!(sizes, [200, 40, 40, 40]);
        for family in families {
            for kind in SchedulerKind::ALL {
                assert!(
                    a.iter().any(|c| family(c) && c.scheduler == kind),
                    "{} missing",
                    kind.name()
                );
            }
            // A family's j-th case does not depend on the corpus size.
            let small: Vec<CaseSpec> = corpus(64, 1).into_iter().filter(|c| family(c)).collect();
            let large: Vec<CaseSpec> = a.iter().copied().filter(|c| family(c)).collect();
            assert_eq!(small[..], large[..small.len()]);
        }
        assert!(a.iter().any(|c| c.epsilon_jitter));
        assert!(a.iter().any(|c| !c.epsilon_jitter));
        assert!(a
            .iter()
            .any(|c| c.mode == TransferMode::Direct && c.machines > 1));
        assert!(a.iter().any(|c| c.mode == TransferMode::ViaMaster));
        assert!(a.iter().any(|c| c.machines == 2));
        assert!(a.iter().any(|c| c.machines == 3));
    }

    #[test]
    fn a_clean_hetero_case_passes_three_ways() {
        let case = CaseSpec {
            machines: 3,
            bandwidth: 2,
            ..CaseSpec::single(7, 10, 2, SchedulerKind::Tetris)
        };
        assert_eq!(case.label(), "tetris/n10/m3/bw2/direct/seed7");
        let tri = case.run().unwrap().unwrap();
        assert!(tri.all_ok(), "{}", tri.summary());
        assert!(!tri.is_disagreement());
    }

    #[test]
    fn streams_on_multi_machine_clusters_pass_three_ways() {
        // One roster pass over the corpus family that crosses arrival
        // streams with 2–3-machine clusters.
        let cases: Vec<CaseSpec> = corpus(80, 0x5EED)
            .into_iter()
            .filter(|c| c.jobs > 1 && c.machines > 1)
            .collect();
        assert_eq!(cases.len(), SchedulerKind::ALL.len());
        for case in cases {
            let tri = case.run().unwrap().unwrap();
            assert!(tri.all_ok(), "{}: {}", case.label(), tri.summary());
        }
    }

    #[test]
    fn a_transfer_violating_hetero_schedule_is_rejected_coherently() {
        // A two-task chain split across machines, with the child starting
        // the instant its parent finishes — ignoring the transfer window.
        // All three judges must re-derive the delay and reject.
        let mut b = DagBuilder::new(1);
        let parent = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let child = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        b.add_edge(parent, child).unwrap();
        let queue = JobQueue::single(b.build().unwrap()).unwrap();
        let machines = MachineSet::uniform(
            2,
            ResourceVec::from_slice(&[1.0]),
            1,
            TransferMode::Direct,
            3,
            8,
        )
        .unwrap();
        assert!(machines.edge_delay(0, 1, 0, 1) > 0);
        let spec = ClusterSpec::hetero(machines).unwrap();
        let schedule = Schedule::from_placements(
            vec![
                spear_cluster::Placement {
                    task: parent,
                    start: 0,
                    finish: 2,
                    machine: 0,
                },
                spear_cluster::Placement {
                    task: child,
                    start: 2,
                    finish: 4,
                    machine: 1,
                },
            ],
            4,
        );
        let tri = check_schedule(&queue, &spec, &schedule);
        assert!(tri.validate.is_err(), "{}", tri.summary());
        assert!(tri.sim_replay.is_err(), "{}", tri.summary());
        assert!(tri.timeline_replay.is_err(), "{}", tri.summary());
        assert!(!tri.is_disagreement());
    }

    #[test]
    fn hetero_fixture_round_trips_the_machine_set() {
        let case = CaseSpec {
            machines: 2,
            bandwidth: 4,
            mode: TransferMode::ViaMaster,
            ..CaseSpec::single(11, 6, 1, SchedulerKind::Sjf)
        };
        let fixture = Fixture::from_parts(
            "hetero-round-trip",
            "serialization test",
            case.scheduler,
            case.seed,
            &case.queue(),
            &case.cluster(),
        );
        let parsed = Fixture::from_json(&fixture.to_json()).unwrap();
        assert_eq!(parsed, fixture);
        assert_eq!(parsed.cluster().num_machines(), 2);
        let tri = parsed.verify();
        assert!(tri.all_ok(), "{}", tri.summary());
    }

    #[test]
    fn a_stream_fixture_round_trips_its_arrivals() {
        let case = CaseSpec {
            machines: 2,
            bandwidth: 4,
            ..stream(3, 3, 6, 1, 6.0)
        };
        let queue = case.queue();
        let fixture = Fixture::from_parts(
            "stream-round-trip",
            "serialization test",
            case.scheduler,
            case.seed,
            &queue,
            &case.cluster(),
        );
        assert_eq!(fixture.jobs.len(), 3);
        let parsed = Fixture::from_json(&fixture.to_json()).unwrap();
        assert_eq!(parsed, fixture);
        assert_eq!(parsed.queue(), queue);
        let tri = parsed.verify();
        assert!(tri.all_ok(), "{}", tri.summary());
    }

    fn faulty_case(seed: u64, faults: FaultProfile) -> CaseSpec {
        CaseSpec {
            faults,
            ..CaseSpec::single(seed, 12, 2, SchedulerKind::Tetris)
        }
    }

    /// The case's fault-free plan and its execution under the case plan.
    fn plan_and_run(case: &CaseSpec) -> (JobQueue, ClusterSpec, Schedule, FaultyRun) {
        let queue = case.queue();
        let spec = case.cluster();
        let planned = case
            .scheduler
            .build(case.seed, case.dims)
            .schedule_multi(&queue, &spec)
            .unwrap();
        let run = execute_under_faults(&queue, &spec, &planned, &case.plan(), None).unwrap();
        (queue, spec, planned, run)
    }

    #[test]
    fn a_run_with_real_failures_and_stragglers_passes_three_ways() {
        let case = faulty_case(
            7,
            FaultProfile {
                fail_rate: 0.3,
                straggler_rate: 0.3,
                straggler_factor: 2.0,
                max_retries: 5,
            },
        );
        let (queue, spec, planned, run) = plan_and_run(&case);
        assert!(
            run.failures > 0 && run.straggles > 0,
            "seed must actually inject faults (got {} failures, {} straggles)",
            run.failures,
            run.straggles
        );
        let tri = check_faulty_run(&queue, &spec, &planned, &case.plan(), &run);
        assert!(tri.all_ok(), "{}", tri.summary());
        assert!(run.makespan >= planned.makespan());
    }

    #[test]
    fn a_null_profile_leaves_execution_fault_free() {
        let case = faulty_case(5, FaultProfile::none());
        assert!(case.plan().is_none());
        let (queue, spec, planned, run) = plan_and_run(&case);
        assert_eq!((run.failures, run.straggles), (0, 0));
        assert!(run.failed_runs.is_empty());
        let tri = check_faulty_run(&queue, &spec, &planned, &case.plan(), &run);
        assert!(tri.all_ok(), "{}", tri.summary());
    }

    #[test]
    fn a_tampered_faulty_run_is_rejected_coherently() {
        let case = faulty_case(7, FaultProfile::with_rate(0.2));
        let (queue, spec, planned, run) = plan_and_run(&case);
        // Stretch the latest-finishing placement by one slot: the
        // declarative judge sees a duration off its draw, the operational
        // judge sees divergent placements, the occupancy judge sees the
        // wrong interval length — all three reject, no disagreement.
        let mut placements = run.schedule.placements().to_vec();
        let worst = (0..placements.len())
            .max_by_key(|&i| placements[i].finish)
            .unwrap();
        placements[worst].finish += 1;
        let makespan = placements.iter().map(|p| p.finish).max().unwrap();
        let mut bad = run.clone();
        bad.schedule = Schedule::from_placements(placements, makespan);
        bad.makespan = makespan;
        let tri = check_faulty_run(&queue, &spec, &planned, &case.plan(), &bad);
        assert!(tri.validate.is_err(), "{}", tri.summary());
        assert!(tri.sim_replay.is_err(), "{}", tri.summary());
        assert!(tri.timeline_replay.is_err(), "{}", tri.summary());
        assert!(!tri.is_disagreement());
    }

    #[test]
    fn a_failed_attempt_inside_its_transfer_window_is_rejected_coherently() {
        // A chain split across two machines whose child fails its first
        // attempt. Pulling that attempt one slot earlier keeps its
        // duration and its grid slot but starts it before the parent's
        // output reaches the child's machine.
        let mut b = DagBuilder::new(1);
        let parent = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let child = b.add_task(Task::new(4, ResourceVec::from_slice(&[0.5])));
        b.add_edge(parent, child).unwrap();
        let queue = JobQueue::single(b.build().unwrap()).unwrap();
        let ones = ResourceVec::from_slice(&[1.0]);
        let machines = MachineSet::uniform(2, ones, 1, TransferMode::Direct, 3, 8).unwrap();
        let spec = ClusterSpec::hetero(machines).unwrap();
        let delay = spec.machines().edge_delay(0, 1, 0, 1);
        assert!(delay > 0);
        let at = |task, start, runtime, machine| spear_cluster::Placement {
            task,
            start,
            finish: start + runtime,
            machine,
        };
        let planned = Schedule::from_placements(
            vec![at(parent, 0, 2, 0), at(child, 2 + delay, 4, 1)],
            6 + delay,
        );
        let fails_once = |plan: &FaultPlan| {
            plan.outcome(parent, 0, 2) == FaultOutcome::None
                && matches!(plan.outcome(child, 0, 4), FaultOutcome::Fail { .. })
                && plan.outcome(child, 1, 4) == FaultOutcome::None
        };
        let plan = (0..)
            .map(|seed| FaultPlan {
                seed,
                fail_rate: 0.5,
                max_retries: 1,
                ..FaultPlan::none()
            })
            .find(fails_once)
            .unwrap();
        let run = execute_under_faults(&queue, &spec, &planned, &plan, None).unwrap();
        let tri = check_faulty_run(&queue, &spec, &planned, &plan, &run);
        assert!(tri.all_ok(), "{}", tri.summary());
        let mut bad = run.clone();
        bad.failed_runs[0].start -= 1;
        bad.failed_runs[0].end -= 1;
        let tri = check_faulty_run(&queue, &spec, &planned, &plan, &bad);
        assert!(tri.validate.is_err(), "{}", tri.summary());
        assert!(tri.sim_replay.is_err(), "{}", tri.summary());
        assert!(tri.timeline_replay.is_err(), "{}", tri.summary());
    }

    #[test]
    fn deterministic_exhaustion_is_a_legal_case_outcome() {
        let case = faulty_case(
            3,
            FaultProfile {
                fail_rate: 1.0,
                straggler_rate: 0.0,
                straggler_factor: 1.0,
                max_retries: 0,
            },
        );
        assert_eq!(case.run().unwrap(), None);
    }

    #[test]
    fn a_faulty_run_over_billions_of_slots_is_judged_without_a_per_slot_grid() {
        // The occupancy judge used to materialize one vector per time
        // slot, so one 3e9-slot task exhausted memory.
        let dag = CaseSpec::single(3, 12, 2, SchedulerKind::Tetris).queue();
        let dag = dag.union_dag();
        let long = 3_000_000_000;
        let mut b = DagBuilder::new(2);
        for (i, t) in dag.tasks().iter().enumerate() {
            let runtime = if i == 0 { long } else { t.runtime() };
            b.add_task(Task::new(runtime, t.demand().clone()));
        }
        for e in dag.edges() {
            b.add_edge(e.from, e.to).unwrap();
        }
        let queue = JobQueue::single(b.build().unwrap()).unwrap();
        for spec in [
            ClusterSpec::unit(2),
            CaseSpec {
                machines: 3,
                ..CaseSpec::single(3, 12, 2, SchedulerKind::Tetris)
            }
            .cluster(),
        ] {
            let planned = TetrisScheduler::new()
                .schedule_multi(&queue, &spec)
                .unwrap();
            let plan = FaultProfile::with_rate(0.2).plan(1);
            let run = execute_under_faults(&queue, &spec, &planned, &plan, None).unwrap();
            assert!(run.failures > 0 && run.makespan >= long);
            let tri = check_faulty_run(&queue, &spec, &planned, &plan, &run);
            assert!(tri.all_ok(), "{}", tri.summary());
        }
    }

    #[test]
    fn fault_corpus_is_deterministic_and_covers_the_roster() {
        let a = fault_corpus(30, 2);
        assert_eq!(a, fault_corpus(30, 2));
        for kind in SchedulerKind::ALL {
            assert!(
                a.iter().any(|c| c.scheduler == kind),
                "{} missing",
                kind.name()
            );
        }
        assert!(a.iter().all(|c| !c.faults.is_none()));
        assert_eq!(a[1].label(), "sjf/n14/seed3/f0.10");
        // One case in four runs on 2–3 machines, and the one-box cases
        // keep their parameters at any corpus size.
        let multi: Vec<&CaseSpec> = a.iter().filter(|c| c.machines > 1).collect();
        assert_eq!(multi.len(), 7);
        assert!(a.iter().skip(3).step_by(4).all(|c| c.machines > 1));
        assert!(multi.iter().any(|c| c.machines == 2) && multi.iter().any(|c| c.machines == 3));
        assert!(multi.iter().any(|c| c.mode == TransferMode::ViaMaster));
        let one_box = |n| -> Vec<CaseSpec> {
            let cases = fault_corpus(n, 2).into_iter();
            cases.filter(|c| c.machines == 1).collect()
        };
        assert_eq!(one_box(8)[..], one_box(40)[..6]);
    }

    #[test]
    fn fixture_json_round_trips_sub_epsilon_demands() {
        let case = CaseSpec {
            epsilon_jitter: true,
            ..CaseSpec::single(3, 6, 1, SchedulerKind::Sjf)
        };
        let queue = case.queue();
        let fixture = Fixture::from_parts(
            "round-trip",
            "serialization test",
            case.scheduler,
            case.seed,
            &queue,
            &case.cluster(),
        );
        assert!(fixture.jobs.is_empty(), "one job at 0 is the bare DAG");
        let parsed = Fixture::from_json(&fixture.to_json()).unwrap();
        assert_eq!(parsed, fixture);
        // Bit-exact demands survive the JSON round trip.
        for (a, b) in parsed.tasks.iter().zip(&fixture.tasks) {
            for (x, y) in a.demand.iter().zip(&b.demand) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(parsed.queue(), queue);
    }

    #[test]
    fn shrinking_keeps_the_failure_and_minimizes() {
        let queue = CaseSpec::single(11, 12, 1, SchedulerKind::Tetris).queue();
        // Pretend the bug is "contains a task with runtime >= 2".
        let fails = |q: &JobQueue| q.union_dag().tasks().iter().any(|t| t.runtime() >= 2);
        if !fails(&queue) {
            return; // seed produced all-1 runtimes; nothing to shrink
        }
        let small = shrink_queue(&queue, fails);
        assert!(fails(&small));
        assert_eq!(
            small.union_dag().len(),
            1,
            "minimal witness is a single task"
        );
    }

    #[test]
    fn shrinking_a_stream_keeps_arrivals_with_their_jobs() {
        let queue = stream(4, 3, 6, 1, 6.0).queue();
        let last = *queue.spans().last().unwrap();
        assert!(last.arrival > 0, "seed must produce a staggered stream");
        // Pretend the bug needs one task of the last job plus an edge.
        let fails = |q: &JobQueue| {
            q.spans().iter().any(|s| s.arrival == last.arrival) && !q.union_dag().edges().is_empty()
        };
        let small = shrink_queue(&queue, fails);
        assert!(fails(&small));
        assert_eq!(small.union_dag().len(), 2, "an edge needs two tasks");
        assert!(small.jobs() <= 2, "emptied jobs are dropped");
        for span in small.spans() {
            assert!(queue.spans().iter().any(|s| s.arrival == span.arrival));
        }
    }
}
