//! Seeded fault injection: deterministic task failures, stragglers and
//! bounded re-execution.
//!
//! The fault model follows the open-cluster evaluations of Decima and
//! Graphene: schedulers plan against the *fault-free projected DAG* —
//! their view of runtimes is never corrupted — and faults bite at
//! execution time. A [`FaultPlan`] maps every `(task, attempt)` pair to a
//! [`FaultOutcome`] by pure seeded hashing, so fault realizations are a
//! deterministic function of `(plan, task, attempt)` with no RNG stream
//! to keep aligned: replaying the same plan over the same dispatch order
//! reproduces the run bit for bit, and two schedulers compared under the
//! same plan face identical per-attempt luck.
//!
//! Three outcomes exist per attempt:
//!
//! * **Failure** — the attempt aborts after a seeded fraction of its
//!   runtime. The simulator frees the task's resources at the failure
//!   slot and re-queues it (dependencies are untouched: a failed task
//!   never completed, so its children were never released).
//! * **Straggle** — the attempt runs to completion but occupies the
//!   cluster for `ceil(runtime * straggler_factor)` slots.
//! * **None** — the attempt behaves exactly as planned.
//!
//! Retries are bounded: once a task has failed `max_retries + 1`
//! attempts the episode is poisoned and fails fast with
//! [`ClusterError::RetriesExhausted`].
//!
//! [`execute_under_faults`] runs a fault-free planned [`Schedule`] of a
//! [`JobQueue`] under a plan, optionally up to a horizon, and returns the
//! realized [`FaultyRun`]. It is the one replay of a plan: its dispatcher,
//! a policy of the one [`EpisodeDriver`], starts every attempt on its
//! task's planned machine and never before the task's planned start, so
//! under [`FaultPlan::none()`] the run is the plan.

use serde::{Deserialize, Serialize};
use spear_dag::{Dag, TaskId, MAX_TOTAL_RUNTIME};

use crate::env::{EpisodeDriver, FnPolicy, NoRng, SimEnv};
use crate::jobs::{JctReport, JobQueue};
use crate::state::mix64;
use crate::{Action, ClusterError, ClusterSpec, Schedule, SpearError};

/// Hash-domain salt of the fail/no-fail draw.
const SALT_FAIL: u64 = 0x1fd3_4c2b_9a6e_8d17;
/// Hash-domain salt of the failure-point draw (fraction of runtime).
const SALT_POINT: u64 = 0x6b79_0b5c_2d84_f3a1;
/// Hash-domain salt of the straggle/no-straggle draw.
const SALT_STRAGGLE: u64 = 0xb4e5_d621_7f38_0c95;

/// Uniform draw in `[0, 1)` from the top 53 bits of a mixed hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What fault (if any) a given execution attempt of a task suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The attempt runs exactly as planned.
    None,
    /// The attempt aborts `after` slots of occupancy (`1 <= after <=
    /// runtime`): resources are freed at `start + after` and the task
    /// re-queues.
    Fail {
        /// Slots the failed attempt occupies before aborting.
        after: u64,
    },
    /// The attempt completes but occupies the cluster for `slots >
    /// runtime` slots.
    Straggle {
        /// Total slots the straggling attempt occupies.
        slots: u64,
    },
}

/// A deterministic, seeded fault realization: maps every `(task,
/// attempt)` pair to a [`FaultOutcome`] by pure hashing.
///
/// `FaultPlan::none()` is the identity plan — a simulator carrying it is
/// bit-identical to one carrying no plan at all (see
/// [`SimState::with_faults`](crate::SimState::with_faults)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-(task, attempt) hash draws.
    pub seed: u64,
    /// Probability that an attempt fails mid-run, in `[0, 1]`.
    pub fail_rate: f64,
    /// Probability that a non-failing attempt straggles, in `[0, 1]`.
    pub straggler_rate: f64,
    /// Occupancy multiplier of a straggling attempt (`> 1` to have any
    /// effect); the realized occupancy is `ceil(runtime * factor)`.
    pub straggler_factor: f64,
    /// Failed attempts a task may accumulate beyond its first attempt
    /// before the episode fails fast ([`ClusterError::RetriesExhausted`]).
    pub max_retries: u32,
}

impl FaultPlan {
    /// The identity plan: no failures, no stragglers.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            fail_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            max_retries: 0,
        }
    }

    /// `true` when the plan can never perturb an execution.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.fail_rate <= 0.0 && (self.straggler_rate <= 0.0 || self.straggler_factor <= 1.0)
    }

    /// Maximum execution attempts per task (`max_retries + 1`).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// One seeded uniform draw in `[0, 1)` per `(task, attempt, salt)`.
    #[inline]
    fn draw(&self, task: TaskId, attempt: u32, salt: u64) -> f64 {
        unit(mix64(
            self.seed
                ^ (task.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ u64::from(attempt).wrapping_mul(0xc4ce_b9fe_1a85_ec53)
                ^ salt,
        ))
    }

    /// The fault outcome of execution attempt `attempt` (0-based) of
    /// `task`, whose fault-free runtime is `runtime`. Pure: the same
    /// arguments always yield the same outcome. Failure is drawn first
    /// and excludes straggling; zero-runtime tasks never fault (there is
    /// nothing to interrupt or stretch).
    #[must_use]
    pub fn outcome(&self, task: TaskId, attempt: u32, runtime: u64) -> FaultOutcome {
        if self.is_none() || runtime == 0 {
            return FaultOutcome::None;
        }
        if self.fail_rate > 0.0 && self.draw(task, attempt, SALT_FAIL) < self.fail_rate {
            // Failure point at a seeded fraction of the runtime, clamped
            // into [1, runtime] so a failed attempt always occupies at
            // least one slot and never outlives its fault-free finish.
            let frac = self.draw(task, attempt, SALT_POINT);
            let after = 1 + (frac * runtime as f64) as u64;
            return FaultOutcome::Fail {
                after: after.min(runtime),
            };
        }
        if self.straggler_rate > 0.0
            && self.straggler_factor > 1.0
            && self.draw(task, attempt, SALT_STRAGGLE) < self.straggler_rate
        {
            let slots = (runtime as f64 * self.straggler_factor).ceil() as u64;
            if slots > runtime {
                return FaultOutcome::Straggle { slots };
            }
        }
        FaultOutcome::None
    }

    /// Slots attempt `attempt` of `task` occupies the cluster for:
    /// `runtime` unless the attempt fails early or straggles long.
    #[must_use]
    pub fn run_slots(&self, task: TaskId, attempt: u32, runtime: u64) -> u64 {
        match self.outcome(task, attempt, runtime) {
            FaultOutcome::None => runtime,
            FaultOutcome::Fail { after } => after,
            FaultOutcome::Straggle { slots } => slots,
        }
    }

    /// The latest clock an execution of `queue` under this plan can
    /// reach: the last arrival plus the total work × (straggler factor +
    /// max retries). Each failed attempt holds at most its runtime and the
    /// final attempt at most `ceil(runtime × factor)`. The clock moves from
    /// event to event, and with nothing running the next event is an
    /// arrival or a transfer release, never a planned start: after the
    /// last arrival the clock passes an empty cluster only for transfers,
    /// whose delays the bound leaves out.
    #[must_use]
    pub fn worst_case_clock(&self, queue: &JobQueue) -> f64 {
        let retries = if self.fail_rate > 0.0 {
            f64::from(self.max_retries)
        } else {
            0.0
        };
        let stretch = if self.straggler_rate > 0.0 {
            self.straggler_factor.max(1.0)
        } else {
            1.0
        };
        let last_arrival = queue.spans().last().map_or(0, |s| s.arrival);
        last_arrival as f64 + queue.union_dag().total_work() as f64 * (stretch + retries)
    }

    /// Rejects a plan whose [worst-case clock](Self::worst_case_clock) on
    /// `queue` exceeds [`MAX_TOTAL_RUNTIME`]: past it, a straggling
    /// attempt's occupancy saturates and the executor's clock could wrap.
    ///
    /// # Errors
    ///
    /// [`ClusterError::FaultClockTooLate`] with the worst-case clock.
    pub fn check_clock(&self, queue: &JobQueue) -> Result<(), ClusterError> {
        let worst = self.worst_case_clock(queue);
        if worst > MAX_TOTAL_RUNTIME as f64 {
            return Err(ClusterError::FaultClockTooLate(worst));
        }
        Ok(())
    }
}

/// One aborted execution attempt: the task occupied machine `machine`
/// over `[start, end)` and then failed, freeing its resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailedRun {
    /// The task that failed.
    pub task: TaskId,
    /// Slot the attempt started at.
    pub start: u64,
    /// Slot the attempt aborted at (exclusive; `end > start`).
    pub end: u64,
    /// 0-based attempt index of the aborted run.
    pub attempt: u32,
    /// The machine the attempt ran on.
    pub machine: u32,
}

/// Per-episode fault bookkeeping carried by [`SimState`](crate::SimState)
/// when a plan is attached. Boxed behind an `Option` so fault-free states
/// grow by one pointer and skip every fault branch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultState {
    /// The plan realizing per-attempt outcomes.
    pub(crate) plan: FaultPlan,
    /// Execution attempts started per task (monotone; incremented at
    /// schedule time).
    pub(crate) attempts: Vec<u32>,
    /// Clock of each task's most recent failure (meaningful once the
    /// task has failed at least once) — feeds the re-execution latency
    /// histogram.
    pub(crate) last_fail: Vec<u64>,
    /// Every aborted attempt, in failure order: the capacity these runs
    /// held over `[start, end)` is part of the realized resource usage
    /// and is re-checked by the fault-aware judges.
    pub(crate) failed_runs: Vec<FailedRun>,
    /// Straggling attempts started so far.
    pub(crate) straggles: u64,
    /// The first task to exhaust its retry budget, if any: a poison
    /// marker that makes the state terminal and the episode fail fast.
    pub(crate) exhausted: Option<TaskId>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, tasks: usize) -> Self {
        FaultState {
            plan,
            attempts: vec![0; tasks],
            last_fail: vec![0; tasks],
            failed_runs: Vec::new(),
            straggles: 0,
            exhausted: None,
        }
    }
}

/// The realized outcome of executing a planned schedule under faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyRun {
    /// The realized schedule: one placement per *started* task, with the
    /// final attempt's actual start and occupancy (straggling attempts
    /// finish later than `start + runtime`). Complete unless a horizon
    /// cut the episode, which may leave tasks unstarted.
    pub schedule: Schedule,
    /// Every aborted attempt, in failure order.
    pub failed_runs: Vec<FailedRun>,
    /// Execution attempts started per task.
    pub attempts: Vec<u32>,
    /// Realized makespan (the last effective finish; equals
    /// `schedule.makespan()`).
    pub makespan: u64,
    /// Total failed attempts (`== failed_runs.len()`).
    pub failures: u64,
    /// Total straggling attempts.
    pub straggles: u64,
    /// Fault-aware JCT report over the realized execution (censored at
    /// the final clock when truncated).
    pub report: JctReport,
    /// `true` when the horizon cut the episode before all jobs finished.
    pub truncated: bool,
}

/// A plan's placements in dispatch priority order: ascending planned
/// start, ties by task id, each with its planned machine.
fn dispatch_order(planned: &Schedule) -> Vec<(u64, TaskId, u32)> {
    let mut order: Vec<(u64, TaskId, u32)> = planned
        .placements()
        .iter()
        .map(|p| (p.start, p.task, p.machine))
        .collect();
    order.sort_unstable();
    order
}

/// Checks that `planned` gives every task of `dag` a start and a machine
/// of `spec`, in task order.
fn check_plan(dag: &Dag, spec: &ClusterSpec, planned: &Schedule) -> Result<(), ClusterError> {
    for task in dag.task_ids() {
        let p = planned
            .placement_of(task)
            .ok_or(ClusterError::MissingPlacement(task))?;
        if p.machine as usize >= spec.num_machines() {
            return Err(ClusterError::MachineOutOfRange {
                task,
                machine: p.machine,
            });
        }
    }
    Ok(())
}

/// Executes a fault-free planned schedule of `queue` under `plan` and
/// returns the realized run: an audited [`EpisodeDriver`] drives a
/// [`SimEnv`] carrying the plan, optionally capped at `horizon` (the
/// realized run may then be partial and the JCT report censored at the
/// final clock).
///
/// At every decision the dispatcher places the first task, in planned
/// `(start, task)` order, whose planned start the clock has reached and
/// that can start on its planned machine; when there is none, it
/// processes. No attempt therefore starts before its planned start or off
/// its planned machine, and under [`FaultPlan::none()`] with no horizon the
/// run is the plan, placement for placement, whichever scheduler made it
/// (a search plan that idles a task on purpose included).
///
/// Dispatch does not stall on a plan the simulator produced: realized
/// starts and finishes never precede planned ones, so when nothing runs
/// and no arrival or transfer is pending, the clock has passed the
/// planned start of some released task (the event that brought the plan
/// to that start has already happened in the run), and that task can
/// start on its idle planned machine. A plan that leaves the cluster idle
/// with no event to wait for (one no simulator run produces) ends in
/// [`ClusterError::NothingRunning`].
///
/// # Errors
///
/// * [`ClusterError::MissingPlacement`] or
///   [`ClusterError::MachineOutOfRange`] for a plan that leaves a task
///   out or names a machine the cluster does not have, before anything
///   runs;
/// * [`ClusterError::FaultClockTooLate`] for a plan whose worst case
///   passes the slot ceiling ([`FaultPlan::check_clock`]);
/// * [`ClusterError::RetriesExhausted`] when a task fails more than
///   `max_retries + 1` attempts — even under a horizon;
/// * [`SpearError::Audit`] on an invariant violation, the simulator's
///   error for a plan it cannot follow, and construction errors as
///   [`SimState::new_multi`](crate::SimState::new_multi).
pub fn execute_under_faults(
    queue: &JobQueue,
    spec: &ClusterSpec,
    planned: &Schedule,
    plan: &FaultPlan,
    horizon: Option<u64>,
) -> Result<FaultyRun, SpearError> {
    plan.check_clock(queue)?;
    check_plan(queue.union_dag(), spec, planned)?;
    let order = dispatch_order(planned);
    let dispatch = |env: &SimEnv<'_>| {
        let sim = env.observe();
        order
            .iter()
            .take_while(|&&(start, _, _)| start <= sim.clock())
            .find(|&&(_, t, m)| sim.can_schedule_on(env.dag(), t, m))
            .map_or(Action::Process, |&(_, t, m)| Action::Place(t, m))
    };
    let mut env = SimEnv::from_queue(queue, spec)?
        .with_faults(*plan)
        .with_horizon(horizon);
    EpisodeDriver::new(FnPolicy(dispatch))
        .with_audit(true)
        .drive(&mut env, &mut NoRng)?;
    let (dag, sim) = (env.dag(), env.observe());
    let schedule = sim.started_schedule(dag);
    Ok(FaultyRun {
        makespan: schedule.makespan(),
        schedule,
        failed_runs: sim.failed_runs().to_vec(),
        attempts: (0..dag.len())
            .map(|i| sim.attempts_of(TaskId::new(i)))
            .collect(),
        failures: sim.fault_failures(),
        straggles: sim.fault_straggles(),
        report: queue.jct_report_partial(sim),
        truncated: env.is_truncated(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimState;
    use spear_dag::{Dag, DagBuilder, ResourceVec, Task};

    fn plan(fail_rate: f64, straggler_rate: f64, factor: f64, retries: u32) -> FaultPlan {
        FaultPlan {
            seed: 11,
            fail_rate,
            straggler_rate,
            straggler_factor: factor,
            max_retries: retries,
        }
    }

    fn diamond(dims: usize) -> Dag {
        let mut b = DagBuilder::new(dims);
        let demand = ResourceVec::from_slice(&vec![0.4; dims]);
        let a = b.add_task(Task::new(3, demand.clone()));
        let c = b.add_task(Task::new(2, demand.clone()));
        let d = b.add_task(Task::new(4, demand.clone()));
        let e = b.add_task(Task::new(1, demand));
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        b.add_edge(c, e).unwrap();
        b.add_edge(d, e).unwrap();
        b.build().unwrap()
    }

    fn greedy_schedule(dag: &Dag, spec: &ClusterSpec) -> Schedule {
        let mut sim = SimState::new(dag, spec).unwrap();
        sim.run_with(dag, |_, actions| actions[0]).unwrap();
        sim.into_schedule(dag)
    }

    /// Executes `planned` (of `dag` as a one-job queue) under `plan`.
    fn execute(
        dag: &Dag,
        spec: &ClusterSpec,
        planned: &Schedule,
        plan: &FaultPlan,
    ) -> Result<FaultyRun, SpearError> {
        let queue = JobQueue::single(dag.clone()).unwrap();
        execute_under_faults(&queue, spec, planned, plan, None)
    }

    #[test]
    fn outcomes_are_pure_and_bounded() {
        let p = plan(0.3, 0.3, 1.5, 2);
        for task in 0..40 {
            for attempt in 0..4 {
                let t = TaskId::new(task);
                let a = p.outcome(t, attempt, 10);
                assert_eq!(a, p.outcome(t, attempt, 10), "outcome must be pure");
                match a {
                    FaultOutcome::None => {}
                    FaultOutcome::Fail { after } => {
                        assert!((1..=10).contains(&after), "fail point {after} out of range")
                    }
                    FaultOutcome::Straggle { slots } => {
                        assert!(slots > 10, "straggle must stretch occupancy");
                        assert_eq!(slots, 15);
                    }
                }
            }
        }
    }

    #[test]
    fn none_plan_never_faults_and_zero_runtime_is_immune() {
        let none = FaultPlan::none();
        assert!(none.is_none());
        for task in 0..20 {
            assert_eq!(none.outcome(TaskId::new(task), 0, 7), FaultOutcome::None);
        }
        let certain = plan(1.0, 1.0, 3.0, 1);
        assert_eq!(certain.outcome(TaskId::new(0), 0, 0), FaultOutcome::None);
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let p = plan(0.2, 0.0, 1.0, 0);
        let fails = (0..2000)
            .filter(|&i| matches!(p.outcome(TaskId::new(i), 0, 5), FaultOutcome::Fail { .. }))
            .count();
        let rate = fails as f64 / 2000.0;
        assert!((rate - 0.2).abs() < 0.03, "realized fail rate {rate}");
    }

    #[test]
    fn none_plan_execution_reproduces_the_planned_schedule() {
        let dag = diamond(2);
        let spec = ClusterSpec::unit(2);
        let planned = greedy_schedule(&dag, &spec);
        let run = execute(&dag, &spec, &planned, &FaultPlan::none()).unwrap();
        assert_eq!(run.schedule, planned);
        assert!(!run.truncated);
        assert_eq!(run.failures, 0);
        assert_eq!(run.straggles, 0);
        assert!(run.failed_runs.is_empty());
        assert!(run.attempts.iter().all(|&a| a == 1));
    }

    #[test]
    fn a_plan_that_omits_a_task_is_a_missing_placement() {
        let dag = diamond(1);
        let spec = ClusterSpec::unit(1);
        let mut placements = greedy_schedule(&dag, &spec).placements().to_vec();
        let dropped = placements.remove(2).task;
        let planned = Schedule::from_placements(placements, 10);
        let err = execute(&dag, &spec, &planned, &FaultPlan::none()).unwrap_err();
        assert_eq!(
            err,
            SpearError::Cluster(ClusterError::MissingPlacement(dropped))
        );
    }

    #[test]
    fn a_plan_on_a_machine_the_cluster_lacks_is_out_of_range() {
        let dag = diamond(1);
        let spec = ClusterSpec::unit(1);
        let mut placements = greedy_schedule(&dag, &spec).placements().to_vec();
        placements[3].machine = 1;
        let planned = Schedule::from_placements(placements, 10);
        let err = execute(&dag, &spec, &planned, &FaultPlan::none()).unwrap_err();
        let want = ClusterError::MachineOutOfRange {
            task: TaskId::new(3),
            machine: 1,
        };
        assert_eq!(err, SpearError::Cluster(want));
    }

    #[test]
    fn faulty_execution_is_deterministic_and_degrades_makespan() {
        let dag = diamond(2);
        let spec = ClusterSpec::unit(2);
        let planned = greedy_schedule(&dag, &spec);
        let p = plan(0.35, 0.3, 2.0, 5);
        let a = execute(&dag, &spec, &planned, &p).unwrap();
        let b = execute(&dag, &spec, &planned, &p).unwrap();
        assert_eq!(a, b, "same plan must realize the same run");
        assert!(a.makespan >= planned.makespan());
    }

    #[test]
    fn exhausted_retries_fail_fast_with_a_typed_error() {
        let dag = diamond(1);
        let spec = ClusterSpec::unit(1);
        let planned = greedy_schedule(&dag, &spec);
        let p = plan(1.0, 0.0, 1.0, 2);
        let err = execute(&dag, &spec, &planned, &p).unwrap_err();
        match err.root_cause() {
            SpearError::Cluster(ClusterError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn multi_job_execution_reports_censored_jcts_under_a_horizon() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(4, ResourceVec::from_slice(&[0.6])));
        let d0 = b.build().unwrap();
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(4, ResourceVec::from_slice(&[0.6])));
        let d1 = b.build().unwrap();
        let queue = JobQueue::new(vec![(0, d0), (1, d1)]).unwrap();
        let spec = ClusterSpec::unit(1);
        let planned = {
            let mut sim = SimState::new_multi(&queue, &spec).unwrap();
            sim.run_with(queue.union_dag(), |_, actions| actions[0])
                .unwrap();
            sim.into_schedule(queue.union_dag())
        };
        // Job 0 occupies the cluster until t=4, so the horizon at t=3
        // cuts the episode before job 1 can start.
        let out =
            execute_under_faults(&queue, &spec, &planned, &FaultPlan::none(), Some(3)).unwrap();
        assert!(out.truncated);
        assert_eq!(out.report.completions().len(), 1);
        assert_eq!(out.report.unfinished(), 1);
        let full = execute_under_faults(&queue, &spec, &planned, &FaultPlan::none(), None).unwrap();
        assert!(!full.truncated);
        assert_eq!(full.report.unfinished(), 0);
    }

    #[test]
    fn worst_case_clock_past_the_ceiling_is_a_typed_error() {
        // A 1e30 straggler would saturate an attempt's occupancy at
        // u64::MAX and wrap the executor's clock, so the plan is refused
        // before anything runs.
        let dag = diamond(1);
        let spec = ClusterSpec::unit(1);
        let planned = greedy_schedule(&dag, &spec);
        let queue = JobQueue::single(dag.clone()).unwrap();
        let huge = plan(0.1, 0.1, 1e30, 3);
        assert!(huge.worst_case_clock(&queue) > MAX_TOTAL_RUNTIME as f64);
        let err = execute(&dag, &spec, &planned, &huge).unwrap_err();
        assert!(
            matches!(err, SpearError::Cluster(ClusterError::FaultClockTooLate(w)) if w > 1e30),
            "{err:?}"
        );
        // Total work 10: (1.5 + 3) × 10 slots at worst, well inside.
        let sane = plan(0.1, 0.1, 1.5, 3);
        assert_eq!(sane.worst_case_clock(&queue), 45.0);
        assert!(sane.check_clock(&queue).is_ok());
        // Rates of zero make the factor and the retries irrelevant.
        let idle = plan(0.0, 0.0, 1e30, u32::MAX);
        assert_eq!(idle.worst_case_clock(&queue), 10.0);
    }

    #[test]
    fn a_one_machine_set_runs_faults_like_the_unit_box() {
        use crate::{MachineSet, TransferMode};
        let dag = diamond(1);
        let one = MachineSet::uniform(
            1,
            ResourceVec::from_slice(&[1.0]),
            4,
            TransferMode::ViaMaster,
            3,
            4,
        );
        let planned = greedy_schedule(&dag, &ClusterSpec::unit(1));
        let p = plan(0.4, 0.3, 2.0, 6);
        let run = execute(&dag, &ClusterSpec::unit(1), &planned, &p).unwrap();
        assert!(run.failures > 0, "the plan must bite");
        let spec = ClusterSpec::hetero(one.unwrap()).unwrap();
        assert_eq!(execute(&dag, &spec, &planned, &p).unwrap(), run);
    }
}
