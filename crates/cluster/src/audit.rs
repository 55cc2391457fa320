//! The simulation invariant auditor.
//!
//! Every result in this reproduction flows through one [`SimState`]
//! bookkeeping core, so a silent accounting slip (an epsilon of free
//! capacity leaking per admission, a stale entry in the ready frontier, a
//! clock that jumps backwards) skews *every* scheduler comparison at once.
//! [`InvariantAuditor`] cross-checks the state against the DAG after each
//! step and reports the first violated invariant as an [`AuditViolation`]:
//!
//! * **Used coherence** — the state's recorded `used` equals the summed
//!   demand of the running set per dimension (within [`FIT_EPSILON`]).
//!   `used` is the basis of every admission decision, so a slip here
//!   silently changes what "fits".
//! * **Conservation** — `free + Σ(running demands) == capacity` per
//!   dimension, within an episode-scaled epsilon (the derived `free` view
//!   saturates at zero when an epsilon-tolerant admission overlaps past
//!   capacity).
//! * **Free bound** — `free <= capacity` per dimension, *exactly*: `free`
//!   is derived as `max(0, capacity - used)`, so any surplus is a genuine
//!   leak.
//! * **Clock monotonicity** — time never runs backwards within an episode.
//! * **Ready-set consistency** — the tracker's frontier is exactly the set
//!   of unstarted tasks whose parents have all completed.
//! * **Start/finish coherence** — every running task has a recorded start,
//!   `finish == start + runtime`, and completed tasks finished by the
//!   current clock.
//! * **Arrival coherence** — arrival monotonicity (no task starts before
//!   its job arrives; no unarrived source leaks into the frontier) and
//!   the injected-job prefix matches the clock. A bare DAG is the one-job
//!   queue arriving at 0.
//! * **Fault coherence** (fault-injected states only) — attempt counts
//!   are monotone across audited steps and bounded by the retry budget,
//!   every recorded failed run matches the plan's seeded failure point,
//!   the failure count reconciles with the attempt/start tables
//!   (freed-on-failure accounting: a retracted attempt must not leave a
//!   placement or resources behind), and the exhaustion marker is
//!   coherent.
//! * **Machine coherence** — machine assignments mirror the start table,
//!   every machine's `used`/`free` reconciles with the demand actually
//!   running on it (per-machine conservation), and every started task
//!   respects the transfer gate against edge delays the auditor
//!   re-derives from the machine set itself. On a one-machine cluster the
//!   machine's row is the aggregate and there are no transfers, so the
//!   group re-checks what the groups above already hold.
//!
//! The auditor is pure observation: it never mutates the state, so an
//! audited episode is bit-identical to an unaudited one. It is wired into
//! [`EpisodeDriver`](crate::EpisodeDriver) and enabled by default in debug
//! builds (every test exercises it for free) and in release builds with
//! the `audit` cargo feature.

use std::error::Error;
use std::fmt;

use spear_dag::{Dag, TaskId, FIT_EPSILON};

use crate::SimState;

/// The first invariant a [`SimState`] was found to violate.
///
/// Each variant carries the numbers needed to understand the failure
/// without re-running under a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// The state's recorded `used` disagrees with the summed demand of the
    /// running set in some dimension — the admission basis is corrupt.
    UsedMismatch {
        /// The offending resource dimension.
        dim: usize,
        /// Used capacity recorded by the state.
        used: f64,
        /// Summed demand of the running set.
        committed: f64,
    },
    /// `free + Σ(running demands)` drifted away from the capacity in some
    /// dimension beyond the episode-scaled tolerance.
    Conservation {
        /// The offending resource dimension.
        dim: usize,
        /// Free capacity recorded by the state.
        free: f64,
        /// Summed demand of the running set.
        committed: f64,
        /// True cluster capacity.
        capacity: f64,
    },
    /// Free capacity exceeds the cluster capacity in some dimension.
    FreeExceedsCapacity {
        /// The offending resource dimension.
        dim: usize,
        /// Free capacity recorded by the state.
        free: f64,
        /// True cluster capacity.
        capacity: f64,
    },
    /// The simulation clock moved backwards between two audited steps.
    ClockRegression {
        /// Clock at the previous audit.
        from: u64,
        /// Clock now — smaller than `from`.
        to: u64,
    },
    /// A task's recorded start, finish and runtime disagree: a running
    /// task without a start, `finish != start + runtime`, a start in the
    /// future, a running task that should already have finished, a
    /// completed task that has not, a duplicate running entry, or a finish
    /// beyond the recorded `max_finish`.
    StartFinishMismatch {
        /// The incoherent task.
        task: TaskId,
    },
    /// The ready frontier lists a task that is not actually ready (it
    /// already started, or a parent has not completed).
    StaleReady {
        /// The task wrongly listed as ready.
        task: TaskId,
    },
    /// A task with all parents completed and no recorded start is missing
    /// from the ready frontier — it could never be scheduled.
    MissingReady {
        /// The task wrongly absent from the frontier.
        task: TaskId,
    },
    /// A derived count (completed or scheduled tasks) disagrees with the
    /// state's recorded counter.
    CountMismatch {
        /// Which counter disagreed (`"completed"` or `"scheduled"`).
        field: &'static str,
        /// The state's recorded value.
        recorded: usize,
        /// The value derived from starts/running.
        derived: usize,
    },
    /// A task started before its job's arrival time — the multi-job
    /// arrival gate leaked (arrival monotonicity).
    EarlyStart {
        /// The prematurely started task.
        task: TaskId,
        /// Its recorded start time.
        start: u64,
        /// Its job's arrival time (later than the start).
        arrival: u64,
    },
    /// The ready frontier lists a task whose job has not arrived yet —
    /// a scheduler could start it before its arrival.
    UnarrivedReady {
        /// The prematurely listed task.
        task: TaskId,
    },
    /// The incrementally maintained placement hash disagrees with a
    /// from-scratch recomputation — the frontier fingerprint of a
    /// multi-machine state would key the inference cache by a hash of
    /// some *other* state, turning every lookup into a potential silent
    /// wrong-cache-hit.
    FingerprintDesync {
        /// The incrementally maintained placement hash.
        stored: u64,
        /// The placement hash recomputed from the placement list.
        recomputed: u64,
    },
    /// A task accumulated more execution attempts than its retry budget
    /// allows — the fail-fast exhaustion path was bypassed.
    RetryOverrun {
        /// The over-retried task.
        task: TaskId,
        /// Attempts recorded for it.
        attempts: u32,
        /// The plan's attempt ceiling (`max_retries + 1`).
        max_attempts: u32,
    },
    /// A task's attempt counter decreased between two audited steps —
    /// attempt counts are append-only history and must be monotone.
    AttemptRegression {
        /// The task whose counter went backwards.
        task: TaskId,
        /// Attempts at the previous audit.
        from: u32,
        /// Attempts now — smaller than `from`.
        to: u32,
    },
    /// A fault-bookkeeping quantity disagrees with the value derived
    /// from the plan and the placement/attempt tables (which field is
    /// named in `field`).
    FaultAccounting {
        /// The inconsistent quantity.
        field: &'static str,
        /// The state's recorded value.
        recorded: u64,
        /// The value derived from the plan and the tables.
        derived: u64,
    },
    /// A machine's recorded `used` disagrees with the summed demand of
    /// the running tasks placed on it — the per-machine admission basis
    /// is corrupt.
    MachineUsedMismatch {
        /// The machine with corrupt accounting.
        machine: u32,
        /// The offending resource dimension.
        dim: usize,
        /// Used capacity recorded for the machine.
        used: f64,
        /// Summed demand of the tasks running on it.
        committed: f64,
    },
    /// A machine's `free + Σ(demands running on it)` drifted away from
    /// its capacity, or its derived `free` exceeds its capacity —
    /// per-machine conservation is broken.
    MachineConservation {
        /// The machine with corrupt accounting.
        machine: u32,
        /// The offending resource dimension.
        dim: usize,
        /// Free capacity recorded for the machine.
        free: f64,
        /// Summed demand of the tasks running on it.
        committed: f64,
        /// The machine's true capacity.
        capacity: f64,
    },
    /// A task's machine assignment is incoherent: assigned without a
    /// recorded start, started without an assignment, or out of range.
    MachineAssignment {
        /// The incoherently assigned task.
        task: TaskId,
    },
    /// A task started inside the transfer window of a cross-machine
    /// parent — the start precedes the parent's finish plus the
    /// re-derived edge transfer delay.
    TransferGatedStart {
        /// The parent whose output had not arrived yet.
        parent: TaskId,
        /// The prematurely started child.
        child: TaskId,
        /// The child's recorded start.
        start: u64,
        /// The earliest legal start re-derived from the network model.
        ready: u64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::UsedMismatch {
                dim,
                used,
                committed,
            } => write!(
                f,
                "recorded used capacity {used} disagrees with the running \
                 set's summed demand {committed} in dimension {dim}"
            ),
            AuditViolation::Conservation {
                dim,
                free,
                committed,
                capacity,
            } => write!(
                f,
                "resource conservation broken in dimension {dim}: \
                 free {free} + committed {committed} != capacity {capacity}"
            ),
            AuditViolation::FreeExceedsCapacity {
                dim,
                free,
                capacity,
            } => write!(
                f,
                "free capacity {free} exceeds cluster capacity {capacity} \
                 in dimension {dim}"
            ),
            AuditViolation::ClockRegression { from, to } => {
                write!(f, "simulation clock ran backwards from {from} to {to}")
            }
            AuditViolation::StartFinishMismatch { task } => write!(
                f,
                "start/finish bookkeeping of task {task} disagrees with its runtime"
            ),
            AuditViolation::StaleReady { task } => {
                write!(f, "ready frontier lists task {task}, which is not ready")
            }
            AuditViolation::MissingReady { task } => {
                write!(f, "task {task} is ready but missing from the frontier")
            }
            AuditViolation::CountMismatch {
                field,
                recorded,
                derived,
            } => write!(
                f,
                "{field} count is recorded as {recorded} but derives to {derived}"
            ),
            AuditViolation::EarlyStart {
                task,
                start,
                arrival,
            } => write!(
                f,
                "task {task} started at {start}, before its job's arrival at {arrival}"
            ),
            AuditViolation::UnarrivedReady { task } => write!(
                f,
                "ready frontier lists task {task}, whose job has not arrived"
            ),
            AuditViolation::FingerprintDesync { stored, recomputed } => write!(
                f,
                "placement hash {stored:#018x} disagrees with the \
                 from-scratch recomputation {recomputed:#018x}"
            ),
            AuditViolation::RetryOverrun {
                task,
                attempts,
                max_attempts,
            } => write!(
                f,
                "task {task} recorded {attempts} execution attempts, past \
                 the retry budget's ceiling of {max_attempts}"
            ),
            AuditViolation::AttemptRegression { task, from, to } => write!(
                f,
                "attempt counter of task {task} ran backwards from {from} to {to}"
            ),
            AuditViolation::FaultAccounting {
                field,
                recorded,
                derived,
            } => write!(
                f,
                "fault bookkeeping field {field} is recorded as {recorded} \
                 but derives to {derived}"
            ),
            AuditViolation::MachineUsedMismatch {
                machine,
                dim,
                used,
                committed,
            } => write!(
                f,
                "machine {machine} records used capacity {used} but its running \
                 set's summed demand is {committed} in dimension {dim}"
            ),
            AuditViolation::MachineConservation {
                machine,
                dim,
                free,
                committed,
                capacity,
            } => write!(
                f,
                "machine {machine} breaks conservation in dimension {dim}: \
                 free {free} + committed {committed} != capacity {capacity}"
            ),
            AuditViolation::MachineAssignment { task } => write!(
                f,
                "machine assignment of task {task} disagrees with its start record"
            ),
            AuditViolation::TransferGatedStart {
                parent,
                child,
                start,
                ready,
            } => write!(
                f,
                "task {child} started at {start}, inside the transfer window of \
                 its parent {parent} (data arrives at {ready})"
            ),
        }
    }
}

impl Error for AuditViolation {}

/// Cross-checks a [`SimState`] against its DAG after every step.
///
/// The auditor owns scratch buffers sized to the DAG, so a check is a
/// single `O(tasks + edges + running)` pass with no allocation in steady
/// state. It is cheap enough to leave on for every debug/test episode.
///
/// ```
/// use spear_dag::{DagBuilder, ResourceVec, Task};
/// use spear_cluster::{Action, ClusterSpec, InvariantAuditor, SimState};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new(1);
/// let t = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
/// let dag = b.build()?;
/// let spec = ClusterSpec::unit(1);
/// let mut sim = SimState::new(&dag, &spec)?;
/// let mut audit = InvariantAuditor::new();
/// audit.check(&dag, &sim)?;
/// sim.apply(&dag, Action::Place(t, 0))?;
/// audit.check(&dag, &sim)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvariantAuditor {
    /// Clock at the last audited step, for monotonicity.
    last_clock: Option<u64>,
    /// Per-task attempt counts at the last audited step, for attempt
    /// monotonicity (fault-injected states only; empty otherwise).
    last_attempts: Vec<u32>,
    /// Scratch: per-dimension summed demand of the running set.
    committed: Vec<f64>,
    /// Scratch: per-task "currently running" flag.
    running: Vec<bool>,
    /// Scratch: per-task "listed in the ready frontier" flag.
    listed_ready: Vec<bool>,
}

impl InvariantAuditor {
    /// Creates an auditor with no clock history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the clock and attempt history — call when switching to a
    /// new episode so its initial `clock == 0` is not reported as a
    /// regression.
    pub fn reset(&mut self) {
        self.last_clock = None;
        self.last_attempts.clear();
    }

    /// Checks every invariant of `state` against `dag`, returning the
    /// first violation found. A passing check records the clock for the
    /// next monotonicity comparison.
    pub fn check(&mut self, dag: &Dag, state: &SimState) -> Result<(), AuditViolation> {
        // 1. Clock monotonicity across audited steps.
        if let Some(last) = self.last_clock {
            if state.clock < last {
                return Err(AuditViolation::ClockRegression {
                    from: last,
                    to: state.clock,
                });
            }
        }
        self.last_clock = Some(state.clock);

        // 2. Free never exceeds capacity. Exact, not epsilon-tolerant:
        // `free` is derived as `max(0, capacity - used)`, so any surplus
        // here is the drift bug resurfacing.
        let dims = state.capacity.dims();
        for d in 0..dims {
            if state.free[d] > state.capacity[d] {
                return Err(AuditViolation::FreeExceedsCapacity {
                    dim: d,
                    free: state.free[d],
                    capacity: state.capacity[d],
                });
            }
        }

        // 3. Start/finish coherence of the running set.
        self.running.clear();
        self.running.resize(dag.len(), false);
        for r in &state.running {
            let i = r.task.index();
            // `run_slots_of` is the effective-duration ground truth: the
            // plain runtime in fault-free states, the current attempt's
            // fail-point/straggle occupancy under a fault plan.
            let coherent = !self.running[i]
                && state.starts[i].is_some_and(|start| {
                    start <= state.clock
                        && start.checked_add(state.run_slots_of(dag, r.task)) == Some(r.finish)
                })
                && r.finish >= state.clock
                && r.finish <= state.max_finish;
            if !coherent {
                return Err(AuditViolation::StartFinishMismatch { task: r.task });
            }
            self.running[i] = true;
        }

        // 4. Used coherence and conservation. `committed` re-derives the
        // summed demand of the running set from the DAG; the recorded
        // `used` must match it within one FIT_EPSILON (floating-point
        // accumulation only — the sums differ in operation order), and
        // `free + committed` must reconstruct the capacity within an
        // episode-scaled tolerance (the derived `free` saturates at zero
        // when an epsilon-tolerant admission overlaps past capacity, so
        // one epsilon per task plus one for the comparison itself).
        self.committed.clear();
        self.committed.resize(dims, 0.0);
        for r in &state.running {
            let demand = dag.task(r.task).demand();
            for d in 0..dims {
                self.committed[d] += demand[d];
            }
        }
        let tolerance = FIT_EPSILON * (dag.len() as f64 + 1.0);
        for d in 0..dims {
            let total = state.free[d] + self.committed[d];
            if (total - state.capacity[d]).abs() > tolerance {
                return Err(AuditViolation::Conservation {
                    dim: d,
                    free: state.free[d],
                    committed: self.committed[d],
                    capacity: state.capacity[d],
                });
            }
        }
        for d in 0..dims {
            if (state.used[d] - self.committed[d]).abs() > FIT_EPSILON {
                return Err(AuditViolation::UsedMismatch {
                    dim: d,
                    used: state.used[d],
                    committed: self.committed[d],
                });
            }
        }

        // 5. Completed tasks finished by now, and the derived counts match
        // the recorded ones. A task is done iff it started and is no
        // longer running.
        let mut started = 0usize;
        let mut done_count = 0usize;
        for i in 0..dag.len() {
            let Some(start) = state.starts[i] else {
                continue;
            };
            started += 1;
            if self.running[i] {
                continue;
            }
            done_count += 1;
            let task = TaskId::new(i);
            let finished_by_now = start
                .checked_add(state.run_slots_of(dag, task))
                .is_some_and(|finish| finish <= state.clock);
            if !finished_by_now {
                return Err(AuditViolation::StartFinishMismatch { task });
            }
        }
        if started != state.scheduled {
            return Err(AuditViolation::CountMismatch {
                field: "scheduled",
                recorded: state.scheduled,
                derived: started,
            });
        }
        if done_count != state.tracker.completed() {
            return Err(AuditViolation::CountMismatch {
                field: "completed",
                recorded: state.tracker.completed(),
                derived: done_count,
            });
        }

        // 6. Ready-set consistency: the frontier is exactly the unstarted
        // tasks whose parents have all completed.
        self.listed_ready.clear();
        self.listed_ready.resize(dag.len(), false);
        let is_done = |i: usize| -> bool { state.starts[i].is_some() && !self.running[i] };
        for &t in state.tracker.ready() {
            let i = t.index();
            let actually_ready =
                state.starts[i].is_none() && dag.parents(t).iter().all(|p| is_done(p.index()));
            if !actually_ready || self.listed_ready[i] {
                return Err(AuditViolation::StaleReady { task: t });
            }
            self.listed_ready[i] = true;
        }
        for t in dag.task_ids() {
            let i = t.index();
            if self.listed_ready[i] || state.starts[i].is_some() {
                continue;
            }
            // Sources of jobs that have not arrived are deliberately
            // withheld from the frontier — but only until the clock
            // crosses their arrival; a lagging injection falls through and
            // is reported as MissingReady.
            if state.jobs.arrivals[state.jobs.job_of(i)] > state.clock {
                continue;
            }
            // A retry-exhausted task is deliberately *not* re-queued: it
            // poisoned the episode and must stay out of the frontier.
            if state.exhausted() == Some(t) {
                continue;
            }
            if dag.parents(t).iter().all(|p| is_done(p.index())) {
                return Err(AuditViolation::MissingReady { task: t });
            }
        }

        // 6b. Arrival coherence: the injected prefix must match what the
        // clock implies, no start may precede its job's arrival, and no
        // unarrived source may sit in the frontier.
        let jobs = &state.jobs;
        let derived_injected = jobs.arrivals.partition_point(|&a| a <= state.clock);
        if jobs.next_arrival != derived_injected {
            return Err(AuditViolation::CountMismatch {
                field: "injected_jobs",
                recorded: jobs.next_arrival,
                derived: derived_injected,
            });
        }
        for (i, start) in state.starts.iter().enumerate() {
            if let Some(start) = *start {
                let arrival = jobs.arrivals[jobs.job_of(i)];
                if start < arrival {
                    return Err(AuditViolation::EarlyStart {
                        task: TaskId::new(i),
                        start,
                        arrival,
                    });
                }
            }
        }
        for &t in state.tracker.ready() {
            if jobs.arrivals[jobs.job_of(t.index())] > state.clock {
                return Err(AuditViolation::UnarrivedReady { task: t });
            }
        }

        // 6c. Fault coherence: attempt counts are monotone and bounded,
        // failed runs match the plan's seeded failure points, the
        // failure tally reconciles with the attempt/start tables (a
        // retracted attempt must have left no placement behind — its
        // resources are already covered by checks 2/4, which derive
        // everything from the *current* running set), and the exhaustion
        // marker is coherent. Fault-free states skip the whole group.
        if let Some(f) = state.faults.as_deref() {
            let max_attempts = f.plan.max_attempts();
            let mut derived_failures = 0u64;
            for (i, &attempts) in f.attempts.iter().enumerate() {
                let task = TaskId::new(i);
                if attempts > max_attempts {
                    return Err(AuditViolation::RetryOverrun {
                        task,
                        attempts,
                        max_attempts,
                    });
                }
                if let Some(&last) = self.last_attempts.get(i) {
                    if attempts < last {
                        return Err(AuditViolation::AttemptRegression {
                            task,
                            from: last,
                            to: attempts,
                        });
                    }
                }
                let live = u32::from(state.starts[i].is_some());
                if attempts < live {
                    return Err(AuditViolation::FaultAccounting {
                        field: "started_attempts",
                        recorded: u64::from(attempts),
                        derived: u64::from(live),
                    });
                }
                derived_failures += u64::from(attempts - live);
            }
            if f.failed_runs.len() as u64 != derived_failures {
                return Err(AuditViolation::FaultAccounting {
                    field: "failed_runs",
                    recorded: f.failed_runs.len() as u64,
                    derived: derived_failures,
                });
            }
            for run in &f.failed_runs {
                let i = run.task.index();
                let expected =
                    match f
                        .plan
                        .outcome(run.task, run.attempt, dag.task(run.task).runtime())
                    {
                        crate::faults::FaultOutcome::Fail { after } => Some(after),
                        _ => None,
                    };
                let coherent = run.attempt < f.attempts[i]
                    && run.end <= state.clock
                    && run.end.checked_sub(run.start) == expected;
                if !coherent {
                    return Err(AuditViolation::FaultAccounting {
                        field: "failed_run",
                        recorded: run.end.saturating_sub(run.start),
                        derived: expected.unwrap_or(0),
                    });
                }
            }
            if let Some(t) = f.exhausted {
                let i = t.index();
                if f.attempts[i] != max_attempts {
                    return Err(AuditViolation::FaultAccounting {
                        field: "exhausted_attempts",
                        recorded: u64::from(f.attempts[i]),
                        derived: u64::from(max_attempts),
                    });
                }
                if state.starts[i].is_some() || self.listed_ready[i] {
                    return Err(AuditViolation::StaleReady { task: t });
                }
            }
            self.last_attempts.clear();
            self.last_attempts.extend_from_slice(&f.attempts);
        } else {
            self.last_attempts.clear();
        }

        // 6d. Machine coherence: machine assignments mirror the start
        // table, every machine's `used`/`free` reconciles with the demand
        // actually running on it, and every started task respects the
        // transfer gate — its start at or after each parent's finish plus
        // the edge delay *re-derived here* from the machine set's seeded
        // bytes and link bandwidths.
        let machines = state.machines();
        let n = machines.len();
        for i in 0..dag.len() {
            let assigned = state.machine_of(TaskId::new(i));
            let incoherent = assigned.is_some() != state.starts[i].is_some()
                || assigned.is_some_and(|m| (m as usize) >= n);
            if incoherent {
                return Err(AuditViolation::MachineAssignment {
                    task: TaskId::new(i),
                });
            }
        }
        for m in 0..n {
            let machine = m as u32;
            let cap = machines.capacity(machine);
            let (used, free) = (state.machine_used(machine), state.machine_free(machine));
            self.committed.clear();
            self.committed.resize(dims, 0.0);
            for r in &state.running {
                if state.machine_of(r.task) == Some(machine) {
                    let demand = dag.task(r.task).demand();
                    for d in 0..dims {
                        self.committed[d] += demand[d];
                    }
                }
            }
            for d in 0..dims {
                if (used[d] - self.committed[d]).abs() > FIT_EPSILON {
                    return Err(AuditViolation::MachineUsedMismatch {
                        machine,
                        dim: d,
                        used: used[d],
                        committed: self.committed[d],
                    });
                }
                let drifted =
                    free[d] > cap[d] || (free[d] + self.committed[d] - cap[d]).abs() > tolerance;
                if drifted {
                    return Err(AuditViolation::MachineConservation {
                        machine,
                        dim: d,
                        free: free[d],
                        committed: self.committed[d],
                        capacity: cap[d],
                    });
                }
            }
        }
        for e in dag.edges() {
            let (Some(ps), Some(cs)) = (state.starts[e.from.index()], state.starts[e.to.index()])
            else {
                continue;
            };
            let (Some(pm), Some(cm)) = (state.machine_of(e.from), state.machine_of(e.to)) else {
                continue; // assignment coherence already checked above
            };
            let finish = ps.saturating_add(state.run_slots_of(dag, e.from));
            let ready =
                finish.saturating_add(machines.edge_delay(e.from.index(), e.to.index(), pm, cm));
            if cs < ready {
                return Err(AuditViolation::TransferGatedStart {
                    parent: e.from,
                    child: e.to,
                    start: cs,
                    ready,
                });
            }
        }

        // 7. Fingerprint coherence: the incremental placement hash that
        // the frontier fingerprint folds from two machines on must equal
        // a from-scratch recomputation from the placement list (0 on one
        // machine; the other ingredients are folded at read time and
        // cannot drift). Checked last on purpose: a corruption that
        // breaks a semantic invariant (say, an injected running entry)
        // usually desyncs the hash too, and should be reported as the
        // semantic violation, not as hash drift.
        let recomputed = state.recompute_placement_hash();
        if recomputed != state.placement_hash {
            return Err(AuditViolation::FingerprintDesync {
                stored: state.placement_hash,
                recomputed,
            });
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ClusterSpec, Running};
    use spear_dag::topo::ReadyTracker;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    fn diamond() -> Dag {
        // 0 -> {1, 2} -> 3
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let l = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.4])));
        let r = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.4])));
        let d = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        b.add_edge(a, l).unwrap();
        b.add_edge(a, r).unwrap();
        b.add_edge(l, d).unwrap();
        b.add_edge(r, d).unwrap();
        b.build().unwrap()
    }

    /// Steps a first-legal-action episode to termination, auditing after
    /// every step.
    #[test]
    fn clean_episode_passes_every_check() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        let mut audit = InvariantAuditor::new();
        audit.check(&dag, &sim).unwrap();
        while !sim.is_terminal(&dag) {
            let actions = sim.legal_actions(&dag);
            sim.apply(&dag, actions[0]).unwrap();
            audit.check(&dag, &sim).unwrap();
        }
    }

    #[test]
    fn injected_overcommit_breaks_conservation() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        // Push a running entry without subtracting its demand from free.
        sim.running.push(Running {
            task: TaskId::new(0),
            finish: 2,
        });
        sim.starts[0] = Some(0);
        sim.scheduled = 1;
        sim.max_finish = 2;
        sim.tracker.take(TaskId::new(0));
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert!(matches!(err, AuditViolation::Conservation { dim: 0, .. }));
    }

    #[test]
    fn inflated_free_capacity_is_caught() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.free = ResourceVec::from_slice(&[1.25]);
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert!(matches!(
            err,
            AuditViolation::FreeExceedsCapacity { dim: 0, .. }
        ));
    }

    #[test]
    fn corrupted_used_accounting_is_caught() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        // Shrink `used` while leaving `free` consistent with the running
        // set — conservation still holds, so only the direct used-vs-
        // running cross-check can see this.
        sim.used = ResourceVec::from_slice(&[0.2]);
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert!(matches!(err, AuditViolation::UsedMismatch { dim: 0, .. }));
    }

    #[test]
    fn clock_regression_is_caught() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        let mut audit = InvariantAuditor::new();
        audit.check(&dag, &sim).unwrap();
        sim.clock = 0; // rewind behind the auditor's back
        let err = audit.check(&dag, &sim).unwrap_err();
        assert_eq!(err, AuditViolation::ClockRegression { from: 2, to: 0 });
    }

    #[test]
    fn stale_ready_entry_is_caught() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        // Replacing the tracker resets the frontier to the sources, so it
        // re-lists the already-started task 0.
        sim.tracker = ReadyTracker::new(&dag);
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::StaleReady {
                task: TaskId::new(0)
            }
        );
    }

    #[test]
    fn running_finish_must_match_start_plus_runtime() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.running[0].finish = 7; // runtime is 2, start is 0
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::StartFinishMismatch {
                task: TaskId::new(0)
            }
        );
    }

    #[test]
    fn desynced_fingerprint_is_caught() {
        // The placement hash exists from two machines on.
        let dag = diamond();
        let machines = crate::MachineSet::uniform(
            2,
            ResourceVec::from_slice(&[1.0]),
            1,
            crate::TransferMode::Direct,
            0,
            1,
        )
        .unwrap();
        let mut sim = SimState::new(&dag, &ClusterSpec::hetero(machines).unwrap()).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 1)).unwrap();
        // Flip bits in the incremental placement hash without touching the
        // state it summarizes — the from-scratch recomputation disagrees.
        sim.placement_hash ^= 0xdead_beef;
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert!(matches!(err, AuditViolation::FingerprintDesync { .. }));
    }

    #[test]
    fn scheduled_counter_mismatch_is_caught() {
        let dag = diamond();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.scheduled = 3;
        let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::CountMismatch {
                field: "scheduled",
                recorded: 3,
                derived: 1
            }
        );
    }

    mod multi_job {
        use super::*;
        use crate::{JobQueue, SimState};

        /// Two single-task jobs: one at t=0, one arriving at t=5.
        fn queue() -> JobQueue {
            let job = |runtime: u64| {
                let mut b = DagBuilder::new(1);
                b.add_task(Task::new(runtime, ResourceVec::from_slice(&[0.6])));
                b.build().unwrap()
            };
            JobQueue::new(vec![(0, job(2)), (5, job(2))]).unwrap()
        }

        #[test]
        fn clean_multi_job_episode_passes_every_check() {
            let queue = queue();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            let mut audit = InvariantAuditor::new();
            audit.check(dag, &sim).unwrap();
            while !sim.is_terminal(dag) {
                let actions = sim.legal_actions(dag);
                sim.apply(dag, actions[0]).unwrap();
                audit.check(dag, &sim).unwrap();
            }
        }

        #[test]
        fn cross_job_resource_leak_breaks_conservation() {
            // Admit the second job's task without charging `used`: the
            // resources it holds leaked across the job boundary.
            let job = |runtime: u64| {
                let mut b = DagBuilder::new(1);
                b.add_task(Task::new(runtime, ResourceVec::from_slice(&[0.6])));
                b.build().unwrap()
            };
            let queue = JobQueue::new(vec![(0, job(2)), (0, job(2))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            let leaked = TaskId::new(1);
            sim.tracker.take(leaked);
            sim.running.push(Running {
                task: leaked,
                finish: 2,
            });
            sim.starts[1] = Some(0);
            sim.scheduled += 1;
            let err = InvariantAuditor::new().check(dag, &sim).unwrap_err();
            assert!(matches!(err, AuditViolation::Conservation { dim: 0, .. }));
        }

        #[test]
        fn early_start_is_caught() {
            let queue = queue();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            sim.run_with(dag, |_, actions| actions[0]).unwrap();
            let mut audit = InvariantAuditor::new();
            audit.check(dag, &sim).unwrap();
            // Rewrite the second job's start to before its arrival at 5.
            sim.starts[1] = Some(3);
            let err = audit.check(dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::EarlyStart {
                    task: TaskId::new(1),
                    start: 3,
                    arrival: 5
                }
            );
        }

        #[test]
        fn unarrived_ready_entry_is_caught() {
            let queue = queue();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            // Leak the gated source into the frontier at t=0.
            sim.tracker.insert_ready(TaskId::new(1));
            let err = InvariantAuditor::new().check(dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::UnarrivedReady {
                    task: TaskId::new(1)
                }
            );
        }

        #[test]
        fn injected_prefix_desync_is_caught() {
            let queue = queue();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            // Claim the t=5 job was injected while the clock is still 0
            // (without touching the frontier, so only the prefix check
            // can see it).
            sim.jobs.next_arrival = 2;
            let err = InvariantAuditor::new().check(dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::CountMismatch {
                    field: "injected_jobs",
                    recorded: 2,
                    derived: 1
                }
            );
        }
    }

    mod faults {
        use super::*;
        use crate::faults::FaultPlan;
        use crate::SimState;

        fn plan(fail_rate: f64, max_retries: u32) -> FaultPlan {
            FaultPlan {
                seed: 3,
                fail_rate,
                straggler_rate: 0.4,
                straggler_factor: 1.8,
                max_retries,
            }
        }

        /// A fault-riddled episode — failures, stragglers, retries,
        /// eventually completion — passes every check at every step.
        #[test]
        fn clean_faulty_episode_passes_every_check() {
            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(plan(0.45, 8));
            let mut audit = InvariantAuditor::new();
            audit.check(&dag, &sim).unwrap();
            while !sim.is_terminal(&dag) {
                let actions = sim.legal_actions(&dag);
                sim.apply(&dag, actions[0]).unwrap();
                audit.check(&dag, &sim).unwrap();
            }
            assert!(
                sim.exhausted().is_none(),
                "retry budget of 8 should suffice"
            );
            assert!(sim.fault_failures() > 0 || sim.fault_straggles() > 0);
        }

        /// A retry-exhausted (poisoned) terminal state is still coherent:
        /// the exhausted task sits outside the frontier by design.
        #[test]
        fn exhausted_terminal_state_passes_the_audit() {
            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(plan(1.0, 1));
            let mut audit = InvariantAuditor::new();
            while !sim.is_terminal(&dag) {
                let actions = sim.legal_actions(&dag);
                sim.apply(&dag, actions[0]).unwrap();
                audit.check(&dag, &sim).unwrap();
            }
            assert!(sim.exhausted().is_some());
        }

        #[test]
        fn attempt_count_past_the_budget_is_caught() {
            let dag = diamond();
            let mut sim = SimState::new(&dag, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(plan(0.2, 2));
            sim.faults.as_deref_mut().unwrap().attempts[0] = 9;
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::RetryOverrun {
                    task: TaskId::new(0),
                    attempts: 9,
                    max_attempts: 3
                }
            );
        }

        #[test]
        fn attempt_regression_is_caught() {
            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(plan(1.0, 5));
            let mut audit = InvariantAuditor::new();
            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(&dag, Action::Process).unwrap(); // attempt 1 fails
            audit.check(&dag, &sim).unwrap();
            let f = sim.faults.as_deref_mut().unwrap();
            f.attempts[0] = 0;
            f.failed_runs.clear();
            let err = audit.check(&dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::AttemptRegression {
                    task: TaskId::new(0),
                    from: 1,
                    to: 0
                }
            );
        }

        #[test]
        fn dropped_failed_run_breaks_fault_accounting() {
            let dag = diamond();
            let mut sim = SimState::new(&dag, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(plan(1.0, 5));
            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(&dag, Action::Process).unwrap(); // attempt fails
            sim.faults.as_deref_mut().unwrap().failed_runs.clear();
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::FaultAccounting {
                    field: "failed_runs",
                    recorded: 0,
                    derived: 1
                }
            );
        }

        #[test]
        fn tampered_failure_interval_is_caught() {
            let dag = diamond();
            let mut sim = SimState::new(&dag, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(plan(1.0, 5));
            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(&dag, Action::Process).unwrap();
            // Stretch the recorded failed interval past the plan's seeded
            // failure point.
            sim.faults.as_deref_mut().unwrap().failed_runs[0].start = 0;
            sim.faults.as_deref_mut().unwrap().failed_runs[0].end = 40;
            sim.clock = 40;
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert!(matches!(
                err,
                AuditViolation::FaultAccounting {
                    field: "failed_run",
                    ..
                }
            ));
        }

        #[test]
        fn fake_exhaustion_marker_is_caught() {
            let dag = diamond();
            let mut sim = SimState::new(&dag, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(plan(0.3, 2));
            // Claim exhaustion without the attempts to back it up.
            sim.faults.as_deref_mut().unwrap().exhausted = Some(TaskId::new(0));
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::FaultAccounting {
                    field: "exhausted_attempts",
                    recorded: 0,
                    derived: 3
                }
            );
        }
    }

    mod hetero {
        use super::*;
        use crate::{MachineSet, TransferMode};

        /// Two machines: a full-size box and a half-size box, over a slow
        /// direct network.
        fn spec() -> ClusterSpec {
            let machines = MachineSet::new(
                vec![
                    ResourceVec::from_slice(&[1.0]),
                    ResourceVec::from_slice(&[0.5]),
                ],
                vec![4, 2, 2, 4],
                TransferMode::Direct,
                7,
                16,
            )
            .unwrap();
            ClusterSpec::hetero(machines).unwrap()
        }

        #[test]
        fn clean_hetero_episode_passes_every_check() {
            let dag = diamond();
            let spec = spec();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            let mut audit = InvariantAuditor::new();
            audit.check(&dag, &sim).unwrap();
            while !sim.is_terminal(&dag) {
                let actions = sim.legal_actions(&dag);
                sim.apply(&dag, actions[0]).unwrap();
                audit.check(&dag, &sim).unwrap();
            }
        }

        #[test]
        fn corrupted_machine_used_is_caught() {
            let dag = diamond();
            let spec = spec();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            let place = sim
                .legal_actions(&dag)
                .into_iter()
                .find(|a| a.machine() == Some(0))
                .unwrap();
            sim.apply(&dag, place).unwrap();
            // Shrink machine 0's `used` while its `free` still reconciles
            // with the running set — only the per-machine used-vs-running
            // cross-check can see this.
            sim.machine_used[0] = ResourceVec::from_slice(&[0.1]);
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert!(matches!(
                err,
                AuditViolation::MachineUsedMismatch { machine: 0, .. }
            ));
        }

        #[test]
        fn inflated_machine_free_breaks_machine_conservation() {
            let dag = diamond();
            let spec = spec();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            sim.machine_free[1] = ResourceVec::from_slice(&[0.9]);
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert!(matches!(
                err,
                AuditViolation::MachineConservation { machine: 1, .. }
            ));
        }

        #[test]
        fn dangling_machine_assignment_is_caught() {
            let dag = diamond();
            let spec = spec();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            // Assign a machine to a task that never started.
            sim.machine_of[2] = Some(1);
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert_eq!(
                err,
                AuditViolation::MachineAssignment {
                    task: TaskId::new(2)
                }
            );
        }

        #[test]
        fn transfer_gated_start_violation_is_caught() {
            let dag = diamond();
            let spec = spec();
            let machines = spec.machines();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            // Run the episode placing everything on machine 0 (no
            // transfers), then rewrite task 1's assignment to machine 1:
            // its recorded start now sits inside the re-derived transfer
            // window of the cross-machine edge 0 -> 1.
            while !sim.is_terminal(&dag) {
                let actions = sim.legal_actions(&dag);
                let a = actions
                    .iter()
                    .copied()
                    .find(|a| a.machine() == Some(0))
                    .unwrap_or(Action::Process);
                sim.apply(&dag, a).unwrap();
            }
            assert!(machines.edge_delay(0, 1, 0, 1) > 0);
            sim.machine_of[1] = Some(1);
            let err = InvariantAuditor::new().check(&dag, &sim).unwrap_err();
            assert!(matches!(
                err,
                AuditViolation::TransferGatedStart {
                    parent,
                    child,
                    ..
                } if parent == TaskId::new(0) && child == TaskId::new(1)
            ));
        }
    }

    mod corruption_properties {
        //! Property tests: whatever (reachable) state an episode is in,
        //! each class of injected corruption is rejected with the right
        //! [`AuditViolation`] — and, through [`EpisodeDriver`], surfaces
        //! as [`SpearError::Audit`] before any further action is taken.

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use spear_dag::generator::LayeredDagSpec;

        use super::*;
        use crate::env::{EpisodeDriver, FnPolicy, NoRng, SimEnv};
        use crate::{ClusterSpec, Running, SimState, SpearError};

        fn random_dag(num_tasks: usize, seed: u64) -> Dag {
            let spec = LayeredDagSpec {
                num_tasks,
                min_width: 1,
                max_width: 4,
                ..LayeredDagSpec::paper_simulation()
            };
            spec.generate(&mut StdRng::seed_from_u64(seed))
        }

        /// Steps a seeded random policy for up to `steps` actions,
        /// stopping early at terminal states.
        fn random_prefix(dag: &Dag, sim: &mut SimState, seed: u64, steps: usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..steps {
                if sim.is_terminal(dag) {
                    break;
                }
                let legal = sim.legal_actions(dag);
                sim.apply(dag, legal[rng.gen_range(0..legal.len())])
                    .unwrap();
            }
        }

        /// Drives the corrupted state through an [`EpisodeDriver`] and
        /// returns the audit violation it must surface as
        /// [`SpearError::Audit`] before the first decision.
        fn driver_verdict(dag: &Dag, spec: &ClusterSpec, sim: SimState) -> AuditViolation {
            let mut env = SimEnv::from_state(dag, spec, sim);
            let mut driver = EpisodeDriver::new(FnPolicy(|env: &SimEnv<'_>| {
                env.observe().legal_actions(env.dag())[0]
            }))
            .with_audit(true);
            match driver.drive(&mut env, &mut NoRng) {
                Err(SpearError::Audit(v)) => v,
                other => panic!("corrupted state was not rejected as an audit error: {other:?}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// A running entry injected without resource accounting breaks
            /// conservation, whatever state the episode was in.
            #[test]
            fn injected_overcommit_is_rejected(
                num_tasks in 2usize..24,
                dag_seed in any::<u64>(),
                policy_seed in any::<u64>(),
                steps in 0usize..20,
            ) {
                let dag = random_dag(num_tasks, dag_seed);
                let spec = ClusterSpec::unit(2);
                let mut sim = SimState::new(&dag, &spec).unwrap();
                random_prefix(&dag, &mut sim, policy_seed, steps);
                let Some(&t) = sim.tracker.ready().first() else {
                    // Every task is already scheduled; nothing to inject.
                    return Ok(());
                };
                // Mimic schedule_unchecked but skip the `used` update.
                let finish = sim.clock + dag.task(t).runtime();
                sim.tracker.take(t);
                sim.running.push(Running { task: t, finish });
                sim.starts[t.index()] = Some(sim.clock);
                sim.scheduled += 1;
                sim.max_finish = sim.max_finish.max(finish);
                let v = driver_verdict(&dag, &spec, sim);
                prop_assert!(
                    matches!(v, AuditViolation::Conservation { .. }),
                    "expected Conservation, got {v}"
                );
            }

            /// Resetting the tracker re-lists an already-started source:
            /// a stale ready entry, caught as such.
            #[test]
            fn stale_ready_entry_is_rejected(
                num_tasks in 1usize..24,
                dag_seed in any::<u64>(),
            ) {
                let dag = random_dag(num_tasks, dag_seed);
                let spec = ClusterSpec::unit(2);
                let mut sim = SimState::new(&dag, &spec).unwrap();
                // The first legal action in any initial state schedules a
                // source (sources always fit an empty cluster).
                let legal = sim.legal_actions(&dag);
                sim.apply(&dag, legal[0]).unwrap();
                sim.tracker = ReadyTracker::new(&dag);
                let v = driver_verdict(&dag, &spec, sim);
                prop_assert!(
                    matches!(v, AuditViolation::StaleReady { .. }),
                    "expected StaleReady, got {v}"
                );
            }

            /// A multi-machine placement hash desynced from the state it
            /// summarizes is rejected before the first decision, whatever
            /// (reachable) state the episode was in.
            #[test]
            fn desynced_fingerprint_is_rejected(
                num_tasks in 2usize..24,
                dag_seed in any::<u64>(),
                policy_seed in any::<u64>(),
                steps in 0usize..20,
                flip in any::<u64>(),
                machines in 2usize..4,
            ) {
                let dag = random_dag(num_tasks, dag_seed);
                let set = crate::MachineSet::uniform(
                    machines,
                    ResourceVec::splat(2, 1.0),
                    2,
                    crate::TransferMode::Direct,
                    dag_seed,
                    4,
                )
                .unwrap();
                let spec = ClusterSpec::hetero(set).unwrap();
                let mut sim = SimState::new(&dag, &spec).unwrap();
                random_prefix(&dag, &mut sim, policy_seed, steps);
                // `| 1` guarantees at least one bit actually flips.
                sim.placement_hash ^= flip | 1;
                let v = driver_verdict(&dag, &spec, sim);
                prop_assert!(
                    matches!(v, AuditViolation::FingerprintDesync { .. }),
                    "expected FingerprintDesync, got {v}"
                );
            }

            /// A clock rewound mid-drive is caught as a regression on the
            /// very next audited step.
            #[test]
            fn rewound_clock_is_rejected(
                num_tasks in 1usize..24,
                dag_seed in any::<u64>(),
                policy_seed in any::<u64>(),
            ) {
                let dag = random_dag(num_tasks, dag_seed);
                let spec = ClusterSpec::unit(2);
                let mut sim = SimState::new(&dag, &spec).unwrap();
                // Run to termination so the clock is strictly positive.
                random_prefix(&dag, &mut sim, policy_seed, usize::MAX);
                prop_assert!(sim.clock() > 0);
                let mut audit = InvariantAuditor::new();
                audit.check(&dag, &sim).unwrap();
                sim.clock = 0;
                let v = audit.check(&dag, &sim).unwrap_err();
                prop_assert!(
                    matches!(v, AuditViolation::ClockRegression { .. }),
                    "expected ClockRegression, got {v}"
                );
            }
        }
    }

    #[test]
    fn violation_messages_are_nonempty() {
        let violations = [
            AuditViolation::UsedMismatch {
                dim: 0,
                used: 0.2,
                committed: 0.5,
            },
            AuditViolation::Conservation {
                dim: 0,
                free: 1.0,
                committed: 0.5,
                capacity: 1.0,
            },
            AuditViolation::FreeExceedsCapacity {
                dim: 1,
                free: 1.5,
                capacity: 1.0,
            },
            AuditViolation::ClockRegression { from: 5, to: 2 },
            AuditViolation::StartFinishMismatch {
                task: TaskId::new(0),
            },
            AuditViolation::StaleReady {
                task: TaskId::new(1),
            },
            AuditViolation::MissingReady {
                task: TaskId::new(2),
            },
            AuditViolation::CountMismatch {
                field: "completed",
                recorded: 1,
                derived: 2,
            },
            AuditViolation::FingerprintDesync {
                stored: 0xdead_beef,
                recomputed: 0xcafe_f00d,
            },
            AuditViolation::EarlyStart {
                task: TaskId::new(3),
                start: 2,
                arrival: 5,
            },
            AuditViolation::UnarrivedReady {
                task: TaskId::new(4),
            },
            AuditViolation::RetryOverrun {
                task: TaskId::new(5),
                attempts: 4,
                max_attempts: 3,
            },
            AuditViolation::AttemptRegression {
                task: TaskId::new(6),
                from: 2,
                to: 1,
            },
            AuditViolation::FaultAccounting {
                field: "failed_runs",
                recorded: 3,
                derived: 2,
            },
            AuditViolation::MachineUsedMismatch {
                machine: 1,
                dim: 0,
                used: 0.2,
                committed: 0.5,
            },
            AuditViolation::MachineConservation {
                machine: 0,
                dim: 1,
                free: 1.0,
                committed: 0.5,
                capacity: 1.0,
            },
            AuditViolation::MachineAssignment {
                task: TaskId::new(7),
            },
            AuditViolation::TransferGatedStart {
                parent: TaskId::new(0),
                child: TaskId::new(1),
                start: 3,
                ready: 5,
            },
        ];
        for v in violations {
            assert!(!v.to_string().is_empty());
        }
    }
}
