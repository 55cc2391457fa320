//! The cloneable simulation state.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spear_dag::topo::ReadyTracker;
use spear_dag::{Dag, ResourceVec, TaskId, FIT_EPSILON};

use crate::faults::{FailedRun, FaultOutcome, FaultPlan, FaultState};
use crate::hetero::MachineSet;
use crate::jobs::{JobLedger, JobQueue};
use crate::{Action, ClusterError, ClusterSpec, Placement, Schedule};

/// Seed of the frontier fingerprint fold (an arbitrary odd constant).
const FRONTIER_SEED: u64 = 0x27d4_eb2f_1656_67c5;

/// SplitMix64 finalizer: a cheap full-avalanche bijection on `u64`. The
/// one mixing function behind the frontier fingerprint, the fault plan's
/// draws, the machine set's edge payloads and the inference cache's keys.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The inner mix of [`machine_placement_key`]: one finalizer over an
/// odd-multiplier combination of `(task, start)`, so distinct pairs
/// collide pre-mix only on a 64-bit coincidence of the linear map.
#[inline]
fn placement_key(task: usize, start: u64) -> u64 {
    mix64(
        (task as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ start.wrapping_mul(0xff51_afd7_ed55_8ccd),
    )
}

/// Zobrist-style key of one committed placement `(task, start, machine)`
/// on a cluster of two or more machines. Start times are unbounded, so
/// keys are mixed on demand rather than drawn from a pretabulated random
/// table; the `+ 1` keeps machine 0 from degenerating to a zero mix term.
#[inline]
fn machine_placement_key(task: usize, start: u64, machine: u32) -> u64 {
    mix64(placement_key(task, start) ^ (u64::from(machine) + 1).wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// Order-sensitive fold of one component into the frontier fingerprint.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix64(h.wrapping_add(mix64(v)))
}

/// A task currently occupying the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Running {
    /// The occupying task.
    pub task: TaskId,
    /// Absolute time slot at which it releases its resources.
    pub finish: u64,
}

/// The full state of a scheduling simulation: clock, free capacity, running
/// tasks, ready frontier and the placements committed so far.
///
/// `SimState` is intentionally `Clone`-cheap (a handful of `Vec`s) so that
/// MCTS can snapshot one per search-tree node. The DAG itself is *not* part
/// of the state — callers pass `&Dag` to each operation, which keeps clones
/// small and lets thousands of states share one graph.
///
/// The state machine accepts the two [`Action`]s of the paper's decoupled
/// action space and enforces their legality; see [`SimState::legal_actions`]
/// for the exact filter (which doubles as the paper's §III-C expansion
/// pruning).
///
/// Every state runs on a [`MachineSet`]; the paper's single box is the
/// one-machine set. Machine terms (per-machine rows, transfer gates,
/// the placement hash and the frontier key's machine folds) appear only
/// from two machines on, so a one-machine state steps, clones and keys
/// like the single box always did.
#[derive(Debug, PartialEq)]
pub struct SimState {
    // Fields are `pub(crate)` so the invariant auditor (`crate::audit`) can
    // cross-check them — and its tests can corrupt them — without widening
    // the public API.
    pub(crate) clock: u64,
    pub(crate) capacity: ResourceVec,
    // `used` is the accounting truth: the summed demand of the running set,
    // and the basis of every admission decision. Sum-based admission
    // (`used + demand <= capacity + FIT_EPSILON`) is order-independent and
    // cannot stack more than one epsilon of over-commit, unlike the
    // per-admission `demand <= free + FIT_EPSILON` rule it replaced, whose
    // saturating subtraction let epsilon debt survive partial completions
    // and made feasibility depend on the order tasks were admitted in.
    pub(crate) used: ResourceVec,
    // Derived view `max(0, capacity - used)`, refreshed after every
    // mutation of `used`; kept as a field so `free()` can return a
    // reference without allocating.
    pub(crate) free: ResourceVec,
    pub(crate) running: Vec<Running>,
    pub(crate) tracker: ReadyTracker,
    pub(crate) starts: Vec<Option<u64>>,
    pub(crate) scheduled: usize,
    pub(crate) max_finish: u64,
    // Incrementally maintained XOR-set of `machine_placement_key`s, one
    // per committed placement, that the frontier fingerprint folds from
    // two machines on; 0 on a one-machine cluster, whose frontier key
    // never reads it. Maintenance is one key mix per `Place` (and per
    // retracted attempt); `Process` pays nothing. The invariant auditor
    // recomputes it from scratch and reports any drift as a caught
    // violation rather than a silent wrong cache hit.
    pub(crate) placement_hash: u64,
    // Arrival bookkeeping: which jobs of the queue have reached the
    // frontier. Always present — a bare DAG is the one-job queue that
    // arrives at time 0.
    pub(crate) jobs: JobLedger,
    // Fault-injection bookkeeping; `None` in fault-free episodes, which
    // therefore stay bit-identical to the pre-fault simulator (every
    // fault branch below is behind this option). Boxed so the fault-free
    // state grows by one pointer.
    pub(crate) faults: Option<Box<FaultState>>,
    // The machine set (capacities + network model), shared by the spec
    // and every state of the episode.
    pub(crate) machines: Arc<MachineSet>,
    // Per-machine rows, present from two machines on: the summed demand
    // running on each machine (the per-machine admission truth, same
    // sum-based rule as `used`) and its derived `free`. A one-machine
    // cluster keeps both empty — its only machine's row *is* the
    // aggregate `used`/`free` pair, so it pays for no mirror.
    pub(crate) machine_used: Vec<ResourceVec>,
    pub(crate) machine_free: Vec<ResourceVec>,
    // Machine of every started task (`None` before its start; retracted
    // when a faulty attempt aborts). Empty on a one-machine cluster,
    // where every started task runs on machine 0.
    pub(crate) machine_of: Vec<Option<u32>>,
}

// Manual `Clone` so `clone_from` reuses every interior allocation. MCTS
// clones one state per rollout; with `clone_from` into a persistent scratch
// state the steady-state rollout loop does zero heap allocations, whatever
// the machine count (the per-machine rows are plain vectors too, and the
// shared machine set is only re-pointed when it differs).
impl Clone for SimState {
    fn clone(&self) -> Self {
        SimState {
            clock: self.clock,
            capacity: self.capacity.clone(),
            used: self.used.clone(),
            free: self.free.clone(),
            running: self.running.clone(),
            tracker: self.tracker.clone(),
            starts: self.starts.clone(),
            scheduled: self.scheduled,
            max_finish: self.max_finish,
            placement_hash: self.placement_hash,
            jobs: self.jobs.clone(),
            faults: self.faults.clone(),
            machines: Arc::clone(&self.machines),
            machine_used: self.machine_used.clone(),
            machine_free: self.machine_free.clone(),
            machine_of: self.machine_of.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.clock = source.clock;
        self.capacity.clone_from(&source.capacity);
        self.used.clone_from(&source.used);
        self.free.clone_from(&source.free);
        self.running.clone_from(&source.running);
        self.tracker.clone_from(&source.tracker);
        self.starts.clone_from(&source.starts);
        self.scheduled = source.scheduled;
        self.max_finish = source.max_finish;
        self.jobs.clone_from(&source.jobs);
        match (&mut self.faults, &source.faults) {
            // Reuse the boxed bookkeeping's interior vectors.
            (Some(dst), Some(src)) => dst.as_mut().clone_from(src.as_ref()),
            (dst, src) => *dst = src.clone(),
        }
        if !Arc::ptr_eq(&self.machines, &source.machines) {
            self.machines = Arc::clone(&source.machines);
        }
        // One-machine states carry no rows and no placement hash: skip
        // three empty copies and a zero.
        if self.spans_machines() || source.spans_machines() {
            self.placement_hash = source.placement_hash;
            self.machine_used.clone_from(&source.machine_used);
            self.machine_free.clone_from(&source.machine_free);
            self.machine_of.clone_from(&source.machine_of);
        }
    }
}

impl SimState {
    /// Creates the initial state (time 0, empty cluster, sources ready):
    /// the episode of `dag` as the one-job queue that arrives at time 0.
    /// It equals [`SimState::new_multi`] on `JobQueue::single(dag)` in
    /// every field.
    ///
    /// # Errors
    ///
    /// Fails if the DAG does not fit the cluster (dimension mismatch or a
    /// task demanding more than total capacity — such a task could never be
    /// scheduled and the simulation would deadlock).
    pub fn new(dag: &Dag, spec: &ClusterSpec) -> Result<Self, ClusterError> {
        Self::with_jobs(dag, spec, JobLedger::single(dag.len()))
    }

    /// Creates the initial state of an episode over `queue`'s union DAG:
    /// time 0, empty cluster, and *only* the sources of jobs arriving at
    /// time 0 ready — later jobs' sources are withheld from the frontier
    /// until the clock crosses their arrival (a `Process` action advances
    /// to the earlier of the next task completion and the next arrival).
    ///
    /// # Errors
    ///
    /// Fails if the union DAG does not fit the cluster, exactly as
    /// [`SimState::new`].
    pub fn new_multi(queue: &JobQueue, spec: &ClusterSpec) -> Result<Self, ClusterError> {
        Self::with_jobs(queue.union_dag(), spec, JobLedger::new(queue))
    }

    fn with_jobs(dag: &Dag, spec: &ClusterSpec, jobs: JobLedger) -> Result<Self, ClusterError> {
        spec.validate_dag(dag)?;
        let machines = Arc::clone(spec.shared_machines());
        let rows = if machines.len() > 1 {
            machines.len()
        } else {
            0
        };
        let mut state = SimState {
            clock: 0,
            capacity: spec.capacity().clone(),
            used: ResourceVec::zeros(spec.capacity().dims()),
            free: spec.capacity().clone(),
            running: Vec::new(),
            tracker: ReadyTracker::new(dag),
            starts: vec![None; dag.len()],
            scheduled: 0,
            max_finish: 0,
            placement_hash: 0,
            jobs,
            faults: None,
            machine_used: vec![ResourceVec::zeros(spec.dims()); rows],
            machine_free: machines.capacities()[..rows].to_vec(),
            machine_of: vec![None; if rows > 0 { dag.len() } else { 0 }],
            machines,
        };
        // `ReadyTracker::new` seeded every source; withhold them all and
        // let `advance_arrivals` re-inject the time-0 jobs, so arrival
        // injection has exactly one code path. Sources are the only tasks
        // that need gating — every other task has a pending parent in its
        // own job (cross-job edges do not exist in the union DAG).
        let withheld: Vec<TaskId> = state.tracker.ready().to_vec();
        for t in withheld {
            state.tracker.take(t);
        }
        state.advance_arrivals(dag);
        Ok(state)
    }

    /// Attaches a fault plan to a *fresh* state (no task scheduled yet).
    /// A [`FaultPlan::none`] plan attaches nothing: the state stays
    /// bit-identical — same frontier key, same serialization — to one
    /// that never saw a plan.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the simulation has already started.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        debug_assert_eq!(
            self.scheduled, 0,
            "fault plans must be attached before the simulation starts"
        );
        if !plan.is_none() {
            self.faults = Some(Box::new(FaultState::new(plan, self.starts.len())));
        }
        self
    }

    /// Current simulation time.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Free capacity at the current time: `max(0, capacity - used)` per
    /// dimension. This is a derived view for featurization and scoring;
    /// admission decisions compare against [`SimState::used`] directly so
    /// that feasibility is independent of admission order.
    #[inline]
    pub fn free(&self) -> &ResourceVec {
        &self.free
    }

    /// Summed demand of the running set — the accounting truth behind
    /// every admission decision. May exceed capacity by at most
    /// [`FIT_EPSILON`] per dimension (one epsilon-tolerant admission).
    #[inline]
    pub fn used(&self) -> &ResourceVec {
        &self.used
    }

    /// Total cluster capacity the state was created with.
    #[inline]
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Tasks currently occupying the cluster.
    pub fn running(&self) -> &[Running] {
        &self.running
    }

    /// Ready tasks (all parents completed, not yet scheduled), sorted by id.
    #[inline]
    pub fn ready(&self) -> &[TaskId] {
        self.tracker.ready()
    }

    /// Number of completed tasks.
    pub fn completed(&self) -> usize {
        self.tracker.completed()
    }

    /// Start time of `task`, if it has been scheduled.
    pub fn start_of(&self, task: TaskId) -> Option<u64> {
        self.starts[task.index()]
    }

    /// `true` once every task has been scheduled (they may still be
    /// running; the makespan is already determined at that point, but the
    /// simulation only becomes [terminal](Self::is_terminal) after the
    /// final `Process` actions retire them).
    #[inline]
    pub fn all_scheduled(&self) -> bool {
        self.scheduled == self.starts.len()
    }

    /// `true` when every task has completed — or a task exhausted its
    /// retry budget, which poisons the episode (see
    /// [`SimState::exhausted`]).
    #[inline]
    pub fn is_terminal(&self, dag: &Dag) -> bool {
        self.tracker.all_done(dag) || self.exhausted().is_some()
    }

    /// The makespan — the time the last task finishes — or `None` while
    /// some task is still unfinished.
    #[inline]
    pub fn makespan(&self) -> Option<u64> {
        (self.running.is_empty() && self.all_scheduled()).then_some(self.max_finish)
    }

    /// Largest finish time committed so far (a lower bound on the final
    /// makespan).
    pub fn max_finish(&self) -> u64 {
        self.max_finish
    }

    /// Earliest finish time among running tasks, if any.
    #[inline]
    pub fn earliest_finish(&self) -> Option<u64> {
        self.running.iter().map(|r| r.finish).min()
    }

    /// The attached fault plan, if any ([`SimState::with_faults`]).
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref().map(|f| &f.plan)
    }

    /// The task that exhausted its retry budget and poisoned the
    /// episode, if any. A poisoned state is [terminal](Self::is_terminal)
    /// but yields no schedule.
    #[inline]
    pub fn exhausted(&self) -> Option<TaskId> {
        self.faults.as_deref().and_then(|f| f.exhausted)
    }

    /// Execution attempts started for `task` (0 before its first start;
    /// always ≤ `max_retries + 1`). Without a fault plan every started
    /// task has exactly one attempt.
    #[inline]
    pub fn attempts_of(&self, task: TaskId) -> u32 {
        match self.faults.as_deref() {
            Some(f) => f.attempts[task.index()],
            None => u32::from(self.starts[task.index()].is_some()),
        }
    }

    /// Total failed execution attempts so far (0 without a fault plan).
    #[inline]
    pub fn fault_failures(&self) -> u64 {
        self.faults
            .as_deref()
            .map_or(0, |f| f.failed_runs.len() as u64)
    }

    /// Total straggling execution attempts started so far.
    #[inline]
    pub fn fault_straggles(&self) -> u64 {
        self.faults.as_deref().map_or(0, |f| f.straggles)
    }

    /// Every aborted execution attempt so far, in failure order. The
    /// capacity these runs held over `[start, end)` is part of the
    /// realized resource usage.
    #[inline]
    pub fn failed_runs(&self) -> &[FailedRun] {
        self.faults.as_deref().map_or(&[], |f| &f.failed_runs)
    }

    /// Clock of `task`'s most recent failed attempt (the `end` of its
    /// latest [`FailedRun`]), or `None` if it has never failed.
    pub fn last_failure_of(&self, task: TaskId) -> Option<u64> {
        self.failed_runs()
            .iter()
            .rev()
            .find(|run| run.task == task)
            .map(|run| run.end)
    }

    /// Slots the *current* (or final) execution attempt of `task`
    /// occupies the cluster for: its fault-free runtime unless the
    /// attached plan fails it early or straggles it long. Falls back to
    /// the plain runtime for never-started tasks and fault-free states —
    /// this is the effective-duration ground truth shared by
    /// [`SimState::into_schedule`], the invariant auditor and the
    /// fault-aware judges.
    pub fn run_slots_of(&self, dag: &Dag, task: TaskId) -> u64 {
        let runtime = dag.task(task).runtime();
        match self.faults.as_deref() {
            Some(f) if f.attempts[task.index()] > 0 => {
                f.plan
                    .run_slots(task, f.attempts[task.index()] - 1, runtime)
            }
            _ => runtime,
        }
    }

    /// Jobs whose arrival time the clock has not reached yet.
    #[inline]
    pub fn pending_jobs(&self) -> usize {
        self.jobs.pending_jobs()
    }

    /// Arrived jobs with at least one task not yet done, derived on each
    /// call. A task is done once started and no longer running (the
    /// invariant auditor's rule), so a job stays in flight while a failed
    /// attempt has re-queued its last task.
    pub fn jobs_in_flight(&self) -> usize {
        (0..self.jobs.next_arrival)
            .filter(|&job| {
                let tasks = self.jobs.job_range(job);
                tasks.clone().any(|i| self.starts[i].is_none())
                    || self.running.iter().any(|r| tasks.contains(&r.task.index()))
            })
            .count()
    }

    /// Arrival time of the next not-yet-arrived job — always strictly
    /// after the current clock (jobs whose arrival the clock has reached
    /// are injected into the frontier eagerly).
    #[inline]
    pub fn next_arrival(&self) -> Option<u64> {
        self.jobs.next_arrival_time()
    }

    /// The queue index of the job owning `task` (0 for a bare DAG).
    pub fn job_of(&self, task: TaskId) -> usize {
        self.jobs.job_of(task.index())
    }

    /// The machine set this state runs on (one machine for a single box).
    #[inline]
    pub fn machines(&self) -> &MachineSet {
        &self.machines
    }

    /// Number of machines (1 for a single box).
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has two or more machines: only then do
    /// placements carry machine terms (per-machine rows, transfer gates,
    /// the placement hash).
    #[inline]
    fn spans_machines(&self) -> bool {
        !self.machine_used.is_empty()
    }

    /// The machine `task` was placed on, `None` before the task starts.
    #[inline]
    pub fn machine_of(&self, task: TaskId) -> Option<u32> {
        if self.spans_machines() {
            self.machine_of[task.index()]
        } else {
            self.starts[task.index()].map(|_| 0)
        }
    }

    /// Summed demand of the tasks running on machine `m` (the aggregate
    /// [`SimState::used`] on a one-machine cluster).
    #[inline]
    pub fn machine_used(&self, m: u32) -> &ResourceVec {
        self.machine_row(m).0
    }

    /// Free capacity of machine `m` (the aggregate [`SimState::free`] on
    /// a one-machine cluster).
    #[inline]
    pub fn machine_free(&self, m: u32) -> &ResourceVec {
        if self.spans_machines() {
            &self.machine_free[m as usize]
        } else {
            &self.free
        }
    }

    /// Machine `m`'s admission row: the summed demand running on it and
    /// its capacity — the aggregate pair on a one-machine cluster.
    #[inline]
    fn machine_row(&self, m: u32) -> (&ResourceVec, &ResourceVec) {
        if self.spans_machines() {
            (&self.machine_used[m as usize], self.machines.capacity(m))
        } else {
            (&self.used, &self.capacity)
        }
    }

    /// Earliest slot at which `task` could start on machine `m` once its
    /// parents' outputs have arrived there: the max over parents of
    /// `parent_finish + transfer_delay`; 0 for sources and on a
    /// one-machine cluster, which has no links. Only meaningful for
    /// *ready* tasks (every parent started and finished).
    #[inline]
    pub fn transfer_ready_on(&self, dag: &Dag, task: TaskId, m: u32) -> u64 {
        if !self.spans_machines() {
            return 0;
        }
        dag.parents(task)
            .iter()
            .map(|&p| self.transfer_arrival(dag, p, task, m))
            .max()
            .unwrap_or(0)
    }

    /// Slot at which the output of the finished parent `p` reaches
    /// machine `m` for `task` (a machine-spanning state only).
    fn transfer_arrival(&self, dag: &Dag, p: TaskId, task: TaskId, m: u32) -> u64 {
        let start = self.starts[p.index()].expect("transfer_ready_on requires a ready task");
        let finish = start + self.run_slots_of(dag, p);
        let src = self.machine_of[p.index()].expect("completed parent has a machine");
        finish + self.machines.edge_delay(p.index(), task.index(), src, m)
    }

    /// Whether `task` fits machine `m`'s remaining capacity and has every
    /// parent's output on `m` already (readiness is the caller's check).
    #[inline]
    fn fits_on(&self, dag: &Dag, task: TaskId, m: u32) -> bool {
        let (used, capacity) = self.machine_row(m);
        Self::admits_in(used, dag.task(task).demand(), capacity)
            && self.transfer_ready_on(dag, task, m) <= self.clock
    }

    /// Whether `task` is ready, fits machine `m`'s remaining capacity,
    /// and has every parent's output already transferred to `m`.
    pub fn can_schedule_on(&self, dag: &Dag, task: TaskId, m: u32) -> bool {
        self.tracker.ready().binary_search(&task).is_ok()
            && (m as usize) < self.machines.len()
            && self.fits_on(dag, task, m)
    }

    /// A 64-bit fingerprint of the scheduling *frontier*: the ready set
    /// (already sorted by id), the running vector with clock-*relative*
    /// finish times (in vector order), the completion count, and the
    /// exact bit patterns of `used`. It deliberately excludes committed
    /// placements and the absolute clock (on one machine): two states
    /// that placed their *finished* work differently (or at different
    /// times) but arrived at the same frontier share a frontier
    /// fingerprint. It is the only state key; the policy inference cache
    /// in `spear-rl` reads it.
    ///
    /// This is exactly the information a frontier-local function of the
    /// state can read. The DRL featurizer is one: its occupancy image
    /// spans `[clock, clock + horizon)` (so only relative finishes
    /// matter) and accumulates in running-vector order (so the fold is
    /// order-sensitive), its ready slots and legality mask derive from
    /// the ready set, static task data and `used` (whose low-order bits,
    /// a function of admission history, feed the sum-based admission
    /// rule, so they are folded by bit pattern), and its globals from the
    /// ready/running/completed counts. It reads no retry history, so a
    /// fault plan's attempt counts are not folded. Equal frontier
    /// fingerprints (absent a 64-bit collision) therefore imply
    /// bit-identical policy featurization — which is what lets the cache
    /// serve hits *across* decisions and rollout trajectories that merely
    /// reconverge to the same frontier.
    pub fn frontier_fingerprint(&self) -> u64 {
        let ready = self.tracker.ready();
        // Section lengths first, so (ready, running) item sequences of
        // different shapes can't fold to the same prefix.
        let mut h = fold(
            FRONTIER_SEED,
            (ready.len() as u64) | ((self.running.len() as u64) << 32),
        );
        for &t in ready {
            h = fold(h, (t.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        for r in &self.running {
            h = fold(
                h,
                (r.task.index() as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53)
                    ^ (r.finish - self.clock),
            );
        }
        h = fold(h, self.completed() as u64);
        for &u in self.used.as_slice() {
            h = fold(h, u.to_bits());
        }
        // Arrivals: two states with the same visible frontier but
        // different queued-arrival outlooks must not share a key, so fold
        // the pending-job count and the clock-*relative* distance to the
        // next arrival (relative, like the running finishes, to stay
        // history-free). A one-job episode folds nothing: its only
        // pre-arrival state is also its only state with an empty frontier,
        // nothing running and nothing completed.
        if self.jobs.jobs() > 1 {
            h = fold(h, self.jobs.pending_jobs() as u64);
            if let Some(arrival) = self.jobs.next_arrival_time() {
                h = fold(h, arrival - self.clock);
            }
        }
        // Two or more machines: the legality mask depends on where
        // *completed* parents ran (transfer gating reads their finish
        // times and machines), which the frontier deliberately does not
        // capture. Rather than weaken the equal-fingerprint ⇒
        // equal-featurization contract, fold the full placement set and
        // the absolute clock back in: such frontier keys give up
        // cross-history cache hits but never alias states with different
        // transfer outlooks. A one-machine cluster has no transfers and
        // folds nothing, keeping the single box's cross-history hits.
        if self.spans_machines() {
            h = fold(h, self.placement_hash);
            h = fold(h, self.clock);
            for mu in &self.machine_used {
                for &u in mu.as_slice() {
                    h = fold(h, u.to_bits());
                }
            }
        }
        h
    }

    /// Recomputes the incrementally maintained placement hash from
    /// scratch — the invariant auditor's ground truth. Always 0 on a
    /// one-machine cluster, which maintains none.
    pub(crate) fn recompute_placement_hash(&self) -> u64 {
        if !self.spans_machines() {
            return 0;
        }
        let placed = self.starts.iter().zip(&self.machine_of).enumerate();
        placed.fold(0, |h, (i, placement)| match placement {
            (Some(start), Some(m)) => h ^ machine_placement_key(i, *start, *m),
            _ => h,
        })
    }

    /// Sum-based feasibility: `used + demand <= capacity + FIT_EPSILON` in
    /// every dimension, against one machine's `(used, capacity)` row. The
    /// same arithmetic as `Schedule::validate` and the `ResourceTimeline`,
    /// so the three can never disagree about what fits.
    #[inline]
    fn admits_in(used: &ResourceVec, demand: &ResourceVec, capacity: &ResourceVec) -> bool {
        used.as_slice()
            .iter()
            .zip(demand.as_slice())
            .zip(capacity.as_slice())
            .all(|((&u, &d), &c)| u + d <= c + FIT_EPSILON)
    }

    /// Whether `task` is ready and fits the remaining capacity of *some*
    /// machine, with its transfers there complete: readiness (a binary
    /// search of the id-sorted ready set) and then
    /// [`SimState::fits_somewhere`].
    pub fn can_schedule(&self, dag: &Dag, task: TaskId) -> bool {
        self.tracker.ready().binary_search(&task).is_ok() && self.fits_somewhere(dag, task)
    }

    /// Whether `task` fits the remaining capacity of *some* machine now,
    /// with its parents' outputs already on that machine. Readiness is
    /// the caller's check: a caller that draws `task` from
    /// [`SimState::ready`] (the DRL featurizer's legality mask) asks
    /// only this.
    pub fn fits_somewhere(&self, dag: &Dag, task: TaskId) -> bool {
        (0..self.machines.len() as u32).any(|m| self.fits_on(dag, task, m))
    }

    /// Earliest future instant at which waiting alone (no completion, no
    /// arrival) unlocks a currently-blocked `(ready task, machine)` pair:
    /// the minimum pending transfer-release time. `None` when no such
    /// pair exists (always on a one-machine cluster, where starts are
    /// never transfer-gated).
    fn next_transfer_release(&self, dag: &Dag) -> Option<u64> {
        if !self.spans_machines() {
            return None;
        }
        let mut next: Option<u64> = None;
        for &t in self.tracker.ready() {
            let demand = dag.task(t).demand();
            for m in 0..self.machines.len() as u32 {
                let (used, capacity) = self.machine_row(m);
                if !Self::admits_in(used, demand, capacity) {
                    continue;
                }
                let at = self.transfer_ready_on(dag, t, m);
                if at > self.clock {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        next
    }

    /// The legal actions in this state, in deterministic order (placements
    /// sorted by task id, then machine, then `Process`).
    ///
    /// This implements the paper's expansion filters (§III-C):
    ///
    /// 1. `Process` is only legal when the cluster is non-empty (otherwise
    ///    time could never advance).
    /// 2. `Place(t, m)` is only legal when `t` is ready *and fits machine
    ///    `m`'s free capacity right now*, with its parents' outputs on `m`
    ///    — i.e. it can start before the earliest finish time of the
    ///    running tasks. A ready task that does not fit now gains nothing
    ///    over waiting for the next completion, so it is pruned.
    ///
    /// Returns an empty vector exactly in terminal states: if nothing runs,
    /// the frontier is non-empty (or the simulation finished) and every
    /// frontier task fits an empty cluster because [`SimState::new`]
    /// validated demands against total capacity.
    pub fn legal_actions(&self, dag: &Dag) -> Vec<Action> {
        let mut actions = Vec::new();
        self.legal_actions_into(dag, &mut actions);
        actions
    }

    /// Writes the legal actions into `out` (cleared first), in the same
    /// deterministic order as [`SimState::legal_actions`]. The buffer keeps
    /// its allocation across calls, so the MCTS rollout loop can enumerate
    /// actions without touching the heap in steady state.
    #[inline]
    pub fn legal_actions_into(&self, dag: &Dag, out: &mut Vec<Action>) {
        out.clear();
        // A retry-exhausted state is terminal (poisoned): no actions.
        if self.exhausted().is_some() {
            return;
        }
        // One `Place` per (ready task, machine) pair that fits *and* has
        // its parent transfers complete — task-id-major, machine-minor
        // order keeps the list deterministic. A one-machine cluster has
        // one admission row and no transfers, so its loop is the plain
        // fit check (this sits on the rollout hot path).
        if self.spans_machines() {
            let machines = self.machines.len() as u32;
            for &t in self.tracker.ready() {
                for m in 0..machines {
                    if self.fits_on(dag, t, m) {
                        out.push(Action::Place(t, m));
                    }
                }
            }
        } else {
            for &t in self.tracker.ready() {
                if Self::admits_in(&self.used, dag.task(t).demand(), &self.capacity) {
                    out.push(Action::Place(t, 0));
                }
            }
        }
        // `Process` also covers a pure arrival event: with an idle cluster
        // but jobs still queued, advancing the clock to the next arrival is
        // the only way forward (and the only legal action when the arrived
        // frontier is exhausted). A pending inter-machine transfer is a
        // third kind of future event: a ready task that fits a machine but
        // whose inputs are still in flight makes waiting legal too.
        if !self.running.is_empty()
            || self.next_arrival().is_some()
            || self.next_transfer_release(dag).is_some()
        {
            out.push(Action::Process);
        }
    }

    /// Applies one action.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::MachineOutOfRange`] — placing a task on a machine
    ///   the cluster does not have.
    /// * [`ClusterError::TaskNotReady`] — placing a task whose parents
    ///   are incomplete (or that already ran).
    /// * [`ClusterError::InsufficientResources`] — placing a task that
    ///   does not fit the machine's free capacity.
    /// * [`ClusterError::TransferViolation`] — placing a task before a
    ///   parent's output reaches the machine.
    /// * [`ClusterError::NothingRunning`] — processing an empty cluster.
    /// * [`ClusterError::SimulationFinished`] — any action on a terminal
    ///   state.
    pub fn apply(&mut self, dag: &Dag, action: Action) -> Result<(), ClusterError> {
        if self.is_terminal(dag) {
            return Err(ClusterError::SimulationFinished);
        }
        match action {
            Action::Place(task, machine) => {
                if machine as usize >= self.machines.len() {
                    return Err(ClusterError::MachineOutOfRange { task, machine });
                }
                if self.tracker.ready().binary_search(&task).is_err() {
                    return Err(ClusterError::TaskNotReady(task));
                }
                let (used, capacity) = self.machine_row(machine);
                if !Self::admits_in(used, dag.task(task).demand(), capacity) {
                    return Err(ClusterError::InsufficientResources(task));
                }
                if self.transfer_ready_on(dag, task, machine) > self.clock {
                    // Report the parent whose transfer is still in
                    // flight (the one gating the latest).
                    let parent = dag
                        .parents(task)
                        .iter()
                        .copied()
                        .max_by_key(|&p| self.transfer_arrival(dag, p, task, machine))
                        .expect("a transfer-gated task has parents");
                    return Err(ClusterError::TransferViolation {
                        parent,
                        child: task,
                    });
                }
                self.schedule_unchecked(dag, task, machine);
                Ok(())
            }
            Action::Process => {
                if self.running.is_empty()
                    && self.next_arrival().is_none()
                    && self.next_transfer_release(dag).is_none()
                {
                    return Err(ClusterError::NothingRunning);
                }
                self.process_unchecked(dag);
                Ok(())
            }
        }
    }

    /// Applies an action known to be legal — i.e. one the caller just
    /// obtained from [`SimState::legal_actions_into`] on this exact state.
    /// Skips the legality re-checks of [`SimState::apply`] (they become
    /// `debug_assert`s), which matters in the MCTS rollout loop where every
    /// action is legal by construction.
    #[inline]
    pub fn apply_legal(&mut self, dag: &Dag, action: Action) {
        debug_assert!(!self.is_terminal(dag), "apply_legal on a terminal state");
        match action {
            Action::Place(task, machine) => {
                debug_assert!(self.can_schedule_on(dag, task, machine));
                self.schedule_unchecked(dag, task, machine);
            }
            Action::Process => {
                debug_assert!(
                    !self.running.is_empty()
                        || self.next_arrival().is_some()
                        || self.next_transfer_release(dag).is_some()
                );
                self.process_unchecked(dag);
            }
        }
    }

    fn schedule_unchecked(&mut self, dag: &Dag, task: TaskId, machine: u32) {
        self.tracker.take(task);
        let demand = dag.task(task).demand();
        self.used.add_assign(demand);
        if self.spans_machines() {
            self.machine_used[machine as usize].add_assign(demand);
            self.machine_of[task.index()] = Some(machine);
            self.placement_hash ^= machine_placement_key(task.index(), self.clock, machine);
        }
        self.refresh_free();
        // Under a fault plan the attempt starts *now*: the attempt
        // counter advances and the occupancy stretches or truncates per
        // the plan's seeded outcome.
        let slots = match self.faults.as_deref_mut() {
            Some(f) => {
                let i = task.index();
                let attempt = f.attempts[i];
                f.attempts[i] += 1;
                let runtime = dag.task(task).runtime();
                match f.plan.outcome(task, attempt, runtime) {
                    FaultOutcome::None => runtime,
                    FaultOutcome::Fail { after } => after,
                    FaultOutcome::Straggle { slots } => {
                        f.straggles += 1;
                        slots
                    }
                }
            }
            None => dag.task(task).runtime(),
        };
        let finish = self.clock + slots;
        self.running.push(Running { task, finish });
        self.starts[task.index()] = Some(self.clock);
        self.scheduled += 1;
        self.max_finish = self.max_finish.max(finish);
    }

    fn process_unchecked(&mut self, dag: &Dag) {
        // `Process` advances to the next *event*: the earliest running
        // finish, the next job arrival, or the next transfer release
        // (from two machines on, a ready task may be waiting only for a
        // parent's output to arrive at a machine).
        let next = [
            self.earliest_finish(),
            self.next_arrival(),
            self.next_transfer_release(dag),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or_else(|| {
            unreachable!("process_unchecked requires running tasks, arrivals or transfers")
        });
        self.clock = next;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].finish == next {
                let done = self.running.swap_remove(i);
                // Saturating: adds and subtractions of the same demands do
                // not cancel exactly in floating point, so an empty cluster
                // could otherwise record a tiny negative `used`.
                let demand = dag.task(done.task).demand();
                self.used.saturating_sub_assign(demand);
                if self.spans_machines() {
                    let m = self.machine_of[done.task.index()].expect("running task has a machine");
                    self.machine_used[m as usize].saturating_sub_assign(demand);
                }
                if self.attempt_failed(dag, done.task) {
                    // The attempt aborted: the resources are freed (above)
                    // but the task did not complete — its placement is
                    // retracted and it re-queues (or poisons the episode
                    // when its retry budget is spent). Dependencies need
                    // no repair: a failed task never released children.
                    self.retire_failed(done.task, next);
                } else {
                    self.tracker.complete(dag, done.task);
                }
            } else {
                i += 1;
            }
        }
        self.advance_arrivals(dag);
        self.refresh_free();
    }

    /// Whether the retiring run of `task` is an aborted attempt (per the
    /// attached plan) rather than a completion.
    #[inline]
    fn attempt_failed(&self, dag: &Dag, task: TaskId) -> bool {
        self.faults.as_deref().is_some_and(|f| {
            matches!(
                f.plan
                    .outcome(task, f.attempts[task.index()] - 1, dag.task(task).runtime()),
                FaultOutcome::Fail { .. }
            )
        })
    }

    /// Retracts the placement of a just-aborted attempt of `task` at
    /// clock `now` and re-queues the task — or poisons the episode when
    /// its retry budget is exhausted. The caller has already freed the
    /// attempt's resources and removed it from the running set.
    fn retire_failed(&mut self, task: TaskId, now: u64) {
        let i = task.index();
        let start = self.starts[i]
            .take()
            .expect("a failing attempt was started");
        self.scheduled -= 1;
        // The retracted machine is cleared — a retried task may be placed
        // elsewhere — and the placement XOR-set is self-inverse:
        // re-keying the retracted placement removes exactly that one.
        let machine = if self.spans_machines() {
            let m = self.machine_of[i]
                .take()
                .expect("failed attempt had a machine");
            self.placement_hash ^= machine_placement_key(i, start, m);
            m
        } else {
            0
        };
        let f = self
            .faults
            .as_deref_mut()
            .expect("attempt_failed implies a fault state");
        f.failed_runs.push(FailedRun {
            task,
            start,
            end: now,
            attempt: f.attempts[i] - 1,
            machine,
        });
        if f.attempts[i] >= f.plan.max_attempts() {
            // Keep the *first* exhaustion: it is the one that ended the
            // episode, and determinism demands a stable culprit.
            if f.exhausted.is_none() {
                f.exhausted = Some(task);
            }
        } else {
            self.tracker.insert_ready(task);
        }
    }

    /// Injects every job whose arrival time the clock has reached: its
    /// sources enter the ready frontier (non-source tasks are gated by
    /// their own parents).
    fn advance_arrivals(&mut self, dag: &Dag) {
        while let Some(arrival) = self.jobs.next_arrival_time() {
            if arrival > self.clock {
                break;
            }
            for task in self.jobs.job_range(self.jobs.next_arrival) {
                let task = TaskId::new(task);
                if dag.parents(task).is_empty() {
                    self.tracker.insert_ready(task);
                }
            }
            self.jobs.next_arrival += 1;
        }
    }

    /// Rebuilds the derived `free` views from the capacities and `used`
    /// rows. The saturating subtraction clamps at zero, so `free` never
    /// exceeds the capacity and never goes negative — even in the (legal)
    /// state where an epsilon-tolerant admission pushed `used` slightly
    /// past capacity.
    #[inline]
    fn refresh_free(&mut self) {
        self.free.clone_from(&self.capacity);
        self.free.saturating_sub_assign(&self.used);
        if self.spans_machines() {
            let rows = self.machine_free.iter_mut().zip(&self.machine_used);
            for ((free, used), capacity) in rows.zip(self.machines.capacities()) {
                free.clone_from(capacity);
                free.saturating_sub_assign(used);
            }
        }
    }

    /// Runs the simulation to completion, letting `policy` pick among the
    /// legal actions at every decision point. Returns the makespan.
    ///
    /// The `policy` closure receives the current state and its non-empty
    /// legal action list and must return one of those actions.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`] if the policy returns an illegal action.
    pub fn run_with<P>(&mut self, dag: &Dag, mut policy: P) -> Result<u64, ClusterError>
    where
        P: FnMut(&SimState, &[Action]) -> Action,
    {
        while !self.is_terminal(dag) {
            let actions = self.legal_actions(dag);
            debug_assert!(!actions.is_empty(), "non-terminal state with no actions");
            let action = policy(self, &actions);
            self.apply(dag, action)?;
        }
        Ok(self.max_finish)
    }

    /// Freezes a terminal state into a [`Schedule`]. Under a fault plan
    /// the placements are *realized*: each finish reflects the final
    /// attempt's effective occupancy (a straggler finishes later than
    /// `start + runtime`).
    ///
    /// # Panics
    ///
    /// Panics if the simulation is not terminal yet, or if it terminated
    /// by retry exhaustion (a poisoned episode has no schedule; check
    /// [`SimState::exhausted`] first).
    pub fn into_schedule(self, dag: &Dag) -> Schedule {
        assert!(
            self.is_terminal(dag),
            "cannot extract a schedule from an unfinished simulation"
        );
        assert!(
            self.exhausted().is_none(),
            "cannot extract a schedule from a retry-exhausted simulation"
        );
        self.started_schedule(dag)
    }

    /// The (possibly partial) schedule of the tasks started so far: one
    /// placement per started task on its machine, finishing after the
    /// current attempt's effective occupancy.
    pub(crate) fn started_schedule(&self, dag: &Dag) -> Schedule {
        let mut makespan = 0;
        let placements = (0..dag.len())
            .filter_map(|i| {
                let task = TaskId::new(i);
                let start = self.starts[i]?;
                let finish = start + self.run_slots_of(dag, task);
                makespan = makespan.max(finish);
                let machine = self.machine_of(task).expect("started task has a machine");
                Some(Placement {
                    task,
                    start,
                    finish,
                    machine,
                })
            })
            .collect();
        Schedule::from_placements(placements, makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::{DagBuilder, Task};

    fn two_independent() -> Dag {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        b.add_task(Task::new(3, ResourceVec::from_slice(&[0.6])));
        b.build().unwrap()
    }

    fn chain() -> Dag {
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let c = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5])));
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    /// Two unit machines, bandwidth 1, `max_edge_bytes` 1: every
    /// cross-machine edge costs exactly one transfer slot.
    fn two_machine_spec() -> ClusterSpec {
        let machines = crate::MachineSet::uniform(
            2,
            ResourceVec::from_slice(&[1.0]),
            1,
            crate::TransferMode::Direct,
            0,
            1,
        )
        .unwrap();
        ClusterSpec::hetero(machines).unwrap()
    }

    #[test]
    fn initial_state() {
        let dag = two_independent();
        let sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        assert_eq!(sim.clock(), 0);
        assert_eq!(sim.ready().len(), 2);
        assert!(sim.running().is_empty());
        assert!(!sim.is_terminal(&dag));
        assert_eq!(sim.makespan(), None);
    }

    #[test]
    fn tight_capacity_serializes_tasks() {
        let dag = two_independent(); // each task needs 0.6 of 1.0
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        // Second task no longer fits.
        assert_eq!(
            sim.apply(&dag, Action::Place(TaskId::new(1), 0))
                .unwrap_err(),
            ClusterError::InsufficientResources(TaskId::new(1))
        );
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.clock(), 2);
        sim.apply(&dag, Action::Place(TaskId::new(1), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.makespan(), Some(5));
    }

    #[test]
    fn wide_capacity_runs_tasks_in_parallel() {
        let dag = two_independent();
        let spec = ClusterSpec::new(ResourceVec::from_slice(&[2.0])).unwrap();
        let mut sim = SimState::new(&dag, &spec).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(1), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap(); // t=2: task 0 done
        assert_eq!(sim.clock(), 2);
        assert_eq!(sim.completed(), 1);
        sim.apply(&dag, Action::Process).unwrap(); // t=3: task 1 done
        assert_eq!(sim.makespan(), Some(3));
    }

    #[test]
    fn dependencies_gate_readiness() {
        let dag = chain();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        assert_eq!(
            sim.apply(&dag, Action::Place(TaskId::new(1), 0))
                .unwrap_err(),
            ClusterError::TaskNotReady(TaskId::new(1))
        );
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.ready(), &[TaskId::new(1)]);
    }

    #[test]
    fn process_requires_running_tasks() {
        let dag = chain();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        assert_eq!(
            sim.apply(&dag, Action::Process).unwrap_err(),
            ClusterError::NothingRunning
        );
    }

    #[test]
    fn legal_actions_filtering() {
        let dag = two_independent();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        // Initially: both tasks schedulable, no Process (empty cluster).
        let a0 = sim.legal_actions(&dag);
        assert_eq!(a0.len(), 2);
        assert!(!a0.contains(&Action::Process));
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        // Now: task 1 does not fit; only Process remains.
        assert_eq!(sim.legal_actions(&dag), vec![Action::Process]);
    }

    #[test]
    fn terminal_state_rejects_actions() {
        let dag = chain();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        let ms = sim.run_with(&dag, |_, actions| actions[0]).unwrap();
        assert_eq!(ms, 5);
        assert!(sim.is_terminal(&dag));
        assert_eq!(
            sim.apply(&dag, Action::Process).unwrap_err(),
            ClusterError::SimulationFinished
        );
    }

    #[test]
    fn process_retires_simultaneous_finishers_together() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.3])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.3])));
        let dag = b.build().unwrap();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(1), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.completed(), 2);
        assert!(sim.is_terminal(&dag));
        assert_eq!(sim.makespan(), Some(2));
    }

    #[test]
    fn free_capacity_is_restored_after_completion() {
        let dag = two_independent();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        assert!((sim.free()[0] - 0.4).abs() < 1e-9);
        sim.apply(&dag, Action::Process).unwrap();
        assert!((sim.free()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_epsilon_admissions_do_not_inflate_free_capacity() {
        // Each task demands slightly more than the full capacity — legal,
        // because feasibility tolerates FIT_EPSILON. The derived `free`
        // view saturates at zero while the task runs and must return to
        // exactly the capacity once it completes; the pre-fix sequential
        // bookkeeping instead drifted `free` up by one epsilon per cycle.
        let over = 1.0 + 0.9 * FIT_EPSILON;
        let cycles = 64;
        let mut b = DagBuilder::new(1);
        for _ in 0..cycles {
            b.add_task(Task::new(1, ResourceVec::from_slice(&[over])));
        }
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        for i in 0..cycles {
            sim.apply(&dag, Action::Place(TaskId::new(i), 0)).unwrap();
            sim.apply(&dag, Action::Process).unwrap();
            // The clamp makes this exact (not merely within FIT_EPSILON):
            // an idle cluster reports precisely its capacity as free.
            assert!(
                sim.free()[0] <= spec.capacity()[0],
                "free capacity drifted to {} after {} schedule/process cycles",
                sim.free()[0],
                i + 1
            );
        }
        assert!(sim.is_terminal(&dag));
        // With the clamp, free is restored to exactly the capacity.
        assert_eq!(sim.free()[0], spec.capacity()[0]);
    }

    #[test]
    fn epsilon_debt_does_not_survive_partial_completions() {
        // The bug the differential fuzzer caught: with the old
        // `demand <= free + FIT_EPSILON` admission rule, the saturating
        // subtraction forgot how far an epsilon-admission had overshot, so
        // after a *partial* completion the restored `free` overstated the
        // true residual and a further epsilon-admission could push the
        // concurrent usage past `capacity + FIT_EPSILON` — a schedule that
        // `Schedule::validate` and the `ResourceTimeline` then rejected.
        // Sum-based admission keeps one shared epsilon for the whole
        // running set.
        let eps = FIT_EPSILON;
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5 + 0.6 * eps])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5 + 0.2 * eps])));
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5 + 0.9 * eps])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        // Both first tasks fit together: 1.0 + 0.8e-9 <= 1.0 + 1e-9.
        sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        sim.apply(&dag, Action::Place(TaskId::new(1), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap(); // t=1: task 0 done
        assert_eq!(sim.clock(), 1);
        // Task 2 with the still-running task 1 would use 1.0 + 1.1e-9 —
        // past the shared epsilon. The old rule admitted it here.
        assert!(!sim.can_schedule(&dag, TaskId::new(2)));
        assert_eq!(
            sim.apply(&dag, Action::Place(TaskId::new(2), 0))
                .unwrap_err(),
            ClusterError::InsufficientResources(TaskId::new(2))
        );
        sim.apply(&dag, Action::Process).unwrap(); // t=2: task 1 done
        sim.apply(&dag, Action::Place(TaskId::new(2), 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.makespan(), Some(3));
        sim.into_schedule(&dag).validate(&dag, &spec).unwrap();
    }

    #[test]
    fn admission_is_independent_of_schedule_order() {
        // Sum-based admission must not care which same-clock task was
        // admitted first — the differential replay normalizes to task-id
        // order, and the old free-based rule could disagree with the
        // episode's own order near the epsilon boundary.
        let eps = FIT_EPSILON;
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5 + 0.6 * eps])));
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5 + 0.2 * eps])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        for order in [[0usize, 1], [1, 0]] {
            let mut sim = SimState::new(&dag, &spec).unwrap();
            for i in order {
                sim.apply(&dag, Action::Place(TaskId::new(i), 0)).unwrap();
            }
            sim.apply(&dag, Action::Process).unwrap();
            assert_eq!(sim.makespan(), Some(1), "order {order:?}");
        }
    }

    #[test]
    fn into_schedule_produces_valid_schedule() {
        let dag = chain();
        let spec = ClusterSpec::unit(1);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        sim.run_with(&dag, |_, actions| actions[0]).unwrap();
        let schedule = sim.into_schedule(&dag);
        assert_eq!(schedule.makespan(), 5);
        schedule.validate(&dag, &spec).unwrap();
    }

    #[test]
    #[should_panic(expected = "unfinished simulation")]
    fn into_schedule_panics_when_unfinished() {
        let dag = chain();
        let sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        let _ = sim.into_schedule(&dag);
    }

    #[test]
    fn fingerprint_stays_in_sync_with_recomputation() {
        // The placement hash the two-machine frontier key folds, stepped
        // along the last legal action (task 1 first, then machine 1).
        let dag = two_independent();
        let mut sim = SimState::new(&dag, &two_machine_spec()).unwrap();
        while !sim.is_terminal(&dag) {
            let action = *sim.legal_actions(&dag).last().unwrap();
            sim.apply(&dag, action).unwrap();
            assert_eq!(
                sim.recompute_placement_hash(),
                sim.placement_hash,
                "incremental placement hash drifted from recomputation"
            );
        }
        assert_ne!(sim.placement_hash, 0);
    }

    #[test]
    fn fingerprint_tracks_running_order() {
        // Two same-shape tasks admitted in opposite orders reach states
        // that are logically equivalent as *sets* but featurize
        // differently (the occupancy image follows vector order), so
        // their frontier fingerprints must differ.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.3])));
        b.add_task(Task::new(3, ResourceVec::from_slice(&[0.3])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let fp = |order: [usize; 2]| {
            let mut sim = SimState::new(&dag, &spec).unwrap();
            for i in order {
                sim.apply(&dag, Action::Place(TaskId::new(i), 0)).unwrap();
            }
            sim.frontier_fingerprint()
        };
        assert_ne!(fp([0, 1]), fp([1, 0]));
    }

    #[test]
    fn frontier_fingerprint_ignores_finished_history() {
        // Four independent tasks with dyadic demands: E and A (runtime 1),
        // B (runtime 2), C (never scheduled). Two histories:
        //   P1: E@0 and A@0 co-run, process (both finish), B@1
        //   P2: E@0, process, A@1, process, B@2
        // Both arrive at the same frontier — ready {C}, running [(B,
        // rel-finish 2)], 2 completed, identical `used` bits (dyadic
        // arithmetic is exact) — but with different placements and
        // clocks. The frontier fingerprints must agree.
        let mut b = DagBuilder::new(1);
        let e = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        let a = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        let t_b = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let _c = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let run = |actions: &[Action]| {
            let mut sim = SimState::new(&dag, &spec).unwrap();
            for &action in actions {
                sim.apply(&dag, action).unwrap();
            }
            sim
        };
        let p1 = run(&[
            Action::Place(e, 0),
            Action::Place(a, 0),
            Action::Process,
            Action::Place(t_b, 0),
        ]);
        let p2 = run(&[
            Action::Place(e, 0),
            Action::Process,
            Action::Place(a, 0),
            Action::Process,
            Action::Place(t_b, 0),
        ]);
        assert_eq!(p1.ready(), p2.ready());
        assert_eq!(p1.completed(), p2.completed());
        assert_ne!(p1.clock(), p2.clock());
        assert_eq!(
            p1.frontier_fingerprint(),
            p2.frontier_fingerprint(),
            "same frontier must share a frontier fingerprint"
        );
        // And a genuinely different frontier must not collide.
        let p3 = run(&[Action::Place(e, 0), Action::Place(t_b, 0)]);
        assert_ne!(p1.frontier_fingerprint(), p3.frontier_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_states_and_clones_preserve_it() {
        let dag = two_independent();
        let sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        let initial = sim.frontier_fingerprint();
        let mut a = sim.clone();
        assert_eq!(a.frontier_fingerprint(), initial);
        a.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        assert_ne!(a.frontier_fingerprint(), initial);
        let mut b = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        b.clone_from(&a);
        assert_eq!(b.frontier_fingerprint(), a.frontier_fingerprint());
    }

    mod multi_job {
        use super::*;
        use crate::JobQueue;

        fn one_task_job(runtime: u64, demand: f64) -> Dag {
            let mut b = DagBuilder::new(1);
            b.add_task(Task::new(runtime, ResourceVec::from_slice(&[demand])));
            b.build().unwrap()
        }

        #[test]
        fn arrivals_gate_the_frontier_and_process_advances_to_them() {
            // Job 0 arrives at 0 (runtime 2), job 1 at 5 (runtime 2).
            let queue =
                JobQueue::new(vec![(0, one_task_job(2, 0.6)), (5, one_task_job(2, 0.6))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            // Only job 0's source is visible initially.
            assert_eq!(sim.ready(), &[TaskId::new(0)]);
            assert_eq!(sim.pending_jobs(), 1);
            assert_eq!(sim.next_arrival(), Some(5));
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap();
            // Job 0 done at t=2; the cluster idles but job 1 is queued, so
            // Process is legal and jumps the clock to the arrival.
            assert_eq!(sim.clock(), 2);
            assert!(sim.ready().is_empty());
            assert_eq!(sim.legal_actions(dag), vec![Action::Process]);
            sim.apply(dag, Action::Process).unwrap();
            assert_eq!(sim.clock(), 5);
            assert_eq!(sim.ready(), &[TaskId::new(1)]);
            assert_eq!(sim.pending_jobs(), 0);
            assert_eq!(sim.next_arrival(), None);
            sim.apply(dag, Action::Place(TaskId::new(1), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap();
            assert!(sim.is_terminal(dag));
            assert_eq!(sim.makespan(), Some(7));
            assert_eq!(sim.job_of(TaskId::new(1)), 1);
        }

        #[test]
        fn arrival_during_a_run_joins_the_frontier_at_the_finish() {
            // Job 0 runs until t=4; job 1 arrives at 3 — Process advances
            // to the arrival first, injects job 1 mid-run, and the two
            // can overlap on a wide cluster.
            let queue =
                JobQueue::new(vec![(0, one_task_job(4, 0.4)), (3, one_task_job(2, 0.4))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap();
            // Clock stops at the arrival (3), not the finish (4).
            assert_eq!(sim.clock(), 3);
            assert_eq!(sim.running().len(), 1);
            assert_eq!(sim.ready(), &[TaskId::new(1)]);
            sim.apply(dag, Action::Place(TaskId::new(1), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t=4: job 0 done
            sim.apply(dag, Action::Process).unwrap(); // t=5: job 1 done
            assert_eq!(sim.makespan(), Some(5));
        }

        #[test]
        fn tasks_never_start_before_their_jobs_arrival() {
            let queue =
                JobQueue::new(vec![(0, one_task_job(1, 0.3)), (4, one_task_job(1, 0.3))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            // Job 1's source is not ready before its arrival.
            assert_eq!(
                sim.apply(dag, Action::Place(TaskId::new(1), 0))
                    .unwrap_err(),
                ClusterError::TaskNotReady(TaskId::new(1))
            );
            sim.run_with(dag, |_, actions| actions[0]).unwrap();
            assert!(sim.start_of(TaskId::new(1)).unwrap() >= 4);
        }

        #[test]
        fn a_bare_dag_is_the_one_job_queue_arriving_at_zero() {
            // `new(dag)` and `new_multi(single(dag))` build the same state
            // in every field, so their frontier fingerprints agree — on a
            // single box and on a three-machine cluster — and keep
            // agreeing as the two episodes step in lockstep.
            use crate::{MachineSet, TransferMode};
            let mut b = DagBuilder::new(2);
            let demand = |c: f64, m: f64| ResourceVec::from_slice(&[c, m]);
            let a = b.add_task(Task::new(2, demand(0.5, 0.25)));
            let l = b.add_task(Task::new(3, demand(0.25, 0.5)));
            let r = b.add_task(Task::new(1, demand(0.5, 0.5)));
            let d = b.add_task(Task::new(2, demand(0.75, 0.25)));
            b.add_task(Task::new(4, demand(0.25, 0.25)));
            for (from, to) in [(a, l), (a, r), (l, d), (r, d)] {
                b.add_edge(from, to).unwrap();
            }
            let dag = b.build().unwrap();
            let machines = MachineSet::uniform(
                3,
                ResourceVec::from_slice(&[1.0, 1.0]),
                2,
                TransferMode::Direct,
                7,
                4,
            )
            .unwrap();
            for spec in [ClusterSpec::unit(2), ClusterSpec::hetero(machines).unwrap()] {
                let queue = JobQueue::single(dag.clone()).unwrap();
                let mut bare = SimState::new(&dag, &spec).unwrap();
                let mut one = SimState::new_multi(&queue, &spec).unwrap();
                loop {
                    assert_eq!(bare, one);
                    assert_eq!(bare.frontier_fingerprint(), one.frontier_fingerprint());
                    if bare.is_terminal(&dag) {
                        break;
                    }
                    let action = *bare.legal_actions(&dag).last().unwrap();
                    bare.apply(&dag, action).unwrap();
                    one.apply(queue.union_dag(), action).unwrap();
                }
            }
        }

        #[test]
        fn fingerprints_track_arrival_progress() {
            // Two states at the same clock with the same (empty) frontier
            // but different numbers of pending arrivals must not share a
            // frontier fingerprint.
            let queue =
                JobQueue::new(vec![(0, one_task_job(2, 0.6)), (6, one_task_job(2, 0.6))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t=2, idle, 1 pending
            let before = sim.frontier_fingerprint();
            sim.apply(dag, Action::Process).unwrap(); // t=6: arrival injected
            assert_ne!(sim.frontier_fingerprint(), before);
        }

        #[test]
        fn jobs_in_flight_drops_a_finished_job_while_a_later_one_runs() {
            // Job 0 (runtime 2) arrives at 0, job 1 (runtime 4) at 1; the
            // two fit side by side.
            let queue =
                JobQueue::new(vec![(0, one_task_job(2, 0.4)), (1, one_task_job(4, 0.4))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            assert_eq!(sim.jobs_in_flight(), 1); // job 1 has not arrived
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t=1: job 1 arrives
            assert_eq!(sim.jobs_in_flight(), 2);
            sim.apply(dag, Action::Place(TaskId::new(1), 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t=2: job 0 done
            assert_eq!(sim.clock(), 2);
            assert_eq!(sim.jobs_in_flight(), 1);
            sim.apply(dag, Action::Process).unwrap(); // t=5: job 1 done
            assert_eq!(sim.jobs_in_flight(), 0);
            assert!(sim.is_terminal(dag));
        }

        #[test]
        fn jct_report_partial_counts_unfinished_jobs() {
            let queue =
                JobQueue::new(vec![(0, one_task_job(2, 0.6)), (5, one_task_job(2, 0.6))]).unwrap();
            let dag = queue.union_dag();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1)).unwrap();
            sim.apply(dag, Action::Place(TaskId::new(0), 0)).unwrap();
            let mid = queue.jct_report_partial(&sim);
            assert_eq!(mid.completions().len(), 1); // job 0 fully scheduled
            assert_eq!(mid.unfinished(), 1);
            sim.run_with(dag, |_, actions| actions[0]).unwrap();
            let done = queue.jct_report_partial(&sim);
            assert_eq!(done.completions().len(), 2);
            assert_eq!(done.unfinished(), 0);
            assert_eq!(done.completions()[1].jct, 2); // arrived 5, ran 5..7
        }
    }

    mod faults {
        use super::*;
        use crate::faults::FaultPlan;
        use crate::JobQueue;

        /// A plan whose every attempt of every task fails.
        fn always_fail(max_retries: u32) -> FaultPlan {
            FaultPlan {
                seed: 5,
                fail_rate: 1.0,
                straggler_rate: 0.0,
                straggler_factor: 1.0,
                max_retries,
            }
        }

        #[test]
        fn none_plan_attaches_nothing_and_stays_bit_identical() {
            let dag = chain();
            let spec = ClusterSpec::unit(1);
            let plain = SimState::new(&dag, &spec).unwrap();
            let mut faulty = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(FaultPlan::none());
            assert!(faulty.faults.is_none());
            assert_eq!(plain, faulty);
            assert_eq!(plain.frontier_fingerprint(), faulty.frontier_fingerprint());
            faulty.run_with(&dag, |_, actions| actions[0]).unwrap();
            assert_eq!(faulty.makespan(), Some(5));
        }

        #[test]
        fn failure_frees_resources_retracts_the_placement_and_requeues() {
            let dag = chain();
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(always_fail(3));
            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            let first_finish = sim.running()[0].finish;
            assert!(
                first_finish <= 2,
                "failed attempt must not outlive the runtime"
            );
            sim.apply(&dag, Action::Process).unwrap();
            // The attempt aborted: resources back, placement retracted,
            // task ready again, child still gated.
            assert_eq!(sim.free()[0], 1.0);
            assert_eq!(sim.start_of(TaskId::new(0)), None);
            assert_eq!(sim.ready(), &[TaskId::new(0)]);
            assert_eq!(sim.completed(), 0);
            assert_eq!(sim.attempts_of(TaskId::new(0)), 1);
            assert_eq!(sim.fault_failures(), 1);
            assert_eq!(sim.last_failure_of(TaskId::new(0)), Some(sim.clock()));
        }

        #[test]
        fn a_failed_last_task_puts_its_job_back_in_flight() {
            // Job 0 is the chain t0 → t1, job 1 the one-slot task t2, both
            // arriving at 0. The plan's seed is the first under which t0
            // and t2 succeed and t1 fails once, then succeeds.
            let chain_job = chain();
            let mut b = DagBuilder::new(1);
            b.add_task(Task::new(1, ResourceVec::from_slice(&[0.4])));
            let queue = JobQueue::new(vec![(0, chain_job), (0, b.build().unwrap())]).unwrap();
            let dag = queue.union_dag();
            let (t0, t1, t2) = (TaskId::new(0), TaskId::new(1), TaskId::new(2));
            let plan = (0..)
                .map(|seed| FaultPlan {
                    seed,
                    fail_rate: 0.5,
                    straggler_rate: 0.0,
                    straggler_factor: 1.0,
                    max_retries: 1,
                })
                .find(|p| {
                    let runs =
                        |task: TaskId, attempt| p.outcome(task, attempt, dag.task(task).runtime());
                    runs(t0, 0) == FaultOutcome::None
                        && matches!(runs(t1, 0), FaultOutcome::Fail { .. })
                        && runs(t1, 1) == FaultOutcome::None
                        && runs(t2, 0) == FaultOutcome::None
                })
                .unwrap();
            let mut sim = SimState::new_multi(&queue, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(plan);
            assert_eq!(sim.jobs_in_flight(), 2);
            sim.apply(dag, Action::Place(t0, 0)).unwrap();
            sim.apply(dag, Action::Place(t2, 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t=1: job 1 done
            assert_eq!(sim.jobs_in_flight(), 1);
            sim.apply(dag, Action::Process).unwrap(); // t=2: t0 done
            sim.apply(dag, Action::Place(t1, 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap(); // t1's attempt aborts
            assert_eq!(sim.ready(), &[t1]);
            assert_eq!(sim.fault_failures(), 1);
            assert_eq!(sim.last_failure_of(t1), Some(sim.clock()));
            assert_eq!(sim.jobs_in_flight(), 1);
            sim.apply(dag, Action::Place(t1, 0)).unwrap();
            sim.apply(dag, Action::Process).unwrap();
            assert!(sim.is_terminal(dag));
            assert_eq!(sim.jobs_in_flight(), 0);
        }

        #[test]
        fn exhausted_retries_poison_the_episode() {
            let dag = chain();
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec)
                .unwrap()
                .with_faults(always_fail(1));
            // max_retries = 1 → two attempts allowed, both fail.
            for _ in 0..2 {
                assert!(sim.exhausted().is_none());
                sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
                sim.apply(&dag, Action::Process).unwrap();
            }
            assert_eq!(sim.exhausted(), Some(TaskId::new(0)));
            assert!(sim.is_terminal(&dag));
            assert!(sim.legal_actions(&dag).is_empty());
            assert_eq!(sim.makespan(), None);
            assert_eq!(
                sim.apply(&dag, Action::Process).unwrap_err(),
                ClusterError::SimulationFinished
            );
        }

        #[test]
        #[should_panic(expected = "retry-exhausted")]
        fn into_schedule_panics_on_a_poisoned_episode() {
            let dag = chain();
            let mut sim = SimState::new(&dag, &ClusterSpec::unit(1))
                .unwrap()
                .with_faults(always_fail(0));
            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            sim.apply(&dag, Action::Process).unwrap();
            let _ = sim.into_schedule(&dag);
        }

        #[test]
        fn stragglers_stretch_occupancy_without_failing() {
            let plan = FaultPlan {
                seed: 0,
                fail_rate: 0.0,
                straggler_rate: 1.0,
                straggler_factor: 2.5,
                max_retries: 0,
            };
            let dag = chain(); // runtimes 2 then 3
            let spec = ClusterSpec::unit(1);
            let mut sim = SimState::new(&dag, &spec).unwrap().with_faults(plan);
            sim.run_with(&dag, |_, actions| actions[0]).unwrap();
            // Both tasks straggle by 2.5×: 5 + 8 slots back to back.
            assert_eq!(sim.makespan(), Some(13));
            assert_eq!(sim.fault_straggles(), 2);
            assert_eq!(sim.fault_failures(), 0);
            let schedule = sim.into_schedule(&dag);
            assert_eq!(schedule.placements()[0].finish, 5);
            assert_eq!(schedule.placements()[1].finish, 13);
        }

        #[test]
        fn simultaneous_failures_requeue_deterministically() {
            // Two independent equal tasks fail at the same slot; rerunning
            // the whole episode must reproduce the identical state stream.
            let dag = two_independent();
            let spec = ClusterSpec::new(ResourceVec::from_slice(&[2.0])).unwrap();
            let run = || {
                let mut sim = SimState::new(&dag, &spec)
                    .unwrap()
                    .with_faults(always_fail(4));
                let mut trail = Vec::new();
                sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
                sim.apply(&dag, Action::Place(TaskId::new(1), 0)).unwrap();
                trail.push(sim.clone());
                while !sim.is_terminal(&dag) {
                    let actions = sim.legal_actions(&dag);
                    sim.apply(&dag, actions[0]).unwrap();
                    trail.push(sim.clone());
                }
                trail
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn run_with_always_offers_nonempty_actions() {
        let dag = chain();
        let mut sim = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
        sim.run_with(&dag, |_, actions| {
            assert!(!actions.is_empty());
            actions[0]
        })
        .unwrap();
    }

    mod hetero {
        use super::*;
        use crate::{MachineSet, TransferMode};

        #[test]
        fn place_tracks_per_machine_accounting_and_transfer_gating() {
            let dag = chain(); // t0 (2 slots) -> t1 (3 slots), 0.5 each
            let spec = two_machine_spec();
            let mut sim = SimState::new(&dag, &spec).unwrap();
            assert_eq!(sim.num_machines(), 2);

            sim.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
            assert_eq!(sim.machine_of(TaskId::new(0)), Some(0));
            assert_eq!(sim.machine_used(0).as_slice(), &[0.5]);
            assert_eq!(sim.machine_free(0).as_slice(), &[0.5]);
            assert_eq!(sim.machine_used(1).as_slice(), &[0.0]);

            sim.apply(&dag, Action::Process).unwrap();
            assert_eq!(sim.clock(), 2);
            assert_eq!(sim.machine_used(0).as_slice(), &[0.0]);

            // t1's input finished on machine 0 at t=2: it can start on
            // machine 0 immediately, but machine 1 only after the one-slot
            // transfer — so the legal list offers the co-located `Place`
            // plus `Process` (waiting for the transfer release).
            assert_eq!(
                sim.legal_actions(&dag),
                vec![Action::Place(TaskId::new(1), 0), Action::Process]
            );
            assert_eq!(
                sim.apply(&dag, Action::Place(TaskId::new(1), 1))
                    .unwrap_err(),
                ClusterError::TransferViolation {
                    parent: TaskId::new(0),
                    child: TaskId::new(1)
                }
            );

            // `Process` on an idle cluster advances to the transfer
            // release, after which the cross-machine start is legal.
            sim.apply(&dag, Action::Process).unwrap();
            assert_eq!(sim.clock(), 3);
            sim.apply(&dag, Action::Place(TaskId::new(1), 1)).unwrap();
            assert_eq!(sim.machine_of(TaskId::new(1)), Some(1));
            sim.apply(&dag, Action::Process).unwrap();
            assert_eq!(sim.makespan(), Some(6));
        }

        #[test]
        fn place_outside_the_cluster_is_a_typed_error() {
            let dag = chain();
            let mut sim = SimState::new(&dag, &two_machine_spec()).unwrap();
            assert_eq!(
                sim.apply(&dag, Action::Place(TaskId::new(0), 2))
                    .unwrap_err(),
                ClusterError::MachineOutOfRange {
                    task: TaskId::new(0),
                    machine: 2
                }
            );
            // A single box has machine 0 only.
            let mut single = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
            assert_eq!(
                single
                    .apply(&dag, Action::Place(TaskId::new(0), 1))
                    .unwrap_err(),
                ClusterError::MachineOutOfRange {
                    task: TaskId::new(0),
                    machine: 1
                }
            );
            single
                .apply(&dag, Action::Place(TaskId::new(0), 0))
                .unwrap();
            assert_eq!(single.start_of(TaskId::new(0)), Some(0));
            assert_eq!(single.machine_of(TaskId::new(0)), Some(0));
        }

        #[test]
        fn degenerate_one_machine_stepping_matches_the_single_box() {
            // A one-machine set has no links, whatever its network knobs,
            // so the same greedy decisions yield the same clocks,
            // accounting, frontier keys and final schedule as the unit box.
            let dag = chain();
            let machines = MachineSet::uniform(
                1,
                ResourceVec::from_slice(&[1.0]),
                7,
                TransferMode::ViaMaster,
                3,
                16,
            )
            .unwrap();
            let one_spec = ClusterSpec::hetero(machines).unwrap();
            let mut h = SimState::new(&dag, &one_spec).unwrap();
            let mut s = SimState::new(&dag, &ClusterSpec::unit(1)).unwrap();
            while !s.is_terminal(&dag) {
                let action = s.legal_actions(&dag)[0];
                assert_eq!(h.legal_actions(&dag), s.legal_actions(&dag));
                s.apply(&dag, action).unwrap();
                h.apply(&dag, action).unwrap();
                assert_eq!(h.clock(), s.clock());
                assert_eq!(h.used().as_slice(), s.used().as_slice());
                assert_eq!(h.free().as_slice(), s.free().as_slice());
                assert_eq!(h.frontier_fingerprint(), s.frontier_fingerprint());
            }
            assert!(h.is_terminal(&dag));
            assert_eq!(h.makespan(), s.makespan());
            let hs = h.into_schedule(&dag);
            let ss = s.into_schedule(&dag);
            assert_eq!(hs.placements(), ss.placements());
            hs.validate(&dag, &one_spec).unwrap();
        }
    }
}
