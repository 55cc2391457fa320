//! The environment layer: one place where episodes are stepped.
//!
//! Every consumer of the simulator used to hand-roll the same
//! `legal_actions` → pick → `apply` → `is_terminal` loop with slightly
//! different buffering, RNG threading and error handling. This module is
//! the single seam they now share:
//!
//! * [`SimEnv`] — the MDP view of the simulator (`legal_into` / `step` /
//!   `observe` / `is_terminal` / `makespan`) over a
//!   [`SimState`]: one DAG, or a [`JobQueue`]'s arrival stream with an
//!   optional wall-clock horizon — a bare DAG is the one-job queue that
//!   arrives at time 0;
//! * [`DecisionPolicy`] — "given the environment, pick an action",
//!   generic over the RNG so both seeded and deterministic policies fit.
//!   A policy reads the job, the cluster and the state off the
//!   [`SimEnv`]; one that ranks the legal actions enumerates them itself
//!   with [`SimEnv::legal_into`];
//! * [`EpisodeDriver`] — runs episodes to termination (or the horizon)
//!   through one loop, checked ([`EpisodeDriver::drive`]) or trusted
//!   ([`EpisodeDriver::drive_trusted`]), auditing and instrumenting every
//!   step and allocating nothing per step.
//!
//! The n+1 decoupled action semantics (which actions are legal, what a
//! step does) live in [`SimState`]; everything above this module only
//! decides *which* legal action to take.

use std::cell::Cell;

use rand::{Rng, RngCore};
use spear_dag::{Dag, TaskId};
use spear_obs::{Counter, Gauge, Histogram, Obs};

use crate::audit::InvariantAuditor;
use crate::faults::FaultPlan;
use crate::jobs::JobQueue;
use crate::{Action, ClusterError, ClusterSpec, Schedule, SimState, SpearError};

/// The typed fails-fast error for a retry-exhausted (poisoned) state.
fn exhaustion_error(state: &SimState, task: TaskId) -> SpearError {
    SpearError::Cluster(ClusterError::RetriesExhausted {
        task,
        attempts: state.attempts_of(task),
    })
}

/// The scheduling environment: a [`SimState`] plus the borrows it is
/// stepped against.
///
/// Built from one DAG ([`SimEnv::new`]) or from a [`JobQueue`]
/// ([`SimEnv::from_queue`]), whose union DAG it then steps: sources of
/// unarrived jobs are withheld from the frontier, and `Process` advances
/// the clock to the next *event* (completion or arrival). Every consumer
/// — `EpisodeDriver`, the baselines, sequential and root-parallel MCTS,
/// the DRL featurizer — schedules a job stream through the same code path
/// as a single job.
///
/// Termination: the episode is terminal when every job completed, or —
/// with [`SimEnv::with_horizon`] — once the clock reaches the horizon, in
/// which case [`SimEnv::is_truncated`] reports `true` and
/// [`EpisodeDriver::drive`] returns [`DriveOutcome::Truncated`].
/// [`JobQueue::jct_report_partial`] tallies per-job completion times of
/// either (jobs with unscheduled tasks count as unfinished).
///
/// `legal_into` and `step_trusted` are the allocation-free pair from the
/// hot path; `step` is the checked variant that returns a typed error for
/// illegal actions instead of corrupting the state. `clone`/`clone_from`
/// reuse the state's interior allocations, so keeping one `SimEnv` as a
/// scratch and `clone_from`ing a root into it (the MCTS pattern) stays
/// allocation-free.
#[derive(Debug)]
pub struct SimEnv<'a> {
    dag: &'a Dag,
    spec: &'a ClusterSpec,
    state: SimState,
    horizon: Option<u64>,
}

impl<'a> SimEnv<'a> {
    /// Creates the environment in the initial state of `dag` on `spec`.
    ///
    /// # Errors
    ///
    /// Fails if the DAG cannot run on the cluster.
    pub fn new(dag: &'a Dag, spec: &'a ClusterSpec) -> Result<Self, SpearError> {
        Ok(Self::from_state(dag, spec, SimState::new(dag, spec)?))
    }

    /// Creates the environment at time 0 of `queue`'s arrival stream,
    /// with only time-0 jobs visible.
    ///
    /// # Errors
    ///
    /// Fails if the union DAG cannot run on the cluster.
    pub fn from_queue(queue: &'a JobQueue, spec: &'a ClusterSpec) -> Result<Self, SpearError> {
        let state = SimState::new_multi(queue, spec)?;
        Ok(Self::from_state(queue.union_dag(), spec, state))
    }

    /// Adopts an existing simulation state (e.g. a replayed search node),
    /// with whatever fault plan the state carries.
    pub fn from_state(dag: &'a Dag, spec: &'a ClusterSpec, state: SimState) -> Self {
        SimEnv {
            dag,
            spec,
            state,
            horizon: None,
        }
    }

    /// Caps the episode at `horizon` clock slots: the episode ends (as
    /// truncated) at the first decision point with `clock >= horizon`.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Option<u64>) -> Self {
        self.horizon = horizon;
        self
    }

    /// Attaches a fault-injection plan to the state, so the episode
    /// replays the plan's seeded faults. Call before the first step. A
    /// [`FaultPlan::none`] plan leaves the environment bit-identical to
    /// an unfaulted one.
    #[must_use]
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        SimEnv {
            state: self.state.with_faults(plan),
            ..self
        }
    }

    /// The job being scheduled (a queue's union DAG).
    pub fn dag(&self) -> &'a Dag {
        self.dag
    }

    /// The cluster capacity model.
    pub fn spec(&self) -> &'a ClusterSpec {
        self.spec
    }

    /// Writes the legal actions of the current state into `out` (clearing
    /// it first): ready-and-fitting `Place` actions in ascending task-id
    /// (then machine) order, then `Process` if anything is running or
    /// pending. Non-terminal
    /// states always have at least one legal action.
    #[inline]
    pub fn legal_into(&self, out: &mut Vec<Action>) {
        self.state.legal_actions_into(self.dag, out);
    }

    /// Applies `action` after checking its legality.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::Cluster`] if `action` is illegal in the
    /// current state; the state is unchanged on error.
    pub fn step(&mut self, action: Action) -> Result<(), SpearError> {
        self.state.apply(self.dag, action)?;
        Ok(())
    }

    /// Applies an action known to be legal in the current state (one of
    /// [`SimEnv::legal_into`]'s, or a policy's pick for this exact state)
    /// without re-checking; legality is debug-asserted. The hot-path
    /// counterpart of [`SimEnv::step`].
    #[inline]
    pub fn step_trusted(&mut self, action: Action) {
        self.state.apply_legal(self.dag, action);
    }

    /// The full observation of the current state.
    #[inline]
    pub fn observe(&self) -> &SimState {
        &self.state
    }

    /// Whether the episode is over — every task finished, or the
    /// horizon cut it off; [`SimEnv::is_truncated`] distinguishes the
    /// two.
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.complete() || self.horizon_reached()
    }

    /// Whether the episode ended by hitting the horizon rather than by
    /// completing every task.
    pub fn is_truncated(&self) -> bool {
        !self.complete() && self.horizon_reached()
    }

    /// The episode's makespan, once terminal.
    pub fn makespan(&self) -> Option<u64> {
        self.state.makespan()
    }

    /// Extracts the completed schedule (of the union DAG; split it per
    /// job with [`JobQueue::per_job_schedules`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::RetriesExhausted`] if fault injection
    /// poisoned the episode, and [`SpearError::IncompleteEpisode`] if some
    /// task is unfinished — including horizon-truncated episodes.
    pub fn into_schedule(self) -> Result<Schedule, SpearError> {
        if let Some(task) = self.state.exhausted() {
            return Err(exhaustion_error(&self.state, task));
        }
        if !self.complete() {
            return Err(SpearError::IncompleteEpisode);
        }
        Ok(self.state.into_schedule(self.dag))
    }

    #[inline]
    fn complete(&self) -> bool {
        self.state.is_terminal(self.dag)
    }

    #[inline]
    fn horizon_reached(&self) -> bool {
        self.horizon.is_some_and(|h| self.state.clock() >= h)
    }
}

impl Clone for SimEnv<'_> {
    fn clone(&self) -> Self {
        SimEnv {
            dag: self.dag,
            spec: self.spec,
            state: self.state.clone(),
            horizon: self.horizon,
        }
    }

    /// Reuses `self.state`'s interior allocations.
    fn clone_from(&mut self, source: &Self) {
        self.dag = source.dag;
        self.spec = source.spec;
        self.state.clone_from(&source.state);
        self.horizon = source.horizon;
    }
}

/// A decision rule: the policy side of an episode.
///
/// A policy reads what it needs off the environment — [`SimEnv::dag`],
/// [`SimEnv::spec`] and [`SimEnv::observe`] — and one that ranks the
/// legal actions enumerates them itself with [`SimEnv::legal_into`]; the
/// driver enumerates nothing. Generic over the RNG (`R: Rng + ?Sized`) so
/// stochastic policies thread the caller's seeded generator while
/// deterministic policies accept any — including [`NoRng`], which panics
/// if drawn from.
pub trait DecisionPolicy<R: Rng + ?Sized> {
    /// Picks an action that is legal in `env`'s current state, which is
    /// never terminal.
    fn decide(&mut self, env: &SimEnv<'_>, rng: &mut R) -> Action;
}

/// Wraps a closure `env -> Action` as a deterministic [`DecisionPolicy`]
/// (for any RNG type). The greedy baselines, the expert and the fault
/// dispatcher are all closures.
#[derive(Debug, Clone)]
pub struct FnPolicy<F>(pub F);

impl<R, F> DecisionPolicy<R> for FnPolicy<F>
where
    R: Rng + ?Sized,
    F: FnMut(&SimEnv<'_>) -> Action,
{
    fn decide(&mut self, env: &SimEnv<'_>, _rng: &mut R) -> Action {
        (self.0)(env)
    }
}

/// The RNG for callers whose policies are deterministic: any draw is a
/// bug, so it panics instead of silently de-synchronizing a stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRng;

impl RngCore for NoRng {
    fn next_u64(&mut self) -> u64 {
        panic!("a deterministic policy drew randomness from NoRng");
    }
}

/// How a [`EpisodeDriver::drive`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// The episode reached the terminal state; the environment now has a
    /// makespan and a complete schedule.
    Terminal {
        /// Actions applied during this call.
        steps: u64,
    },
    /// The environment's horizon ([`SimEnv::with_horizon`]) cut the
    /// episode off; the environment holds a partial state.
    Truncated {
        /// Actions applied during this call.
        steps: u64,
    },
}

impl DriveOutcome {
    /// Actions applied during the call, terminal or not.
    pub fn steps(&self) -> u64 {
        match *self {
            DriveOutcome::Terminal { steps } | DriveOutcome::Truncated { steps } => steps,
        }
    }

    /// Whether the episode completed.
    pub fn is_terminal(&self) -> bool {
        matches!(self, DriveOutcome::Terminal { .. })
    }
}

/// Whether episodes are audited by default: always in debug builds (every
/// test exercises the auditor for free), and in release builds only with
/// the `audit` cargo feature (benchmarks stay unperturbed).
fn default_auditor() -> Option<InvariantAuditor> {
    cfg!(any(debug_assertions, feature = "audit")).then(InvariantAuditor::new)
}

/// The driver's simulation instruments: built lazily on the first driven
/// step once an enabled [`Obs`] sink is attached, so un-instrumented
/// drivers never register metrics.
#[derive(Debug, Clone)]
struct EpisodeObs {
    steps: Counter,
    admissions: Counter,
    clock_advances: Counter,
    episodes: Counter,
    backlog: Histogram,
    makespan: Gauge,
    occupancy: Vec<Gauge>,
    jobs_pending: Gauge,
    jobs_in_flight: Gauge,
    fault_failures: Counter,
    fault_stragglers: Counter,
    fault_retries: Counter,
    reexec_latency: Histogram,
    /// Cumulative state totals already flushed into the fault counters —
    /// counters are monotone across episodes while each episode's state
    /// counts from its own start, so steps record deltas against these.
    seen_failures: Cell<u64>,
    seen_straggles: Cell<u64>,
}

impl EpisodeObs {
    fn new(obs: &Obs, dims: usize) -> Self {
        EpisodeObs {
            steps: obs.counter("sim.steps"),
            admissions: obs.counter("sim.admissions"),
            clock_advances: obs.counter("sim.clock_advances"),
            episodes: obs.counter("sim.episodes"),
            backlog: obs.histogram("sim.backlog_depth"),
            makespan: obs.gauge("sim.makespan"),
            occupancy: (0..dims)
                .map(|i| obs.gauge(&format!("sim.occupancy.r{i}")))
                .collect(),
            jobs_pending: obs.gauge("sim.jobs.pending"),
            jobs_in_flight: obs.gauge("sim.jobs.in_flight"),
            fault_failures: obs.counter("sim.faults.injected"),
            fault_stragglers: obs.counter("sim.faults.stragglers"),
            fault_retries: obs.counter("sim.faults.retries"),
            reexec_latency: obs.histogram("sim.faults.reexec_latency"),
            seen_failures: Cell::new(0),
            seen_straggles: Cell::new(0),
        }
    }

    /// Re-bases the fault-delta tracking on `env`'s current totals — call
    /// at the start of a drive so a fresh episode's state does not make
    /// the deltas go backwards.
    fn sync_faults(&self, env: &SimEnv<'_>) {
        let state = env.observe();
        self.seen_failures.set(state.fault_failures());
        self.seen_straggles.set(state.fault_straggles());
    }

    /// Records one applied action. Admissions count `Place`s; clock
    /// advances sample the post-advance backlog (ready-set depth) and
    /// per-resource occupancy fractions.
    fn record_step(&self, env: &SimEnv<'_>, action: Action) {
        self.steps.incr();
        match action {
            Action::Place(..) => self.admissions.incr(),
            Action::Process => {
                self.clock_advances.incr();
                let state = env.observe();
                self.backlog.record(state.ready().len() as u64);
                let used = state.used().as_slice();
                let cap = state.capacity().as_slice();
                for (gauge, (u, c)) in self.occupancy.iter().zip(used.iter().zip(cap)) {
                    if *c > 0.0 {
                        gauge.set(u / c);
                    }
                }
                self.jobs_pending.set(state.pending_jobs() as f64);
                self.jobs_in_flight.set(state.jobs_in_flight() as f64);
            }
        }
        let state = env.observe();
        if state.fault_plan().is_some() {
            let failures = state.fault_failures();
            self.fault_failures
                .add(failures.saturating_sub(self.seen_failures.get()));
            self.seen_failures.set(failures);
            let straggles = state.fault_straggles();
            self.fault_stragglers
                .add(straggles.saturating_sub(self.seen_straggles.get()));
            self.seen_straggles.set(straggles);
            if let Action::Place(task, _) = action {
                if state.attempts_of(task) > 1 {
                    self.fault_retries.incr();
                    if let Some(failed_at) = state.last_failure_of(task) {
                        // Re-execution latency: slots the task waited
                        // between its failure and its re-launch.
                        self.reexec_latency
                            .record(state.clock().saturating_sub(failed_at));
                    }
                }
            }
        }
    }

    fn record_terminal(&self, env: &SimEnv<'_>) {
        self.episodes.incr();
        if let Some(makespan) = env.makespan() {
            self.makespan.set(makespan as f64);
        }
    }
}

/// Runs episodes of a [`DecisionPolicy`] on a [`SimEnv`]. The driver
/// enumerates no actions and allocates nothing per step: each decision is
/// one [`DecisionPolicy::decide`] call on the environment, and a policy
/// that ranks the legal actions keeps its own buffer for them.
///
/// In debug builds (and release builds with the `audit` feature) every
/// driven step is cross-checked by an [`InvariantAuditor`]; auditing is
/// pure observation, so audited and unaudited episodes are bit-identical.
/// [`EpisodeDriver::with_audit`] overrides the default.
///
/// With the `obs` feature an [`Obs`] sink attached via
/// [`EpisodeDriver::with_obs`] records per-step simulation metrics
/// (`sim.steps`, `sim.admissions`, `sim.clock_advances`,
/// `sim.backlog_depth`, `sim.occupancy.r*`, `sim.episodes`,
/// `sim.makespan`, `sim.jobs.pending` / `sim.jobs.in_flight`, and for
/// fault-injected episodes
/// `sim.faults.injected` / `sim.faults.stragglers` / `sim.faults.retries`
/// plus the `sim.faults.reexec_latency` histogram). Instrumentation is pure
/// observation — it reads the state and never influences a decision — and
/// without the feature every recording call compiles to nothing.
#[derive(Debug, Clone)]
pub struct EpisodeDriver<P> {
    policy: P,
    auditor: Option<InvariantAuditor>,
    obs: Obs,
    episode_obs: Option<EpisodeObs>,
}

impl<P> EpisodeDriver<P> {
    /// Creates a driver around `policy`, auditing by the build-profile
    /// default and recording no metrics.
    pub fn new(policy: P) -> Self {
        EpisodeDriver {
            policy,
            auditor: default_auditor(),
            obs: Obs::noop(),
            episode_obs: None,
        }
    }

    /// Forces invariant auditing on or off, overriding the build-profile
    /// default (see [`EpisodeDriver::audits`]).
    #[must_use]
    pub fn with_audit(mut self, on: bool) -> Self {
        self.auditor = on.then(InvariantAuditor::new);
        self
    }

    /// Whether driven steps are being audited.
    pub fn audits(&self) -> bool {
        self.auditor.is_some()
    }

    /// Attaches a metric sink; driven steps record simulation metrics
    /// through it (see the type-level docs for the metric names). Pass
    /// [`Obs::noop`] to detach.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place variant of [`EpisodeDriver::with_obs`].
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.episode_obs = None;
    }

    /// Builds the instrument handles on first use. Gated on the constant
    /// [`spear_obs::compiled`] so disabled builds optimize the whole
    /// instrumentation path out of the stepping loops.
    fn prepare_obs(&mut self, env: &SimEnv<'_>) {
        if spear_obs::compiled() && self.episode_obs.is_none() && self.obs.is_enabled() {
            self.episode_obs = Some(EpisodeObs::new(&self.obs, env.spec().capacity().dims()));
        }
    }

    /// Steps `env` until it is terminal, checking every action's legality
    /// ([`SimEnv::step`]).
    ///
    /// When auditing is on (see [`EpisodeDriver::audits`]), the state is
    /// cross-checked before the first decision and after every applied
    /// action; clock monotonicity is tracked within one `drive` call.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::Cluster`] if the policy picks an illegal
    /// action — or, fault-injected, [`ClusterError::RetriesExhausted`] if
    /// a task burned its whole retry budget (the episode fails fast; it
    /// can never complete) — or [`SpearError::Audit`] if the state
    /// violates a simulation invariant.
    pub fn drive<R>(
        &mut self,
        env: &mut SimEnv<'_>,
        rng: &mut R,
    ) -> Result<DriveOutcome, SpearError>
    where
        R: Rng + ?Sized,
        P: DecisionPolicy<R>,
    {
        self.drive_loop::<true, R>(env, rng)
    }

    /// Like [`EpisodeDriver::drive`] but applies actions through
    /// [`SimEnv::step_trusted`] — the check-free loop for hot paths whose
    /// policies are known to pick only legal actions (legality is still
    /// debug-asserted). This loop has no error channel, so a
    /// retry-exhausted (poisoned) fault-injected episode comes back as
    /// `Terminal` — callers driving faulty environments must check
    /// [`SimState::exhausted`] on the observation (or use
    /// [`EpisodeDriver::drive`], which fails fast with a typed error).
    ///
    /// # Panics
    ///
    /// Panics on an invariant violation when auditing is on — a corrupt
    /// state on the trusted path is always a bug.
    pub fn drive_trusted<R>(&mut self, env: &mut SimEnv<'_>, rng: &mut R) -> DriveOutcome
    where
        R: Rng + ?Sized,
        P: DecisionPolicy<R>,
    {
        self.drive_loop::<false, R>(env, rng)
            .unwrap_or_else(|err| panic!("{err} on the trusted path"))
    }

    /// The one stepping loop: audit the start, then decide, step, audit
    /// and record until `env` is terminal. `CHECKED` stepping validates
    /// every action and fails fast on a retry-exhausted episode; trusted
    /// stepping does neither, so its only error is an audit violation.
    #[inline]
    fn drive_loop<const CHECKED: bool, R>(
        &mut self,
        env: &mut SimEnv<'_>,
        rng: &mut R,
    ) -> Result<DriveOutcome, SpearError>
    where
        R: Rng + ?Sized,
        P: DecisionPolicy<R>,
    {
        if let Some(auditor) = &mut self.auditor {
            auditor.reset();
            auditor.check(env.dag(), env.observe())?;
        }
        self.prepare_obs(env);
        if spear_obs::compiled() {
            if let Some(eo) = &self.episode_obs {
                eo.sync_faults(env);
            }
        }
        let mut steps = 0u64;
        while !env.is_terminal() {
            let action = self.policy.decide(env, rng);
            if CHECKED {
                env.step(action)?;
            } else {
                env.step_trusted(action);
            }
            if let Some(auditor) = &mut self.auditor {
                auditor.check(env.dag(), env.observe())?;
            }
            if spear_obs::compiled() {
                if let Some(eo) = &self.episode_obs {
                    eo.record_step(env, action);
                }
            }
            steps += 1;
        }
        // A retry-exhausted episode is terminal but poisoned: no schedule
        // can ever emerge from it, so surface the typed error here instead
        // of letting callers trip over a missing makespan.
        if CHECKED {
            if let Some(task) = env.observe().exhausted() {
                return Err(exhaustion_error(env.observe(), task));
            }
        }
        // A horizon-capped environment exits the loop "terminal" but
        // truncated — report that faithfully and skip the
        // completed-episode instruments.
        if env.is_truncated() {
            return Ok(DriveOutcome::Truncated { steps });
        }
        if spear_obs::compiled() {
            if let Some(eo) = &self.episode_obs {
                eo.record_terminal(env);
            }
        }
        Ok(DriveOutcome::Terminal { steps })
    }

    /// Runs one full episode of `dag` on `spec` from the initial state and
    /// returns the completed schedule.
    ///
    /// # Errors
    ///
    /// Fails if the DAG cannot run on the cluster or the policy picks an
    /// illegal action.
    pub fn run<R>(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
        rng: &mut R,
    ) -> Result<Schedule, SpearError>
    where
        R: Rng + ?Sized,
        P: DecisionPolicy<R>,
    {
        let mut env = SimEnv::new(dag, spec)?;
        self.drive(&mut env, rng)?;
        env.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::{DagBuilder, ResourceVec, Task, TaskId};

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

    /// First legal action — deterministic, so it runs with [`NoRng`].
    fn first_legal() -> FnPolicy<impl FnMut(&SimEnv<'_>) -> Action> {
        FnPolicy(|env: &SimEnv<'_>| env.observe().legal_actions(env.dag())[0])
    }

    /// Resetting is building a fresh environment over the same inputs.
    #[test]
    fn env_reset_and_step_round_trip() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let mut env = SimEnv::new(&dag, &spec).unwrap();
        assert!(!env.is_terminal());
        assert_eq!(env.makespan(), None);
        let mut legal = Vec::new();
        env.legal_into(&mut legal);
        assert_eq!(legal, vec![Action::Place(TaskId::new(0), 0)]);
        env.step(legal[0]).unwrap();
        assert_eq!(env.observe().start_of(TaskId::new(0)), Some(0));
        let env = SimEnv::new(&dag, &spec).unwrap();
        assert_eq!(env.observe().start_of(TaskId::new(0)), None);
        assert_eq!(env.dag().len(), 4);
    }

    #[test]
    fn illegal_step_is_a_typed_error_and_leaves_state_intact() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let mut env = SimEnv::new(&dag, &spec).unwrap();
        let err = env.step(Action::Place(TaskId::new(3), 0)).unwrap_err();
        assert_eq!(
            err,
            SpearError::Cluster(crate::ClusterError::TaskNotReady(TaskId::new(3)))
        );
        assert_eq!(env.observe().clock(), 0);
    }

    #[test]
    fn driver_completes_episode_and_matches_hand_rolled_loop() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let driven = EpisodeDriver::new(first_legal())
            .run(&dag, &spec, &mut NoRng)
            .unwrap();

        // The same policy, hand-rolled.
        let mut state = SimState::new(&dag, &spec).unwrap();
        while !state.is_terminal(&dag) {
            let legal = state.legal_actions(&dag);
            state.apply(&dag, legal[0]).unwrap();
        }
        let manual = state.into_schedule(&dag);
        assert_eq!(driven, manual);
        driven.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn trusted_and_checked_drives_are_identical() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let mut a = SimEnv::new(&dag, &spec).unwrap();
        let mut b = SimEnv::new(&dag, &spec).unwrap();
        let mut driver = EpisodeDriver::new(first_legal());
        let oa = driver.drive(&mut a, &mut NoRng).unwrap();
        let ob = driver.drive_trusted(&mut b, &mut NoRng);
        assert_eq!(oa, ob);
        assert!(oa.is_terminal());
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.into_schedule().unwrap(), b.into_schedule().unwrap());
    }

    #[test]
    fn stochastic_policies_thread_the_callers_rng() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        struct UniformRandom;
        impl<R: Rng + ?Sized> DecisionPolicy<R> for UniformRandom {
            fn decide(&mut self, env: &SimEnv<'_>, rng: &mut R) -> Action {
                let legal = env.observe().legal_actions(env.dag());
                legal[rng.gen_range(0..legal.len())]
            }
        }
        let run = |seed: u64| {
            EpisodeDriver::new(UniformRandom)
                .run(&dag, &spec, &mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        assert_eq!(run(9), run(9), "same seed, same schedule");
    }

    mod multi_job {
        use super::*;
        use crate::JobQueue;

        fn queue() -> JobQueue {
            let job = |runtime: u64| {
                let mut b = DagBuilder::new(1);
                b.add_task(Task::new(runtime, ResourceVec::from_slice(&[0.6])));
                b.build().unwrap()
            };
            JobQueue::new(vec![(0, job(2)), (5, job(2)), (6, job(1))]).unwrap()
        }

        #[test]
        fn driver_runs_a_job_stream_to_completion() {
            let queue = queue();
            let spec = ClusterSpec::unit(1);
            let mut env = SimEnv::from_queue(&queue, &spec).unwrap();
            let outcome = EpisodeDriver::new(first_legal())
                .drive(&mut env, &mut NoRng)
                .unwrap();
            assert!(outcome.is_terminal());
            assert!(!env.is_truncated());
            let report = queue.jct_report_partial(env.observe());
            assert_eq!(report.completions().len(), 3);
            assert_eq!(report.unfinished(), 0);
            let schedule = env.into_schedule().unwrap();
            schedule.validate(queue.union_dag(), &spec).unwrap();
            // Job 2 (arrival 6) contends with job 1 (running 5..7 on 0.6
            // of 1.0): it waits for the free capacity.
            assert_eq!(report.completions()[2].arrival, 6);
            assert!(report.completions()[2].finish >= 7);
        }

        #[test]
        fn horizon_truncates_and_reports_partial_jcts() {
            let queue = queue();
            let spec = ClusterSpec::unit(1);
            let mut env = SimEnv::from_queue(&queue, &spec)
                .unwrap()
                .with_horizon(Some(3));
            let outcome = EpisodeDriver::new(first_legal())
                .drive(&mut env, &mut NoRng)
                .unwrap();
            assert!(!outcome.is_terminal());
            assert!(env.is_truncated());
            let report = queue.jct_report_partial(env.observe());
            assert_eq!(report.completions().len(), 1); // only the t=0 job
            assert_eq!(report.unfinished(), 2);
            let err = env.into_schedule().unwrap_err();
            assert_eq!(err, SpearError::IncompleteEpisode);
        }

        /// A reset — a fresh environment over the same queue — starts
        /// every job over, with only the time-0 job's sources ready.
        #[test]
        fn reset_rewinds_to_the_gated_initial_state() {
            let queue = queue();
            let spec = ClusterSpec::unit(1);
            let mut env = SimEnv::from_queue(&queue, &spec).unwrap();
            EpisodeDriver::new(first_legal())
                .drive(&mut env, &mut NoRng)
                .unwrap();
            assert_eq!(env.observe().pending_jobs(), 0);
            let env = SimEnv::from_queue(&queue, &spec).unwrap();
            assert_eq!(env.observe().clock(), 0);
            assert_eq!(env.observe().ready(), &[TaskId::new(0)]);
            assert_eq!(env.observe().pending_jobs(), 2);
        }

        #[test]
        fn trusted_and_checked_multi_drives_are_identical() {
            let queue = queue();
            let spec = ClusterSpec::unit(1);
            let mut a = SimEnv::from_queue(&queue, &spec).unwrap();
            let mut b = SimEnv::from_queue(&queue, &spec).unwrap();
            let mut driver = EpisodeDriver::new(first_legal());
            let oa = driver.drive(&mut a, &mut NoRng).unwrap();
            let ob = driver.drive_trusted(&mut b, &mut NoRng);
            assert_eq!(oa, ob);
            assert_eq!(a.into_schedule().unwrap(), b.into_schedule().unwrap());
        }
    }

    mod fault_injection {
        use super::*;
        use crate::faults::FaultPlan;
        use crate::{ClusterError, JobQueue};

        fn flaky(fail_rate: f64, max_retries: u32) -> FaultPlan {
            FaultPlan {
                seed: 11,
                fail_rate,
                straggler_rate: 0.0,
                straggler_factor: 1.0,
                max_retries,
            }
        }

        #[test]
        fn driver_fails_fast_when_retries_are_exhausted() {
            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let mut env = SimEnv::new(&dag, &spec).unwrap().with_faults(flaky(1.0, 2));
            let mut driver = EpisodeDriver::new(first_legal());
            let err = driver.drive(&mut env, &mut NoRng).unwrap_err();
            match err {
                SpearError::Cluster(ClusterError::RetriesExhausted { attempts, .. }) => {
                    assert_eq!(attempts, 3); // max_retries + 1
                }
                other => panic!("expected RetriesExhausted, got {other}"),
            }
            assert!(env.is_terminal(), "a poisoned episode is terminal");
            assert_eq!(env.makespan(), None);
            // And the schedule extractor reports the same condition.
            let err = env.into_schedule().unwrap_err();
            assert!(matches!(
                err,
                SpearError::Cluster(ClusterError::RetriesExhausted { .. })
            ));
        }

        /// A reset — a fresh environment with the same plan — replays
        /// the same seeded faults, bit for bit.
        #[test]
        fn reset_reapplies_the_fault_plan() {
            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let plan = flaky(0.4, 8);
            let fresh = || SimEnv::new(&dag, &spec).unwrap().with_faults(plan);
            let mut driver = EpisodeDriver::new(first_legal());
            let mut env = fresh();
            driver.drive(&mut env, &mut NoRng).unwrap();
            let first = env.observe().clone();
            assert!(first.fault_failures() > 0, "plan at 0.4 should bite");
            let mut env = fresh();
            assert_eq!(env.observe().fault_plan(), Some(&plan));
            assert_eq!(env.observe().fault_failures(), 0);
            driver.drive(&mut env, &mut NoRng).unwrap();
            assert_eq!(env.observe(), &first);
        }

        #[test]
        fn multi_job_env_threads_faults_through_reset() {
            let job = |runtime: u64| {
                let mut b = DagBuilder::new(1);
                b.add_task(Task::new(runtime, ResourceVec::from_slice(&[0.6])));
                b.build().unwrap()
            };
            let queue = JobQueue::new(vec![(0, job(3)), (2, job(4))]).unwrap();
            let spec = ClusterSpec::unit(1);
            let plan = flaky(0.5, 6);
            let fresh = || SimEnv::from_queue(&queue, &spec).unwrap().with_faults(plan);
            let mut driver = EpisodeDriver::new(first_legal());
            let mut env = fresh();
            driver.drive(&mut env, &mut NoRng).unwrap();
            let report = queue.jct_report_partial(env.observe());
            assert_eq!(report.completions().len(), 2);
            let mut env = fresh();
            assert_eq!(env.observe().fault_plan(), Some(&plan));
            driver.drive(&mut env, &mut NoRng).unwrap();
            assert_eq!(
                queue.jct_report_partial(env.observe()),
                report,
                "seeded faults replay identically"
            );
        }

        #[cfg(feature = "obs")]
        #[test]
        fn fault_metrics_flow_into_the_obs_sink() {
            use spear_obs::MetricsRegistry;

            let dag = diamond();
            let spec = ClusterSpec::unit(1);
            let registry = MetricsRegistry::new();
            let obs = registry.sink("episode");
            let mut env = SimEnv::new(&dag, &spec).unwrap().with_faults(flaky(0.4, 8));
            let mut driver = EpisodeDriver::new(first_legal()).with_obs(&obs);
            driver.drive(&mut env, &mut NoRng).unwrap();
            let snapshot = registry.snapshot();
            let failures = env.observe().fault_failures();
            assert!(failures > 0, "plan at 0.4 should bite");
            assert_eq!(
                snapshot.counter_value("sim.faults.injected"),
                Some(failures)
            );
            assert_eq!(snapshot.counter_value("sim.faults.retries"), Some(failures));
            assert_eq!(
                snapshot.histogram_count("sim.faults.reexec_latency"),
                Some(failures)
            );
        }
    }

    #[test]
    fn clone_from_reuses_env_scratch() {
        let dag = diamond();
        let spec = ClusterSpec::unit(1);
        let root = SimEnv::new(&dag, &spec).unwrap();
        let mut scratch = root.clone();
        scratch.step_trusted(Action::Place(TaskId::new(0), 0));
        scratch.clone_from(&root);
        assert_eq!(scratch.observe().start_of(TaskId::new(0)), None);
        assert_eq!(scratch.observe().clock(), 0);
    }
}
