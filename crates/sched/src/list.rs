//! Generic greedy list scheduling.
//!
//! Every heuristic baseline is the same greedy loop with a different
//! priority: while some ready task fits the free capacity, schedule the
//! highest-scoring one; otherwise process the cluster. The loop is the
//! resource- and dependency-aware *executor*; the [`TaskScorer`] is the
//! *policy*. A fixed task order ([`execute_priority_order`]) is one more
//! priority: earlier in the order scores higher.

use spear_cluster::env::{EpisodeDriver, FnPolicy, NoRng, SimEnv};
use spear_cluster::{Action, ClusterSpec, JobQueue, Schedule, SimState, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::{Dag, TaskId};
use spear_obs::Obs;

use crate::Scheduler;

/// Everything a [`TaskScorer`] may inspect when ranking a candidate task.
#[derive(Debug)]
pub struct ScoreContext<'a> {
    /// The job being scheduled.
    pub dag: &'a Dag,
    /// The current simulation state (clock, free capacity, running set).
    pub state: &'a SimState,
    /// Precomputed static graph features (b-level, b-load, children).
    pub features: &'a GraphFeatures,
}

/// Ranks ready-and-fitting tasks for the greedy list scheduler; the task
/// with the highest score is scheduled next. Ties break toward the lower
/// task id, keeping every scheduler deterministic.
pub trait TaskScorer {
    /// Scheduler name for reports.
    fn name(&self) -> &str;

    /// Score of scheduling `task` now; higher runs first.
    fn score(&mut self, ctx: &ScoreContext<'_>, task: TaskId) -> f64;
}

/// The greedy list scheduler: repeatedly schedules the best-scoring ready
/// task that fits, processing the cluster only when nothing fits.
///
/// ```
/// use spear_dag::{DagBuilder, Task, ResourceVec, TaskId};
/// use spear_cluster::ClusterSpec;
/// use spear_sched::{PriorityListScheduler, ScoreContext, Scheduler, TaskScorer};
///
/// /// Prefers higher task ids — a deliberately silly policy.
/// struct Backwards;
/// impl TaskScorer for Backwards {
///     fn name(&self) -> &str { "backwards" }
///     fn score(&mut self, _ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
///         task.index() as f64
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new(1);
/// b.add_task(Task::new(1, ResourceVec::from_slice(&[1.0])));
/// b.add_task(Task::new(1, ResourceVec::from_slice(&[1.0])));
/// let dag = b.build()?;
/// let schedule = PriorityListScheduler::with_scorer(Backwards)
///     .schedule(&dag, &ClusterSpec::unit(1))?;
/// // Task 1 was scheduled first.
/// assert_eq!(schedule.placement_of(TaskId::new(1)).unwrap().start, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PriorityListScheduler<S> {
    scorer: S,
    obs: Obs,
}

impl<S: TaskScorer> PriorityListScheduler<S> {
    /// Wraps a scorer into a full scheduler.
    pub fn with_scorer(scorer: S) -> Self {
        PriorityListScheduler {
            scorer,
            obs: Obs::noop(),
        }
    }

    /// Attaches a metric sink: every driven episode records the `sim.*`
    /// family through its [`EpisodeDriver`]. Pass [`Obs::noop`] to detach.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }
}

impl<S: TaskScorer + Default> PriorityListScheduler<S> {
    /// The scheduler over the scorer's default, as in
    /// [`TetrisScheduler::new()`](crate::TetrisScheduler).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: TaskScorer> Scheduler for PriorityListScheduler<S> {
    fn name(&self) -> &str {
        self.scorer.name()
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        let mut env = SimEnv::from_queue(queue, spec)?;
        let features = GraphFeatures::compute(env.dag());
        let scorer = &mut self.scorer;
        let mut legal = Vec::new();
        // The legal `Place` actions are exactly the ready-and-fitting
        // candidates, already in ascending task-id order; the greedy policy
        // just ranks them (strict `>` keeps ties on the lowest id).
        let policy = FnPolicy(|env: &SimEnv<'_>| {
            env.legal_into(&mut legal);
            let (dag, state) = (env.dag(), env.observe());
            let score_ctx = ScoreContext {
                dag,
                state,
                features: &features,
            };
            select_best(dag, state, &legal, |t| scorer.score(&score_ctx, t))
        });
        EpisodeDriver::new(policy)
            .with_obs(&self.obs)
            .drive(&mut env, &mut NoRng)?;
        env.into_schedule()
    }
}

/// Fraction of `task`'s parents that ran on machine `m` — the locality
/// bonus of a `(task, machine)` pair. Placing a child next to its parents
/// keeps future data local; 0 for source tasks and on a one-machine
/// cluster, where every parent trivially shares the one machine (a bonus
/// there would rank children above equally-scored sources).
fn locality(dag: &Dag, state: &SimState, task: TaskId, m: u32) -> f64 {
    if state.num_machines() == 1 {
        return 0.0;
    }
    let parents = dag.parents(task);
    if parents.is_empty() {
        return 0.0;
    }
    let co = parents
        .iter()
        .filter(|&&p| state.machine_of(p) == Some(m))
        .count();
    co as f64 / parents.len() as f64
}

/// Picks the scheduling action with the highest task score, breaking score
/// ties toward the better machine locality and remaining ties toward the
/// slice order (lowest task id, then lowest machine id), or `Process` when
/// nothing fits. This ranks the full `(task, machine)` product the legal
/// list spells out.
fn select_best<F: FnMut(TaskId) -> f64>(
    dag: &Dag,
    state: &SimState,
    legal: &[Action],
    mut score: F,
) -> Action {
    let mut best: Option<(Action, f64, f64)> = None;
    let mut last_task: Option<(TaskId, f64)> = None;
    for &action in legal {
        let Some(t) = action.task() else {
            continue;
        };
        // The legal list is task-major, so the score of a task with
        // several feasible machines is computed once.
        let s = match last_task {
            Some((lt, ls)) if lt == t => ls,
            _ => {
                let s = score(t);
                last_task = Some((t, s));
                s
            }
        };
        let loc = action.machine().map_or(0.0, |m| locality(dag, state, t, m));
        let better = match best {
            Some((_, bs, bl)) => s > bs || (s == bs && loc > bl),
            None => true,
        };
        if better {
            best = Some((action, s, loc));
        }
    }
    match best {
        Some((action, ..)) => action,
        None => Action::Process,
    }
}

/// Scores each task by its position in a fixed order, negated: the
/// earliest-in-order task scores highest. Positions are distinct, so the
/// greedy loop's tie-breaks only ever choose among one task's machines.
struct Rank(Vec<usize>);

impl TaskScorer for Rank {
    fn name(&self) -> &str {
        "priority-order"
    }

    fn score(&mut self, _ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
        -(self.0[task.index()] as f64)
    }
}

/// Executes a fixed priority order dependency- and resource-aware: at every
/// decision point the earliest-in-order legal task is scheduled — a task
/// is eligible once its job has arrived, it is ready and it fits — on its
/// feasible machine with the highest parent locality. It is the greedy
/// list scheduler scoring each task by its negated position in `order`.
///
/// This is Graphene's final stage (running the order derived from the
/// virtual placement through the real cluster) and is generally useful for
/// turning any total order of tasks into a valid schedule. A single DAG is
/// the one-job queue [`JobQueue::single`].
///
/// `order` must contain every task of the union DAG exactly once.
///
/// # Errors
///
/// Returns [`SpearError`] if any job cannot run on the cluster.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the union DAG's tasks.
pub fn execute_priority_order(
    queue: &JobQueue,
    spec: &ClusterSpec,
    order: &[TaskId],
) -> Result<Schedule, SpearError> {
    let dag = queue.union_dag();
    assert_eq!(order.len(), dag.len(), "order must cover every task");
    let mut rank = vec![usize::MAX; dag.len()];
    for (i, &t) in order.iter().enumerate() {
        assert!(
            rank[t.index()] == usize::MAX,
            "order contains task {t} twice"
        );
        rank[t.index()] = i;
    }
    PriorityListScheduler::with_scorer(Rank(rank)).schedule_multi(queue, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    struct ById;
    impl TaskScorer for ById {
        fn name(&self) -> &str {
            "by-id"
        }
        fn score(&mut self, _ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
            -(task.index() as f64)
        }
    }

    fn three_independent() -> Dag {
        let mut b = DagBuilder::new(1);
        for _ in 0..3 {
            b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        }
        b.build().unwrap()
    }

    #[test]
    fn list_scheduler_serializes_when_capacity_tight() {
        let dag = three_independent();
        let s = PriorityListScheduler::with_scorer(ById)
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s.makespan(), 6);
        s.validate(&dag, &ClusterSpec::unit(1)).unwrap();
        // Scheduled in id order.
        for i in 0..3 {
            assert_eq!(s.placement_of(TaskId::new(i)).unwrap().start, 2 * i as u64);
        }
    }

    #[test]
    fn list_scheduler_packs_when_capacity_allows() {
        let dag = three_independent();
        let spec = spear_cluster::ClusterSpec::new(ResourceVec::from_slice(&[1.3])).unwrap();
        let s = PriorityListScheduler::with_scorer(ById)
            .schedule(&dag, &spec)
            .unwrap();
        assert_eq!(s.makespan(), 4); // two in parallel (1.2 <= 1.3), then one
        s.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn tie_break_is_lowest_id() {
        struct Constant;
        impl TaskScorer for Constant {
            fn name(&self) -> &str {
                "constant"
            }
            fn score(&mut self, _ctx: &ScoreContext<'_>, _task: TaskId) -> f64 {
                1.0
            }
        }
        let dag = three_independent();
        let s = PriorityListScheduler::with_scorer(Constant)
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s.placement_of(TaskId::new(0)).unwrap().start, 0);
    }

    #[test]
    fn execute_order_respects_dependencies() {
        // 0 -> 1; order says 1 first, but 1 is not ready, so 0 runs first.
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let c = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let queue = JobQueue::single(dag.clone()).unwrap();
        let s = execute_priority_order(&queue, &ClusterSpec::unit(1), &[c, a]).unwrap();
        assert_eq!(s.placement_of(a).unwrap().start, 0);
        assert_eq!(s.placement_of(c).unwrap().start, 2);
        s.validate(&dag, &ClusterSpec::unit(1)).unwrap();
    }

    #[test]
    fn execute_order_follows_order_among_ready() {
        let dag = three_independent();
        let order = [TaskId::new(2), TaskId::new(0), TaskId::new(1)];
        let queue = JobQueue::single(dag).unwrap();
        let s = execute_priority_order(&queue, &ClusterSpec::unit(1), &order).unwrap();
        assert_eq!(s.placement_of(TaskId::new(2)).unwrap().start, 0);
        assert_eq!(s.placement_of(TaskId::new(0)).unwrap().start, 2);
        assert_eq!(s.placement_of(TaskId::new(1)).unwrap().start, 4);
    }

    #[test]
    #[should_panic(expected = "order must cover every task")]
    fn execute_order_rejects_short_order() {
        let queue = JobQueue::single(three_independent()).unwrap();
        let _ = execute_priority_order(&queue, &ClusterSpec::unit(1), &[TaskId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn execute_order_rejects_duplicates() {
        let queue = JobQueue::single(three_independent()).unwrap();
        let order = [TaskId::new(0), TaskId::new(0), TaskId::new(1)];
        let _ = execute_priority_order(&queue, &ClusterSpec::unit(1), &order);
    }

    #[test]
    fn multi_job_schedule_respects_arrivals() {
        let queue =
            JobQueue::new(vec![(0, three_independent()), (4, three_independent())]).unwrap();
        let spec = ClusterSpec::unit(1);
        let s = PriorityListScheduler::with_scorer(ById)
            .schedule_multi(&queue, &spec)
            .unwrap();
        s.validate(queue.union_dag(), &spec).unwrap();
        for span in queue.spans() {
            for i in span.first_task..span.first_task + span.tasks {
                let start = s.placement_of(TaskId::new(i)).unwrap().start;
                assert!(start >= span.arrival, "task {i} started before arrival");
            }
        }
        let report = queue.jct_report(&s);
        assert_eq!(report.completions().len(), 2);
        assert_eq!(report.unfinished(), 0);
    }

    #[test]
    fn execute_order_multi_gates_on_arrival() {
        // The order begs for the late job first, but it cannot start
        // before t=3; the earlier job fills the gap.
        let one_task = |runtime: u64| {
            let mut b = DagBuilder::new(1);
            b.add_task(Task::new(runtime, ResourceVec::from_slice(&[0.9])));
            b.build().unwrap()
        };
        let queue = JobQueue::new(vec![(0, one_task(2)), (3, one_task(2))]).unwrap();
        let spec = ClusterSpec::unit(1);
        let order = [TaskId::new(1), TaskId::new(0)];
        let s = execute_priority_order(&queue, &spec, &order).unwrap();
        assert_eq!(s.placement_of(TaskId::new(0)).unwrap().start, 0);
        assert_eq!(s.placement_of(TaskId::new(1)).unwrap().start, 3);
    }
}
