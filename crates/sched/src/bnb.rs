//! An exact branch-and-bound scheduler for small jobs.
//!
//! Not part of the paper — an addition used as the *optimality reference*
//! in tests and ablations: on jobs small enough to solve exactly, MCTS and
//! Spear can be measured against the true optimum rather than against
//! each other.
//!
//! The search explores the same decoupled action space as the simulator
//! (so its optimum is the optimum over every schedule the other
//! schedulers could emit), depth-first, with:
//!
//! * an incumbent initialized by the Tetris greedy schedule,
//! * a critical-path + load lower bound per node,
//! * symmetry reduction: at each node the *schedule* actions are explored
//!   in ascending task id, and `process` is explored last,
//! * a configurable node budget; the result reports whether the search
//!   completed (proving optimality) or was truncated.

use spear_cluster::env::SimEnv;
use spear_cluster::{Action, ClusterSpec, JobQueue, Schedule, SimState, SpearError};
use spear_dag::analysis;
use spear_dag::{Dag, TaskId};

use crate::{Scheduler, TetrisScheduler};

/// Configuration of [`BnBScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnBConfig {
    /// Maximum search nodes before giving up on proving optimality.
    pub max_nodes: u64,
}

impl Default for BnBConfig {
    fn default() -> Self {
        BnBConfig {
            max_nodes: 2_000_000,
        }
    }
}

/// The result of an exact search.
#[derive(Debug, Clone, PartialEq)]
pub struct BnBOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// `true` if the search space was exhausted — the schedule is provably
    /// optimal.
    pub proved_optimal: bool,
    /// Nodes expanded.
    pub nodes: u64,
}

/// Exact branch-and-bound makespan minimization. Exponential; intended
/// for jobs of roughly ≤ 15 tasks (see [`BnBConfig::max_nodes`]).
#[derive(Debug, Clone, Default)]
pub struct BnBScheduler {
    config: BnBConfig,
}

impl BnBScheduler {
    /// Creates the scheduler with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the scheduler with a custom node budget.
    pub fn with_config(config: BnBConfig) -> Self {
        BnBScheduler { config }
    }

    /// Runs the exact search over an arrival stream: the branch-and-bound
    /// explores the simulator's action space, so its optimum is the best
    /// *union makespan* any online scheduler could achieve on this stream
    /// (given full knowledge of future arrivals). A single DAG is the
    /// one-job queue [`JobQueue::single`].
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if any job cannot run on the cluster.
    pub fn solve(&self, queue: &JobQueue, spec: &ClusterSpec) -> Result<BnBOutcome, SpearError> {
        let dag = queue.union_dag();
        // Incumbent: the greedy packer.
        let greedy = TetrisScheduler::new().schedule_multi(queue, spec)?;
        // Per-task release times tighten the bound: an unstarted task can
        // never start before its job arrives.
        let mut arrivals = vec![0u64; dag.len()];
        for span in queue.spans() {
            arrivals[span.first_task..span.first_task + span.tasks].fill(span.arrival);
        }
        let mut search = Search {
            dag,
            spec,
            b_levels: analysis::b_levels(dag),
            arrivals,
            load: vec![0.0; spec.dims()],
            best: greedy.makespan(),
            best_state: None,
            nodes: 0,
            max_nodes: self.config.max_nodes,
        };
        let root = SimEnv::from_queue(queue, spec)?;
        let exhausted = search.dfs(&root)?;
        let schedule = match search.best_state {
            Some(state) => SimEnv::from_state(dag, spec, state).into_schedule()?,
            None => greedy,
        };
        Ok(BnBOutcome {
            schedule,
            proved_optimal: exhausted,
            nodes: search.nodes,
        })
    }
}

impl Scheduler for BnBScheduler {
    fn name(&self) -> &str {
        "bnb"
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        Ok(self.solve(queue, spec)?.schedule)
    }
}

struct Search<'a> {
    dag: &'a Dag,
    spec: &'a ClusterSpec,
    b_levels: Vec<u64>,
    /// Per-task release times: each task's job arrival. Arrivals of zero
    /// never raise the bound, so a single DAG explores the same tree.
    arrivals: Vec<u64>,
    /// Scratch of the per-dimension unscheduled load.
    load: Vec<f64>,
    best: u64,
    best_state: Option<SimState>,
    nodes: u64,
    max_nodes: u64,
}

impl Search<'_> {
    /// Lower bound on the completion time from `state`:
    /// * every unfinished-but-started task ends at its finish time, and
    ///   its not-yet-ready successors add their b-levels on top;
    /// * every ready/blocked task can start no earlier than now;
    /// * the remaining resource-time load per dimension must fit after
    ///   `clock`.
    ///
    /// On a cluster of several machines the bound uses the *min-transfer
    /// relaxation*: every cross-machine edge delay is relaxed to zero,
    /// since a child may always be co-located with its parent. Transfers can only delay
    /// starts relative to this relaxation, so the bound stays admissible,
    /// and the aggregate load bound relaxes per-machine capacities to
    /// their sum, which again only under-estimates the true makespan.
    fn lower_bound(&mut self, state: &SimState) -> u64 {
        let mut lb = state.max_finish();
        // Ready tasks: start >= clock.
        for &t in state.ready() {
            lb = lb.max(state.clock() + self.b_levels[t.index()]);
        }
        // Running tasks: children start >= finish.
        for run in state.running() {
            for &c in self.dag.children(run.task) {
                if state.start_of(c).is_none() {
                    lb = lb.max(run.finish + self.b_levels[c.index()]);
                }
            }
        }
        // Unscheduled tasks: a task cannot start before its job arrives,
        // so it finishes no earlier than arrival + b-level; and their
        // summed load per dimension must fit after `clock`.
        self.load.fill(0.0);
        for t in self.dag.task_ids() {
            if state.start_of(t).is_none() {
                lb = lb.max(self.arrivals[t.index()] + self.b_levels[t.index()]);
                for (r, load) in self.load.iter_mut().enumerate() {
                    *load += self.dag.task(t).load(r);
                }
            }
        }
        for (r, &load) in self.load.iter().enumerate() {
            let cap = self.spec.capacity()[r];
            if cap > 0.0 {
                lb = lb.max(state.clock() + (load / cap).floor() as u64);
            }
        }
        lb
    }

    /// Returns `Ok(true)` if the subtree was fully explored within the
    /// node budget.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (legal actions never fail to apply, but
    /// the checked [`SimEnv::step`] surfaces any violation as a typed error
    /// instead of panicking).
    fn dfs(&mut self, env: &SimEnv<'_>) -> Result<bool, SpearError> {
        if self.nodes >= self.max_nodes {
            return Ok(false);
        }
        self.nodes += 1;
        if env.is_terminal() {
            if let Some(makespan) = env.makespan() {
                if makespan < self.best {
                    self.best = makespan;
                    self.best_state = Some(env.observe().clone());
                }
            }
            return Ok(true);
        }
        if self.lower_bound(env.observe()) >= self.best {
            return Ok(true); // pruned, but fully accounted for
        }
        let mut exhausted = true;
        let mut actions = Vec::new();
        env.legal_into(&mut actions);
        // Placements ascending by task id, then machine; process last
        // (already the simulator's order, but make it explicit for the
        // symmetry argument).
        actions.sort_by_key(|a| match a {
            Action::Place(t, m) => (0, t.index(), *m as usize),
            Action::Process => (1, usize::MAX, usize::MAX),
        });
        for action in actions {
            let mut child = env.clone();
            child.step(action)?;
            exhausted &= self.dfs(&child)?;
            if self.nodes >= self.max_nodes {
                return Ok(false);
            }
        }
        Ok(exhausted)
    }
}

/// Convenience: the provably optimal makespan of a small job, or `None`
/// if the node budget was exhausted first.
///
/// # Errors
///
/// Returns [`SpearError`] if the DAG cannot run on the cluster.
pub fn optimal_makespan(
    dag: &Dag,
    spec: &ClusterSpec,
    max_nodes: u64,
) -> Result<Option<u64>, SpearError> {
    let outcome = BnBScheduler::with_config(BnBConfig { max_nodes })
        .solve(&JobQueue::single(dag.clone())?, spec)?;
    Ok(outcome.proved_optimal.then(|| outcome.schedule.makespan()))
}

/// Re-exported task id type used in this module's tests.
#[allow(unused)]
type Tid = TaskId;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    #[test]
    fn solves_single_task() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(5, ResourceVec::from_slice(&[0.5])));
        let dag = b.build().unwrap();
        let outcome = BnBScheduler::new()
            .solve(&JobQueue::single(dag).unwrap(), &ClusterSpec::unit(1))
            .unwrap();
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.schedule.makespan(), 5);
    }

    #[test]
    fn finds_complementary_pairing() {
        // Two cpu-heavy + two mem-heavy tasks: optimal pairs them across
        // resources, makespan 2T; any same-type pairing costs 3T+.
        let mut b = DagBuilder::new(2);
        for _ in 0..2 {
            b.add_task(Task::new(10, ResourceVec::from_slice(&[0.9, 0.05])));
        }
        for _ in 0..2 {
            b.add_task(Task::new(10, ResourceVec::from_slice(&[0.05, 0.9])));
        }
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(2);
        let queue = JobQueue::single(dag.clone()).unwrap();
        let outcome = BnBScheduler::new().solve(&queue, &spec).unwrap();
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.schedule.makespan(), 20);
        outcome.schedule.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn optimum_never_exceeds_any_heuristic() {
        let spec = ClusterSpec::unit(2);
        for seed in 0..4 {
            let dag = LayeredDagSpec {
                num_tasks: 8,
                ..LayeredDagSpec::paper_training()
            }
            .generate(&mut StdRng::seed_from_u64(seed));
            let queue = JobQueue::single(dag.clone()).unwrap();
            let outcome = BnBScheduler::new().solve(&queue, &spec).unwrap();
            assert!(outcome.proved_optimal, "seed {seed} did not finish");
            let opt = outcome.schedule.makespan();
            for mut h in [
                Box::new(TetrisScheduler::new()) as Box<dyn Scheduler>,
                Box::new(crate::SjfScheduler::new()),
                Box::new(crate::CpScheduler::new()),
                Box::new(crate::Graphene::new()),
            ] {
                assert!(h.schedule(&dag, &spec).unwrap().makespan() >= opt);
            }
            assert!(opt >= dag.makespan_lower_bound(spec.capacity()));
        }
    }

    #[test]
    fn node_budget_truncates_gracefully() {
        let dag = LayeredDagSpec {
            num_tasks: 12,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(9));
        let spec = ClusterSpec::unit(2);
        let outcome = BnBScheduler::with_config(BnBConfig { max_nodes: 50 })
            .solve(&JobQueue::single(dag.clone()).unwrap(), &spec)
            .unwrap();
        // Truncated search still returns a valid schedule (the greedy
        // incumbent at worst).
        assert!(!outcome.proved_optimal);
        outcome.schedule.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn multi_job_optimum_respects_arrivals_and_bounds_heuristics() {
        // Job 0: one long task at t=0. Job 1: one short task at t=1.
        // Capacity forces serialization; the optimum runs the short task
        // in the arrival-created idle only if it fits — BnB proves the
        // best interleaving.
        let one_task = |runtime: u64, demand: f64| {
            let mut b = DagBuilder::new(1);
            b.add_task(Task::new(runtime, ResourceVec::from_slice(&[demand])));
            b.build().unwrap()
        };
        let queue = JobQueue::new(vec![
            (0, one_task(4, 0.6)),
            (1, one_task(2, 0.6)),
            (3, one_task(1, 0.6)),
        ])
        .unwrap();
        let spec = ClusterSpec::unit(1);
        let outcome = BnBScheduler::new().solve(&queue, &spec).unwrap();
        assert!(outcome.proved_optimal);
        let s = &outcome.schedule;
        s.validate(queue.union_dag(), &spec).unwrap();
        for span in queue.spans() {
            for i in span.first_task..span.first_task + span.tasks {
                assert!(s.placement_of(Tid::new(i)).unwrap().start >= span.arrival);
            }
        }
        // No heuristic beats the proven optimum on the same stream.
        for mut h in [
            Box::new(TetrisScheduler::new()) as Box<dyn Scheduler>,
            Box::new(crate::SjfScheduler::new()),
            Box::new(crate::CpScheduler::new()),
            Box::new(crate::Graphene::new()),
        ] {
            let hs = h.schedule_multi(&queue, &spec).unwrap();
            assert!(hs.makespan() >= s.makespan(), "{} beat BnB", h.name());
        }
    }

    #[test]
    fn optimal_makespan_helper() {
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(3, ResourceVec::from_slice(&[1.0])));
        let c = b.add_task(Task::new(4, ResourceVec::from_slice(&[1.0])));
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(
            optimal_makespan(&dag, &ClusterSpec::unit(1), 10_000).unwrap(),
            Some(7)
        );
        // Even with a single node the bound already proves the greedy
        // incumbent optimal on this trivial chain (pruning counts as a
        // fully-explored subtree).
        assert_eq!(
            optimal_makespan(&dag, &ClusterSpec::unit(1), 1).unwrap(),
            Some(7)
        );
    }
}
