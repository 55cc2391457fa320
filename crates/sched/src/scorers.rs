//! The heuristic baseline schedulers: Tetris, SJF, CP and Random.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spear_dag::TaskId;

use crate::{PriorityListScheduler, ScoreContext, TaskScorer};

/// Tetris (Grandl et al., SIGCOMM 2014): packs the ready task whose demand
/// vector is best *aligned* with the free capacity — the dot product
/// `demand · free`. Dependency-oblivious beyond readiness, which is exactly
/// the weakness the paper's motivating example exploits.
#[derive(Debug, Clone, Default)]
pub struct TetrisScorer;

impl TaskScorer for TetrisScorer {
    fn name(&self) -> &str {
        "tetris"
    }

    fn score(&mut self, ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
        ctx.dag.task(task).demand().dot(ctx.state.free())
    }
}

/// Shortest Job First: the ready task with the smallest runtime wins.
#[derive(Debug, Clone, Default)]
pub struct SjfScorer;

impl TaskScorer for SjfScorer {
    fn name(&self) -> &str {
        "sjf"
    }

    fn score(&mut self, ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
        -(ctx.dag.task(task).runtime() as f64)
    }
}

/// Largest Critical Path first: ranks ready tasks by b-level (the longest
/// runtime path to an exit), breaking ties by child count — the classic
/// dependency-aware list heuristic (and the expert imitated during the DRL
/// agent's supervised pre-training).
#[derive(Debug, Clone, Default)]
pub struct CpScorer;

impl TaskScorer for CpScorer {
    fn name(&self) -> &str {
        "cp"
    }

    fn score(&mut self, ctx: &ScoreContext<'_>, task: TaskId) -> f64 {
        let f = ctx.features.task(task);
        // b-level dominates; child count breaks ties (both integers, so a
        // sub-integer weight keeps them lexicographic).
        f.b_level as f64 + f.children as f64 / 1e6
    }
}

/// Uniformly random scores — the sanity-check floor every real scheduler
/// must beat.
#[derive(Debug, Clone)]
pub struct RandomScorer {
    rng: StdRng,
}

impl RandomScorer {
    /// Creates a scorer with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScorer {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl TaskScorer for RandomScorer {
    fn name(&self) -> &str {
        "random"
    }

    fn score(&mut self, _ctx: &ScoreContext<'_>, _task: TaskId) -> f64 {
        self.rng.gen()
    }
}

/// The Tetris packing scheduler. See [`TetrisScorer`].
///
/// ```
/// use spear_sched::{Scheduler, TetrisScheduler};
/// assert_eq!(TetrisScheduler::new().name(), "tetris");
/// ```
pub type TetrisScheduler = PriorityListScheduler<TetrisScorer>;

/// The Shortest-Job-First scheduler. See [`SjfScorer`].
pub type SjfScheduler = PriorityListScheduler<SjfScorer>;

/// The largest-Critical-Path scheduler. See [`CpScorer`].
pub type CpScheduler = PriorityListScheduler<CpScorer>;

/// The random scheduler. See [`RandomScorer`].
pub type RandomScheduler = PriorityListScheduler<RandomScorer>;

impl RandomScheduler {
    /// Creates a random scheduler with a fixed RNG seed.
    pub fn seeded(seed: u64) -> Self {
        Self::with_scorer(RandomScorer::seeded(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use spear_cluster::ClusterSpec;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    fn spec2() -> ClusterSpec {
        ClusterSpec::unit(2)
    }

    /// Two ready tasks: a CPU-shaped one and a memory-shaped one; free
    /// space is CPU-rich. Tetris must pick the CPU-shaped task.
    #[test]
    fn tetris_prefers_aligned_task() {
        let mut b = DagBuilder::new(2);
        // Occupier consumes most memory, leaving CPU-rich free space.
        let occupier = b.add_task(Task::new(10, ResourceVec::from_slice(&[0.1, 0.7])));
        let cpu_task = b.add_task(Task::new(5, ResourceVec::from_slice(&[0.6, 0.1])));
        let mem_task = b.add_task(Task::new(5, ResourceVec::from_slice(&[0.1, 0.3])));
        let _ = occupier;
        let dag = b.build().unwrap();
        let s = TetrisScheduler::new().schedule(&dag, &spec2()).unwrap();
        // Occupier (t0) has the largest alignment at t=0 (free = [1,1],
        // score 0.8 vs 0.7 vs 0.4), then the CPU task fits the CPU-rich
        // remainder better than the memory task.
        assert_eq!(s.placement_of(occupier).unwrap().start, 0);
        assert!(s.placement_of(cpu_task).unwrap().start <= s.placement_of(mem_task).unwrap().start);
        s.validate(&dag, &spec2()).unwrap();
    }

    #[test]
    fn sjf_runs_shortest_first() {
        let mut b = DagBuilder::new(1);
        let long = b.add_task(Task::new(9, ResourceVec::from_slice(&[0.9])));
        let short = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.9])));
        let dag = b.build().unwrap();
        let s = SjfScheduler::new()
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s.placement_of(short).unwrap().start, 0);
        assert_eq!(s.placement_of(long).unwrap().start, 1);
    }

    #[test]
    fn cp_runs_longest_chain_first() {
        // t0 heads a long chain; t1 is a lone long task. CP picks t0 first
        // even though t1 is longer, because t0's b-level is larger.
        let mut b = DagBuilder::new(1);
        let head = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.9])));
        let _lone = b.add_task(Task::new(5, ResourceVec::from_slice(&[0.9])));
        let mid = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.9])));
        let tail = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.9])));
        b.add_edge(head, mid).unwrap();
        b.add_edge(mid, tail).unwrap();
        let dag = b.build().unwrap();
        let s = CpScheduler::new()
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s.placement_of(head).unwrap().start, 0);
        s.validate(&dag, &ClusterSpec::unit(1)).unwrap();
    }

    #[test]
    fn cp_breaks_ties_by_child_count() {
        // Two tasks with equal b-level; t1 has more children.
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        let c = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        let a_kid = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let c_kid1 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let c_kid2 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        b.add_edge(a, a_kid).unwrap();
        b.add_edge(c, c_kid1).unwrap();
        b.add_edge(c, c_kid2).unwrap();
        let dag = b.build().unwrap();
        let s = CpScheduler::new()
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s.placement_of(c).unwrap().start, 0);
        assert_eq!(s.placement_of(a).unwrap().start, 2);
    }

    #[test]
    fn random_is_seeded_and_deterministic() {
        let dag = {
            let mut b = DagBuilder::new(1);
            for _ in 0..10 {
                b.add_task(Task::new(2, ResourceVec::from_slice(&[0.4])));
            }
            b.build().unwrap()
        };
        let s1 = RandomScheduler::seeded(7)
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        let s2 = RandomScheduler::seeded(7)
            .schedule(&dag, &ClusterSpec::unit(1))
            .unwrap();
        assert_eq!(s1, s2);
        s1.validate(&dag, &ClusterSpec::unit(1)).unwrap();
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(TetrisScheduler::new().name(), "tetris");
        assert_eq!(SjfScheduler::new().name(), "sjf");
        assert_eq!(CpScheduler::new().name(), "cp");
        assert_eq!(RandomScheduler::seeded(0).name(), "random");
    }
}
