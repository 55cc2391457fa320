//! Topological utilities: level structure and incremental ready-set
//! tracking.

use serde::{Deserialize, Serialize};

use crate::{Dag, TaskId};

/// Assigns each task its *level*: the length (in edges) of the longest path
/// from any source to the task. Sources are level 0.
///
/// ```
/// use spear_dag::{DagBuilder, Task, ResourceVec, topo};
/// # fn main() -> Result<(), spear_dag::DagError> {
/// let mut b = DagBuilder::new(1);
/// let a = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
/// let c = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
/// b.add_edge(a, c)?;
/// let dag = b.build()?;
/// assert_eq!(topo::levels(&dag), vec![0, 1]);
/// # Ok(())
/// # }
/// ```
pub fn levels(dag: &Dag) -> Vec<usize> {
    let mut level = vec![0usize; dag.len()];
    for &v in dag.topological_order() {
        for &c in dag.children(v) {
            level[c.index()] = level[c.index()].max(level[v.index()] + 1);
        }
    }
    level
}

/// The *width* of the DAG: the maximum number of tasks sharing a level.
/// This is the quantity the paper's generator bounds to 2–5.
pub fn width(dag: &Dag) -> usize {
    let lv = levels(dag);
    let max_level = lv.iter().copied().max().unwrap_or(0);
    let mut counts = vec![0usize; max_level + 1];
    for l in lv {
        counts[l] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// Number of levels (longest path in edges, plus one).
pub fn depth(dag: &Dag) -> usize {
    levels(dag).into_iter().max().unwrap_or(0) + 1
}

/// Incrementally tracks which tasks are *ready* (all parents completed).
///
/// The tracker starts with the DAG's sources ready; calling
/// [`ReadyTracker::complete`] marks a task finished and inserts the tasks
/// that became ready as a result. The simulator, every baseline scheduler
/// and the MCTS state all use this to maintain the frontier.
///
/// ```
/// use spear_dag::{DagBuilder, Task, ResourceVec, topo::ReadyTracker};
/// # fn main() -> Result<(), spear_dag::DagError> {
/// let mut b = DagBuilder::new(1);
/// let a = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
/// let c = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
/// b.add_edge(a, c)?;
/// let dag = b.build()?;
/// let mut tracker = ReadyTracker::new(&dag);
/// assert_eq!(tracker.ready(), &[a]);
/// tracker.take(a);
/// tracker.complete(&dag, a);
/// assert_eq!(tracker.ready(), &[c]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadyTracker {
    pending_parents: Vec<u32>,
    ready: Vec<TaskId>,
    completed: usize,
}

// Manual `Clone` so `clone_from` reuses both vectors' allocations; the MCTS
// rollout scratch clones a tracker per rollout and must not allocate in
// steady state.
impl Clone for ReadyTracker {
    fn clone(&self) -> Self {
        ReadyTracker {
            pending_parents: self.pending_parents.clone(),
            ready: self.ready.clone(),
            completed: self.completed,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pending_parents.clone_from(&source.pending_parents);
        self.ready.clone_from(&source.ready);
        self.completed = source.completed;
    }
}

impl ReadyTracker {
    /// Creates a tracker with the sources of `dag` ready.
    pub fn new(dag: &Dag) -> Self {
        let pending_parents: Vec<u32> = dag
            .task_ids()
            .map(|t| dag.parents(t).len() as u32)
            .collect();
        let ready = dag.sources();
        ReadyTracker {
            pending_parents,
            ready,
            completed: 0,
        }
    }

    /// Tasks currently ready, sorted by id.
    #[inline]
    pub fn ready(&self) -> &[TaskId] {
        &self.ready
    }

    /// Number of tasks completed so far.
    #[inline]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Whether all `n` tasks of the DAG have completed.
    #[inline]
    pub fn all_done(&self, dag: &Dag) -> bool {
        self.completed == dag.len()
    }

    /// Removes `task` from the ready set (because it was scheduled).
    ///
    /// # Panics
    ///
    /// Panics if `task` is not currently ready.
    #[inline]
    pub fn take(&mut self, task: TaskId) {
        // The set is sorted by id, so membership is a binary search.
        let pos = self
            .ready
            .binary_search(&task)
            .expect("task is not in the ready set");
        self.ready.remove(pos);
    }

    /// Inserts `task` into the ready set, keeping it sorted. The inverse of
    /// [`ReadyTracker::take`] for tasks *withheld* from the frontier rather
    /// than scheduled — the multi-job simulator takes the sources of a job
    /// out of the frontier until its arrival time, then reinserts them here.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `task` is already listed ready or has
    /// pending parents — reinsertion is only valid for withheld tasks.
    #[inline]
    pub fn insert_ready(&mut self, task: TaskId) {
        debug_assert_eq!(
            self.pending_parents[task.index()],
            0,
            "inserting a task with pending parents into the ready set"
        );
        let pos = self.ready.partition_point(|&r| r < task);
        debug_assert!(
            self.ready.get(pos) != Some(&task),
            "task is already in the ready set"
        );
        self.ready.insert(pos, task);
    }

    /// Marks `task` completed, inserting the children that became ready
    /// into the (sorted) ready set without allocating.
    #[inline]
    pub fn complete(&mut self, dag: &Dag, task: TaskId) {
        self.completed += 1;
        for &c in dag.children(task) {
            let p = &mut self.pending_parents[c.index()];
            debug_assert!(*p > 0, "completing a parent twice");
            *p -= 1;
            if *p == 0 {
                let pos = self.ready.partition_point(|&r| r < c);
                self.ready.insert(pos, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, ResourceVec, Task};

    fn chain(n: usize) -> Dag {
        let mut b = DagBuilder::new(1);
        let ids: Vec<TaskId> = (0..n)
            .map(|_| b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1]))))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn fork_join() -> Dag {
        // 0 -> {1,2,3} -> 4
        let mut b = DagBuilder::new(1);
        let ids: Vec<TaskId> = (0..5)
            .map(|_| b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1]))))
            .collect();
        for i in 1..=3 {
            b.add_edge(ids[0], ids[i]).unwrap();
            b.add_edge(ids[i], ids[4]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn levels_of_chain() {
        assert_eq!(levels(&chain(4)), vec![0, 1, 2, 3]);
        assert_eq!(depth(&chain(4)), 4);
        assert_eq!(width(&chain(4)), 1);
    }

    #[test]
    fn levels_of_fork_join() {
        let d = fork_join();
        assert_eq!(levels(&d), vec![0, 1, 1, 1, 2]);
        assert_eq!(width(&d), 3);
        assert_eq!(depth(&d), 3);
    }

    #[test]
    fn tracker_walks_chain() {
        let d = chain(3);
        let mut t = ReadyTracker::new(&d);
        assert_eq!(t.ready(), &[TaskId::new(0)]);
        t.take(TaskId::new(0));
        t.complete(&d, TaskId::new(0));
        assert_eq!(t.ready(), &[TaskId::new(1)]);
        t.take(TaskId::new(1));
        t.complete(&d, TaskId::new(1));
        assert_eq!(t.ready(), &[TaskId::new(2)]);
        t.take(TaskId::new(2));
        t.complete(&d, TaskId::new(2));
        assert!(t.ready().is_empty());
        assert!(t.all_done(&d));
    }

    #[test]
    fn tracker_join_waits_for_all_parents() {
        let d = fork_join();
        let mut t = ReadyTracker::new(&d);
        t.take(TaskId::new(0));
        t.complete(&d, TaskId::new(0));
        assert_eq!(t.ready().len(), 3);
        // Finish two of the three middle tasks: join is not ready yet.
        for id in [1, 2] {
            t.take(TaskId::new(id));
            t.complete(&d, TaskId::new(id));
            assert!(!t.ready().contains(&TaskId::new(4)));
        }
        t.take(TaskId::new(3));
        t.complete(&d, TaskId::new(3));
        assert_eq!(t.ready(), &[TaskId::new(4)]);
    }

    #[test]
    fn ready_set_stays_sorted() {
        let d = fork_join();
        let mut t = ReadyTracker::new(&d);
        t.take(TaskId::new(0));
        t.complete(&d, TaskId::new(0));
        let ready: Vec<usize> = t.ready().iter().map(|t| t.index()).collect();
        let mut sorted = ready.clone();
        sorted.sort_unstable();
        assert_eq!(ready, sorted);
    }

    #[test]
    fn withheld_source_round_trips_through_insert_ready() {
        // Two independent sources: withhold one, reinsert it sorted.
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let c = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let d = b.build().unwrap();
        let mut t = ReadyTracker::new(&d);
        t.take(c);
        assert_eq!(t.ready(), &[a]);
        t.insert_ready(c);
        assert_eq!(t.ready(), &[a, c]);
    }

    #[test]
    #[should_panic(expected = "not in the ready set")]
    fn take_panics_for_unready_task() {
        let d = chain(2);
        let mut t = ReadyTracker::new(&d);
        t.take(TaskId::new(1));
    }
}
