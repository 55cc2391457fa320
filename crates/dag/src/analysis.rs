//! Graph analyses used by the scheduling policies.
//!
//! The Spear paper's DRL state (§III-D) combines four graph-derived task
//! features: the **b-level** (longest runtime path from the task to an exit,
//! inclusive), the **number of children**, and the per-resource **b-load**
//! (the task load — `runtime × demand` — accumulated along the b-level
//! path). This module computes all of them plus the t-level and the critical
//! path used by the CP baseline and the supervised pre-training expert.

use serde::{Deserialize, Serialize};

use crate::{Dag, TaskId};

/// b-level of every task: length of the longest path (sum of runtimes) from
/// the task to any exit node, *including* the task's own runtime.
///
/// The maximum b-level over all tasks equals the critical-path length of
/// the DAG.
pub fn b_levels(dag: &Dag) -> Vec<u64> {
    let mut bl = vec![0u64; dag.len()];
    for &v in dag.topological_order().iter().rev() {
        let best_child = dag
            .children(v)
            .iter()
            .map(|c| bl[c.index()])
            .max()
            .unwrap_or(0);
        bl[v.index()] = dag.task(v).runtime() + best_child;
    }
    bl
}

/// t-level of every task: length of the longest path from any entry node to
/// the task, *excluding* the task's own runtime (i.e. its earliest possible
/// start time on an infinitely wide cluster).
pub fn t_levels(dag: &Dag) -> Vec<u64> {
    let mut tl = vec![0u64; dag.len()];
    for &v in dag.topological_order() {
        let rt = dag.task(v).runtime();
        for &c in dag.children(v) {
            tl[c.index()] = tl[c.index()].max(tl[v.index()] + rt);
        }
    }
    tl
}

/// Per-resource b-load of every task: the task load (`runtime × demand[r]`)
/// accumulated along the *maximum-load* path from the task to an exit node,
/// including the task itself.
///
/// Returns one vector per resource dimension: `b_loads(dag)[r][task]`.
pub fn b_loads(dag: &Dag) -> Vec<Vec<f64>> {
    let dims = dag.dims();
    let mut loads = vec![vec![0.0f64; dag.len()]; dims];
    for &v in dag.topological_order().iter().rev() {
        for (r, load_r) in loads.iter_mut().enumerate() {
            let best_child = dag
                .children(v)
                .iter()
                .map(|c| load_r[c.index()])
                .fold(0.0_f64, f64::max);
            load_r[v.index()] = dag.task(v).load(r) + best_child;
        }
    }
    loads
}

/// Number of direct children of every task — the tiebreaker feature of the
/// classic b-level list schedulers the paper cites.
pub fn child_counts(dag: &Dag) -> Vec<usize> {
    dag.task_ids().map(|t| dag.children(t).len()).collect()
}

/// Number of (transitive) descendants of every task.
pub fn descendant_counts(dag: &Dag) -> Vec<usize> {
    let n = dag.len();
    // Bitset per task; fine for the paper's graph sizes (≤ a few hundred).
    let words = n.div_ceil(64);
    let mut sets = vec![vec![0u64; words]; n];
    for &v in dag.topological_order().iter().rev() {
        let mut acc = vec![0u64; words];
        for &c in dag.children(v) {
            acc[c.index() / 64] |= 1u64 << (c.index() % 64);
            for (a, s) in acc.iter_mut().zip(&sets[c.index()]) {
                *a |= s;
            }
        }
        sets[v.index()] = acc;
    }
    sets.iter()
        .map(|s| s.iter().map(|w| w.count_ones() as usize).sum())
        .collect()
}

/// One task's worth of static (schedule-independent) features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskFeatures {
    /// b-level (see [`b_levels`]).
    pub b_level: u64,
    /// t-level (see [`t_levels`]).
    pub t_level: u64,
    /// Direct child count.
    pub children: usize,
    /// Per-resource b-load (see [`b_loads`]).
    pub b_load: Vec<f64>,
}

/// All static graph features of a DAG, precomputed once and shared by the
/// DRL featurizer, the CP scheduler and Graphene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphFeatures {
    per_task: Vec<TaskFeatures>,
    critical_path: u64,
    max_children: usize,
    max_b_load: Vec<f64>,
    cp_order: Vec<TaskId>,
    cp_rank: Vec<u32>,
}

impl GraphFeatures {
    /// Computes every static feature of `dag` in three topological sweeps,
    /// then ranks the tasks in the CP order ([`GraphFeatures::cp_order`]).
    pub fn compute(dag: &Dag) -> Self {
        let bl = b_levels(dag);
        let tl = t_levels(dag);
        let loads = b_loads(dag);
        let kids = child_counts(dag);
        let critical_path = bl.iter().copied().max().unwrap_or(0);
        let max_children = kids.iter().copied().max().unwrap_or(0);
        let max_b_load: Vec<f64> = loads
            .iter()
            .map(|l| l.iter().copied().fold(0.0_f64, f64::max))
            .collect();
        let per_task = (0..dag.len())
            .map(|i| TaskFeatures {
                b_level: bl[i],
                t_level: tl[i],
                children: kids[i],
                b_load: loads.iter().map(|l| l[i]).collect(),
            })
            .collect();
        let mut keys: Vec<_> = (0..dag.len())
            .map(|i| (std::cmp::Reverse(bl[i]), std::cmp::Reverse(kids[i]), i))
            .collect();
        keys.sort_unstable();
        let cp_order: Vec<TaskId> = keys.iter().map(|&(_, _, i)| TaskId::new(i)).collect();
        let mut cp_rank = vec![0u32; dag.len()];
        for (rank, t) in cp_order.iter().enumerate() {
            cp_rank[t.index()] = u32::try_from(rank).expect("task ids fit in u32");
        }
        GraphFeatures {
            per_task,
            critical_path,
            max_children,
            max_b_load,
            cp_order,
            cp_rank,
        }
    }

    /// Every task in the CP order: descending b-level, then descending
    /// child count, then ascending id. The id makes each key unique, so
    /// this is a total order and any subset sorted by the same key is a
    /// subsequence of it.
    pub fn cp_order(&self) -> &[TaskId] {
        &self.cp_order
    }

    /// Each task's position in [`GraphFeatures::cp_order`], indexed by
    /// task id: the inverse permutation.
    pub fn cp_rank(&self) -> &[u32] {
        &self.cp_rank
    }

    /// Features of one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &TaskFeatures {
        &self.per_task[id.index()]
    }

    /// Critical-path length of the DAG (max b-level).
    pub fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// Largest direct-child count of any task.
    pub fn max_children(&self) -> usize {
        self.max_children
    }

    /// Per-resource maximum b-load — used to normalize b-load features.
    pub fn max_b_load(&self) -> &[f64] {
        &self.max_b_load
    }
}

/// Extracts one critical path (task ids from an entry to an exit) by
/// greedily following maximal b-levels.
pub fn critical_path_tasks(dag: &Dag) -> Vec<TaskId> {
    let bl = b_levels(dag);
    let mut current = dag
        .sources()
        .into_iter()
        .max_by_key(|t| bl[t.index()])
        .expect("built DAGs are non-empty");
    let mut path = vec![current];
    loop {
        let next = dag
            .children(current)
            .iter()
            .copied()
            .max_by_key(|c| bl[c.index()]);
        match next {
            Some(c) => {
                path.push(c);
                current = c;
            }
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagBuilder, ResourceVec, Task};

    /// 0 -> 1 -> 3, 0 -> 2 -> 3 with runtimes 1, 2, 3, 1 and demands chosen
    /// so b-loads differ per dimension.
    fn diamond() -> Dag {
        let mut b = DagBuilder::new(2);
        let t0 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5, 0.1])));
        let t1 = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.2, 0.8])));
        let t2 = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.4, 0.1])));
        let t3 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.3, 0.3])));
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t0, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t2, t3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn b_levels_of_diamond() {
        // t3: 1; t1: 2+1=3; t2: 3+1=4; t0: 1+4=5.
        assert_eq!(b_levels(&diamond()), vec![5, 3, 4, 1]);
    }

    #[test]
    fn t_levels_of_diamond() {
        // t0: 0; t1: 1; t2: 1; t3: max(1+2, 1+3)=4.
        assert_eq!(t_levels(&diamond()), vec![0, 1, 1, 4]);
    }

    #[test]
    fn b_level_plus_t_level_bounded_by_cp() {
        let d = diamond();
        let bl = b_levels(&d);
        let tl = t_levels(&d);
        let cp = d.critical_path_length();
        for i in 0..d.len() {
            assert!(tl[i] + bl[i] <= cp, "task {i} violates tl+bl <= cp");
        }
        // Tasks on the critical path achieve equality.
        let on_cp = (0..d.len()).filter(|&i| tl[i] + bl[i] == cp).count();
        assert!(on_cp >= 2);
    }

    #[test]
    fn b_loads_of_diamond() {
        let loads = b_loads(&diamond());
        // Dimension 0: loads are 0.5, 0.4, 1.2, 0.3.
        // t3: 0.3; t1: 0.4+0.3=0.7; t2: 1.2+0.3=1.5; t0: 0.5+1.5=2.0.
        let d0 = &loads[0];
        assert!((d0[3] - 0.3).abs() < 1e-9);
        assert!((d0[1] - 0.7).abs() < 1e-9);
        assert!((d0[2] - 1.5).abs() < 1e-9);
        assert!((d0[0] - 2.0).abs() < 1e-9);
        // Dimension 1: loads are 0.1, 1.6, 0.3, 0.3.
        // t3: 0.3; t1: 1.9; t2: 0.6; t0: 0.1+1.9=2.0.
        let d1 = &loads[1];
        assert!((d1[1] - 1.9).abs() < 1e-9);
        assert!((d1[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn b_load_path_can_differ_from_b_level_path() {
        let d = diamond();
        // b-level path goes through t2, but dimension-1 b-load path goes
        // through t1 (1.6 > 0.3): the two analyses are genuinely distinct.
        let loads = b_loads(&d);
        assert!(loads[1][1] > loads[1][2]);
        let bl = b_levels(&d);
        assert!(bl[2] > bl[1]);
    }

    #[test]
    fn child_and_descendant_counts() {
        let d = diamond();
        assert_eq!(child_counts(&d), vec![2, 1, 1, 0]);
        assert_eq!(descendant_counts(&d), vec![3, 1, 1, 0]);
    }

    #[test]
    fn descendant_counts_on_wide_graph() {
        // 70 sources all feeding one sink: exercises multi-word bitsets.
        let mut b = DagBuilder::new(1);
        let sources: Vec<TaskId> = (0..70)
            .map(|_| b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1]))))
            .collect();
        let sink = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        for &s in &sources {
            b.add_edge(s, sink).unwrap();
        }
        let d = b.build().unwrap();
        let desc = descendant_counts(&d);
        assert!(desc[..70].iter().all(|&c| c == 1));
        assert_eq!(desc[70], 0);
    }

    #[test]
    fn graph_features_aggregates() {
        let d = diamond();
        let f = GraphFeatures::compute(&d);
        assert_eq!(f.critical_path(), 5);
        assert_eq!(f.max_children(), 2);
        assert_eq!(f.task(TaskId::new(0)).b_level, 5);
        assert_eq!(f.task(TaskId::new(0)).children, 2);
        assert!((f.max_b_load()[0] - 2.0).abs() < 1e-9);
        assert!((f.max_b_load()[1] - 2.0).abs() < 1e-9);
    }

    /// `cp_order` sorts by (b-level desc, children desc, id asc) and
    /// `cp_rank` is its inverse, on a graph full of tied b-levels and
    /// child counts.
    #[test]
    fn cp_order_and_rank_are_inverse_sorted_permutations() {
        let mut b = DagBuilder::new(1);
        let ids: Vec<TaskId> = (0..12u64)
            .map(|i| b.add_task(Task::new(1 + i % 3, ResourceVec::from_slice(&[0.1]))))
            .collect();
        for (from, to) in [
            (0, 6),
            (1, 6),
            (1, 7),
            (2, 8),
            (3, 8),
            (3, 9),
            (4, 10),
            (6, 11),
        ] {
            b.add_edge(ids[from], ids[to]).unwrap();
        }
        let d = b.build().unwrap();
        let f = GraphFeatures::compute(&d);
        let mut expected: Vec<TaskId> = d.task_ids().collect();
        expected.sort_by_key(|&t| {
            let tf = f.task(t);
            (
                std::cmp::Reverse(tf.b_level),
                std::cmp::Reverse(tf.children),
                t,
            )
        });
        assert_eq!(f.cp_order(), expected.as_slice());
        assert_eq!(f.cp_rank().len(), d.len());
        for (rank, &t) in f.cp_order().iter().enumerate() {
            assert_eq!(f.cp_rank()[t.index()] as usize, rank);
        }
        // A tie on b-level and children falls back to the id.
        let (t5, t8) = (ids[5], ids[8]);
        assert_eq!(f.task(t5).b_level, f.task(t8).b_level);
        assert_eq!(f.task(t5).children, f.task(t8).children);
        assert!(f.cp_rank()[t5.index()] < f.cp_rank()[t8.index()]);
    }

    #[test]
    fn critical_path_tasks_follow_longest_branch() {
        let d = diamond();
        let path = critical_path_tasks(&d);
        let ids: Vec<usize> = path.iter().map(|t| t.index()).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        let total: u64 = path.iter().map(|&t| d.task(t).runtime()).sum();
        assert_eq!(total, d.critical_path_length());
    }

    #[test]
    fn single_task_features() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(7, ResourceVec::from_slice(&[0.5])));
        let d = b.build().unwrap();
        assert_eq!(b_levels(&d), vec![7]);
        assert_eq!(t_levels(&d), vec![0]);
        assert_eq!(critical_path_tasks(&d).len(), 1);
    }
}
