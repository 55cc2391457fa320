//! A from-scratch Graphene baseline (Grandl et al., OSDI 2016), as
//! described by the Spear paper.
//!
//! Graphene's key idea: identify the *troublesome* tasks (long-running
//! ones, selected by a runtime-fraction threshold), pack them into a
//! virtual resource-time space first — both **forward** (from time 0
//! upward) and **backward** (from a horizon downward) — then derive a total
//! order from the virtual placement and execute it on the real,
//! dependency-aware cluster. The best schedule over all `threshold ×
//! direction` combinations wins.
//!
//! The Spear paper criticizes two aspects faithfully reproduced here: the
//! dependence on the hand-tuned threshold set, and the fact that within the
//! troublesome group tasks are ordered purely by descending runtime,
//! ignoring multi-resource demands.

use serde::{Deserialize, Serialize};
use spear_cluster::{ClusterSpec, JobQueue, ResourceTimeline, Schedule, SpearError};
use spear_dag::{Dag, TaskId};

use crate::{execute_priority_order, Scheduler};

/// Which end of the virtual resource-time space packing starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PackDirection {
    /// Place tasks at the earliest slot that fits, from time 0 upward.
    Forward,
    /// Place tasks at the latest slot that finishes by the horizon.
    Backward,
}

/// Tunable parameters of [`Graphene`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrapheneConfig {
    /// Runtime-fraction thresholds defining the troublesome set: a task is
    /// troublesome when `runtime >= threshold × max_runtime`. The paper
    /// sweeps `{0.2, 0.4, 0.6, 0.8}` and keeps the best result.
    pub runtime_thresholds: Vec<f64>,
    /// Optional demand threshold: additionally mark tasks troublesome when
    /// their largest demand fraction (vs. capacity) reaches this value.
    /// `None` reproduces the Spear paper's runtime-only description.
    pub demand_threshold: Option<f64>,
}

impl Default for GrapheneConfig {
    fn default() -> Self {
        GrapheneConfig {
            runtime_thresholds: vec![0.2, 0.4, 0.6, 0.8],
            demand_threshold: None,
        }
    }
}

/// The chosen parameterization of the winning Graphene schedule, reported
/// by [`Graphene::schedule_with_details`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrapheneChoice {
    /// The runtime threshold that produced the best schedule.
    pub threshold: f64,
    /// The packing direction that produced the best schedule.
    pub direction: PackDirection,
    /// Number of troublesome tasks under that threshold.
    pub troublesome: usize,
}

/// The Graphene scheduler. See the module documentation for the
/// algorithm.
///
/// ```
/// use rand::SeedableRng;
/// use spear_dag::generator::LayeredDagSpec;
/// use spear_cluster::ClusterSpec;
/// use spear_sched::{Graphene, Scheduler};
///
/// # fn main() -> Result<(), spear_cluster::SpearError> {
/// let dag = LayeredDagSpec::paper_training()
///     .generate(&mut rand::rngs::StdRng::seed_from_u64(5));
/// let spec = ClusterSpec::unit(2);
/// let schedule = Graphene::new().schedule(&dag, &spec)?;
/// schedule.validate(&dag, &spec)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graphene {
    config: GrapheneConfig,
}

impl Graphene {
    /// Creates Graphene with the paper's default threshold sweep.
    pub fn new() -> Self {
        Graphene::default()
    }

    /// Creates Graphene with a custom configuration.
    pub fn with_config(config: GrapheneConfig) -> Self {
        Graphene { config }
    }

    /// The troublesome set for a given runtime threshold: tasks whose
    /// runtime is at least `threshold × max_runtime` (plus optionally
    /// high-demand tasks).
    pub fn troublesome_tasks(&self, dag: &Dag, spec: &ClusterSpec, threshold: f64) -> Vec<TaskId> {
        let cutoff = threshold * dag.max_runtime() as f64;
        dag.task_ids()
            .filter(|&t| {
                let task = dag.task(t);
                if task.runtime() as f64 >= cutoff {
                    return true;
                }
                if let Some(dt) = self.config.demand_threshold {
                    let frac = (0..dag.dims())
                        .map(|r| task.demand()[r] / spec.capacity()[r])
                        .fold(0.0_f64, f64::max);
                    return frac >= dt;
                }
                false
            })
            .collect()
    }

    /// Derives a task order from a virtual (dependency-free) placement of
    /// the troublesome tasks first, then the rest, in the given direction.
    fn virtual_order(
        &self,
        dag: &Dag,
        spec: &ClusterSpec,
        troublesome: &[TaskId],
        direction: PackDirection,
    ) -> Vec<TaskId> {
        let mut is_troublesome = vec![false; dag.len()];
        for &t in troublesome {
            is_troublesome[t.index()] = true;
        }
        // Within each group: descending runtime, tie by id (the ordering
        // the Spear paper criticizes).
        let by_runtime_desc = |ids: &mut Vec<TaskId>, dag: &Dag| {
            ids.sort_by_key(|&t| (std::cmp::Reverse(dag.task(t).runtime()), t));
        };
        let mut group_t: Vec<TaskId> = troublesome.to_vec();
        let mut group_o: Vec<TaskId> = dag
            .task_ids()
            .filter(|t| !is_troublesome[t.index()])
            .collect();
        by_runtime_desc(&mut group_t, dag);
        by_runtime_desc(&mut group_o, dag);

        let mut timeline = ResourceTimeline::new(spec.capacity().clone());
        // A horizon comfortably large enough for any packing: serial work.
        let horizon = dag.total_work().max(1);
        let mut starts: Vec<(u64, usize, TaskId)> = Vec::with_capacity(dag.len());
        for (seq, &t) in group_t.iter().chain(group_o.iter()).enumerate() {
            let task = dag.task(t);
            let start = match direction {
                PackDirection::Forward => timeline.earliest_start(task.demand(), task.runtime(), 0),
                PackDirection::Backward => timeline
                    .latest_start(task.demand(), task.runtime(), horizon)
                    // Fragmented space near the horizon: fall back to the
                    // earliest fit (keeps the pass total).
                    .unwrap_or_else(|| timeline.earliest_start(task.demand(), task.runtime(), 0)),
            };
            timeline.place(task.demand(), start, task.runtime());
            starts.push((start, seq, t));
        }
        // Read the space bottom-up: earlier virtual start = earlier in the
        // order. For backward packing, later-placed tasks at the same slot
        // were squeezed in more urgently; prefer them on ties.
        match direction {
            PackDirection::Forward => starts.sort_by_key(|&(s, seq, _)| (s, seq)),
            PackDirection::Backward => {
                starts.sort_by_key(|&(s, seq, _)| (s, std::cmp::Reverse(seq)))
            }
        }
        starts.into_iter().map(|(_, _, t)| t).collect()
    }

    /// Like [`Scheduler::schedule_multi`] but also reports which
    /// threshold and direction won — useful for ablations over the
    /// parameter sensitivity the Spear paper criticizes. The troublesome
    /// sets and virtual orders are derived on the union DAG (the virtual
    /// packing ignores arrivals, exactly as it ignores dependencies), then
    /// every candidate order is executed arrival-aware and the best real
    /// schedule wins. A single DAG is the one-job queue
    /// [`JobQueue::single`].
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if any job cannot run on the cluster.
    pub fn schedule_with_details(
        &self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, GrapheneChoice), SpearError> {
        let dag = queue.union_dag();
        spec.validate_dag(dag)?;
        let mut best: Option<(Schedule, GrapheneChoice)> = None;
        for &threshold in &self.config.runtime_thresholds {
            let troublesome = self.troublesome_tasks(dag, spec, threshold);
            for direction in [PackDirection::Forward, PackDirection::Backward] {
                let order = self.virtual_order(dag, spec, &troublesome, direction);
                let schedule = execute_priority_order(queue, spec, &order)?;
                let better = match &best {
                    Some((b, _)) => schedule.makespan() < b.makespan(),
                    None => true,
                };
                if better {
                    best = Some((
                        schedule,
                        GrapheneChoice {
                            threshold,
                            direction,
                            troublesome: troublesome.len(),
                        },
                    ));
                }
            }
        }
        Ok(best.expect("config has at least one threshold"))
    }
}

impl Scheduler for Graphene {
    fn name(&self) -> &str {
        "graphene"
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        Ok(self.schedule_with_details(queue, spec)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    fn spec2() -> ClusterSpec {
        ClusterSpec::unit(2)
    }

    #[test]
    fn billions_of_slots_pack_without_a_per_slot_grid() {
        // Virtual placement used to materialize one occupancy vector per
        // time slot, so one 3e9-slot task exhausted memory.
        let spec = LayeredDagSpec {
            num_tasks: 12,
            ..LayeredDagSpec::paper_simulation()
        };
        let dag = spec.generate(&mut StdRng::seed_from_u64(3));
        let long = 3_000_000_000;
        let mut b = DagBuilder::new(2);
        for (i, t) in dag.tasks().iter().enumerate() {
            let runtime = if i == 0 { long } else { t.runtime() };
            b.add_task(Task::new(runtime, t.demand().clone()));
        }
        for e in dag.edges() {
            b.add_edge(e.from, e.to).unwrap();
        }
        let dag = b.build().unwrap();
        let schedule = Graphene::new().schedule(&dag, &spec2()).unwrap();
        schedule.validate(&dag, &spec2()).unwrap();
        assert!(schedule.makespan() >= long);
    }

    #[test]
    fn troublesome_set_shrinks_with_threshold() {
        let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(1));
        let g = Graphene::new();
        let t02 = g.troublesome_tasks(&dag, &spec2(), 0.2).len();
        let t08 = g.troublesome_tasks(&dag, &spec2(), 0.8).len();
        assert!(t02 >= t08);
        assert!(t02 <= dag.len());
        // Threshold 0 marks everything troublesome.
        assert_eq!(g.troublesome_tasks(&dag, &spec2(), 0.0).len(), dag.len());
    }

    #[test]
    fn demand_threshold_adds_tasks() {
        let mut b = DagBuilder::new(2);
        b.add_task(Task::new(10, ResourceVec::from_slice(&[0.1, 0.1])));
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.9, 0.1])));
        let dag = b.build().unwrap();
        let plain = Graphene::new();
        assert_eq!(plain.troublesome_tasks(&dag, &spec2(), 0.8).len(), 1);
        let with_demand = Graphene::with_config(GrapheneConfig {
            runtime_thresholds: vec![0.8],
            demand_threshold: Some(0.5),
        });
        assert_eq!(with_demand.troublesome_tasks(&dag, &spec2(), 0.8).len(), 2);
    }

    #[test]
    fn schedules_are_valid_on_random_dags() {
        for seed in 0..5 {
            let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(seed));
            let s = Graphene::new().schedule(&dag, &spec2()).unwrap();
            s.validate(&dag, &spec2()).unwrap();
            assert!(s.makespan() >= dag.critical_path_length());
        }
    }

    #[test]
    fn details_report_winning_parameters() {
        let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(3));
        let queue = JobQueue::single(dag.clone()).unwrap();
        let (s, choice) = Graphene::new()
            .schedule_with_details(&queue, &spec2())
            .unwrap();
        assert!([0.2, 0.4, 0.6, 0.8].contains(&choice.threshold));
        assert!(choice.troublesome <= dag.len());
        s.validate(&dag, &spec2()).unwrap();
    }

    #[test]
    fn best_of_sweep_beats_or_ties_single_threshold() {
        let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(9));
        let sweep = Graphene::new().schedule(&dag, &spec2()).unwrap();
        for thr in [0.2, 0.4, 0.6, 0.8] {
            let single = Graphene::with_config(GrapheneConfig {
                runtime_thresholds: vec![thr],
                demand_threshold: None,
            })
            .schedule(&dag, &spec2())
            .unwrap();
            assert!(sweep.makespan() <= single.makespan());
        }
    }

    #[test]
    fn single_task_dag() {
        let mut b = DagBuilder::new(2);
        b.add_task(Task::new(5, ResourceVec::from_slice(&[0.5, 0.5])));
        let dag = b.build().unwrap();
        let s = Graphene::new().schedule(&dag, &spec2()).unwrap();
        assert_eq!(s.makespan(), 5);
    }

    #[test]
    fn multi_job_sweep_respects_arrivals_and_beats_nothing_scheduled_early() {
        let jobs: Vec<(u64, Dag)> = [(0u64, 1u64), (6, 2), (9, 3)]
            .iter()
            .map(|&(arrival, seed)| {
                let dag = LayeredDagSpec {
                    num_tasks: 8,
                    ..LayeredDagSpec::paper_training()
                }
                .generate(&mut StdRng::seed_from_u64(seed));
                (arrival, dag)
            })
            .collect();
        let queue = JobQueue::new(jobs).unwrap();
        let mut g = Graphene::new();
        let s = g.schedule_multi(&queue, &spec2()).unwrap();
        s.validate(queue.union_dag(), &spec2()).unwrap();
        for span in queue.spans() {
            for i in span.first_task..span.first_task + span.tasks {
                assert!(s.placement_of(TaskId::new(i)).unwrap().start >= span.arrival);
            }
        }
        let report = queue.jct_report(&s);
        assert_eq!(report.completions().len(), 3);
        assert!(report.unfairness() >= 0.0);
    }

    #[test]
    fn forward_and_backward_orders_can_differ() {
        let dag = LayeredDagSpec::paper_simulation().generate(&mut StdRng::seed_from_u64(11));
        let g = Graphene::new();
        let trouble = g.troublesome_tasks(&dag, &spec2(), 0.4);
        let fwd = g.virtual_order(&dag, &spec2(), &trouble, PackDirection::Forward);
        let bwd = g.virtual_order(&dag, &spec2(), &trouble, PackDirection::Backward);
        assert_eq!(fwd.len(), dag.len());
        assert_eq!(bwd.len(), dag.len());
        assert_ne!(fwd, bwd, "directions should explore different orders");
    }
}
