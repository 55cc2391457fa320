//! Root-parallel MCTS.
//!
//! The paper notes (§V-B.1) that the scheduling latency "can be further
//! reduced using multiprocessing techniques as MCTS can easily be
//! parallelized". This module implements the simplest sound scheme, *root
//! parallelization*: `workers` independent searches with different RNG
//! seeds run concurrently, and the best schedule wins. Independent trees
//! need no synchronization, and with max-value exploitation the best-of-K
//! result is exactly what a K×-budget sequential search would have kept
//! from those K subtrees.

use std::thread;

use spear_cluster::{ClusterSpec, JobQueue, Schedule, SpearError};
use spear_dag::Dag;
use spear_obs::MetricsRegistry;
use spear_sched::Scheduler;

use crate::{MctsScheduler, SearchStats};

/// Runs `workers` independent [`MctsScheduler`]s concurrently and keeps
/// the best schedule.
///
/// The factory receives a per-worker seed (derived from the base config's
/// seed) and must build the scheduler for that worker — this is how the
/// DRL policy network gets cloned per thread.
///
/// ```
/// use rand::SeedableRng;
/// use spear_dag::generator::LayeredDagSpec;
/// use spear_cluster::ClusterSpec;
/// use spear_mcts::{MctsConfig, MctsScheduler, RootParallelMcts};
/// use spear_sched::Scheduler;
///
/// let dag = LayeredDagSpec { num_tasks: 12, ..LayeredDagSpec::paper_training() }
///     .generate(&mut rand::rngs::StdRng::seed_from_u64(3));
/// let spec = ClusterSpec::unit(2);
/// let mut parallel = RootParallelMcts::new(4, |seed| {
///     MctsScheduler::pure(MctsConfig {
///         initial_budget: 30,
///         min_budget: 5,
///         seed,
///         ..MctsConfig::default()
///     })
/// });
/// let schedule = parallel.schedule(&dag, &spec).unwrap();
/// schedule.validate(&dag, &spec).unwrap();
/// ```
pub struct RootParallelMcts<F> {
    workers: usize,
    factory: F,
    registry: MetricsRegistry,
}

impl<F> RootParallelMcts<F>
where
    F: Fn(u64) -> MctsScheduler + Sync,
{
    /// Creates a pool of `workers` independent searches.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, factory: F) -> Self {
        assert!(workers > 0, "need at least one worker");
        RootParallelMcts {
            workers,
            factory,
            registry: MetricsRegistry::disabled(),
        }
    }

    /// Number of concurrent searches.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attaches a metrics registry: every worker records its `mcts.*`
    /// metrics into its own lock-free sink (labelled `mcts-worker-<n>`),
    /// merged when the registry is snapshotted. Recording never
    /// synchronizes workers with each other.
    #[must_use]
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Schedules `dag`, returning the best schedule plus the statistics
    /// of every worker that succeeded (in worker order).
    ///
    /// All workers are always drained: one failing worker does not
    /// discard the others' results.
    ///
    /// # Errors
    ///
    /// Returns the first worker error only if *every* search fails (they
    /// can only fail if the DAG does not fit the cluster — in which case
    /// all workers fail identically).
    pub fn schedule_with_stats(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, Vec<SearchStats>), SpearError> {
        self.schedule_multi_with_stats(&JobQueue::single(dag.clone())?, spec)
    }

    /// Like [`RootParallelMcts::schedule_with_stats`] over a job stream:
    /// every worker searches the same arrival stream independently and the
    /// best union schedule wins (deterministic tie-break on the lowest
    /// worker seed).
    ///
    /// # Errors
    ///
    /// Same contract as [`RootParallelMcts::schedule_with_stats`].
    pub fn schedule_multi_with_stats(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, Vec<SearchStats>), SpearError> {
        let results: Vec<Result<(Schedule, SearchStats), SpearError>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|w| {
                    let factory = &self.factory;
                    let registry = &self.registry;
                    scope.spawn(move || {
                        let mut scheduler = factory(w as u64);
                        if spear_obs::compiled() && registry.is_active() {
                            scheduler.set_obs(&registry.sink(&format!("mcts-worker-{w}")));
                        }
                        scheduler.schedule_multi_with_stats(queue, spec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        // Winner selection is an explicit (makespan, worker seed) argmin,
        // not first-wins over the join order: equal-makespan schedules can
        // differ in task placement, so the tie must break on something
        // deterministic and meaningful — the lowest worker seed — to keep
        // the parallel result reproducible even if the drain order ever
        // changes (e.g. completion-order joins).
        let mut best: Option<(Schedule, u64)> = None;
        let mut stats = Vec::with_capacity(self.workers);
        let mut first_err: Option<SpearError> = None;
        for (worker, result) in results.into_iter().enumerate() {
            let seed = worker as u64;
            match result {
                Ok((schedule, s)) => {
                    stats.push(s);
                    let better = best.as_ref().is_none_or(|(b, b_seed)| {
                        (schedule.makespan(), seed) < (b.makespan(), *b_seed)
                    });
                    if better {
                        best = Some((schedule, seed));
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match best {
            Some((schedule, _)) => Ok((schedule, stats)),
            None => Err(first_err.expect("at least one worker ran")),
        }
    }
}

impl<F> Scheduler for RootParallelMcts<F>
where
    F: Fn(u64) -> MctsScheduler + Sync,
{
    fn name(&self) -> &str {
        "mcts-parallel"
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        Ok(self.schedule_multi_with_stats(queue, spec)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MctsConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;

    fn dag(seed: u64) -> Dag {
        LayeredDagSpec {
            num_tasks: 14,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(seed))
    }

    fn factory(budget: u64) -> impl Fn(u64) -> MctsScheduler + Sync {
        move |seed| {
            MctsScheduler::pure(MctsConfig {
                initial_budget: budget,
                min_budget: 5,
                seed,
                ..MctsConfig::default()
            })
        }
    }

    #[test]
    fn parallel_schedule_is_valid() {
        let dag = dag(1);
        let spec = ClusterSpec::unit(2);
        let mut p = RootParallelMcts::new(3, factory(20));
        let (schedule, stats) = p.schedule_with_stats(&dag, &spec).unwrap();
        schedule.validate(&dag, &spec).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(p.workers(), 3);
        assert_eq!(p.name(), "mcts-parallel");
    }

    #[test]
    fn best_of_workers_never_loses_to_any_single_worker() {
        let dag = dag(2);
        let spec = ClusterSpec::unit(2);
        let (best, _) = RootParallelMcts::new(4, factory(25))
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        for seed in 0..4u64 {
            let single = factory(25)(seed).schedule(&dag, &spec).unwrap();
            assert!(best.makespan() <= single.makespan());
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let dag = dag(3);
        let spec = ClusterSpec::unit(2);
        let a = RootParallelMcts::new(2, factory(15))
            .schedule(&dag, &spec)
            .unwrap();
        let b = RootParallelMcts::new(2, factory(15))
            .schedule(&dag, &spec)
            .unwrap();
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = RootParallelMcts::new(0, factory(10));
    }

    /// With every worker running the *same* seed, all makespans tie — the
    /// winner must then be worker 0's schedule, exactly (tie-break on the
    /// lowest worker seed, not on join order or placement differences).
    #[test]
    fn equal_makespans_break_ties_toward_lowest_seed() {
        let dag = dag(4);
        let spec = ClusterSpec::unit(2);
        let same_seed = |_w: u64| {
            MctsScheduler::pure(MctsConfig {
                initial_budget: 20,
                min_budget: 5,
                seed: 0,
                ..MctsConfig::default()
            })
        };
        let (best, stats) = RootParallelMcts::new(3, same_seed)
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        assert_eq!(stats.len(), 3);
        let worker0 = same_seed(0).schedule(&dag, &spec).unwrap();
        assert_eq!(best, worker0, "tie must resolve to the lowest seed");
    }

    #[test]
    fn root_parallel_multi_job_keeps_the_best_stream_schedule() {
        let queue = JobQueue::new(vec![(0u64, dag(6)), (5, dag(7))]).unwrap();
        let spec = ClusterSpec::unit(2);
        let (best, stats) = RootParallelMcts::new(3, factory(20))
            .schedule_multi_with_stats(&queue, &spec)
            .unwrap();
        best.validate(queue.union_dag(), &spec).unwrap();
        assert_eq!(stats.len(), 3);
        for seed in 0..3u64 {
            let single = factory(20)(seed).schedule_multi(&queue, &spec).unwrap();
            assert!(best.makespan() <= single.makespan());
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_max_elapsed() {
        let dag = dag(5);
        let spec = ClusterSpec::unit(2);
        let (s1, all) = RootParallelMcts::new(3, factory(20))
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        let (s2, stats) = RootParallelMcts::new(3, factory(20))
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        let merged = stats
            .into_iter()
            .fold(SearchStats::default(), SearchStats::merged);
        assert_eq!(s1.makespan(), s2.makespan());
        assert_eq!(
            merged.iterations,
            all.iter().map(|s| s.iterations).sum::<u64>()
        );
        assert_eq!(
            merged.rollout_steps,
            all.iter().map(|s| s.rollout_steps).sum::<u64>()
        );
        assert_eq!(
            merged.tree_nodes,
            all.iter().map(|s| s.tree_nodes).sum::<usize>()
        );
        // Workers overlap in time: merged wall time is a max, not a sum
        // (checked on the merge itself; cross-run timing is not
        // comparable).
        let direct = all
            .iter()
            .copied()
            .fold(SearchStats::default(), SearchStats::merged);
        let max = all.iter().map(|s| s.elapsed_seconds).fold(0.0, f64::max);
        assert_eq!(direct.elapsed_seconds, max);
        assert!(merged.elapsed_seconds > 0.0);
    }
}
