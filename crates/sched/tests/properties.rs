//! Property tests for the baseline schedulers: every scheduler must emit a
//! valid schedule within the theoretical bounds on any random DAG, and
//! deterministic schedulers must be reproducible.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use spear_cluster::{ClusterSpec, JobQueue};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::{Dag, TaskId};
use spear_sched::{
    execute_priority_order, CpScheduler, Graphene, RandomScheduler, Scheduler, SjfScheduler,
    TetrisScheduler,
};

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

fn all_schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(TetrisScheduler::new()),
        Box::new(SjfScheduler::new()),
        Box::new(CpScheduler::new()),
        Box::new(RandomScheduler::seeded(seed)),
        Box::new(Graphene::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every baseline produces a valid schedule whose makespan is between
    /// the lower bound and the serial upper bound.
    #[test]
    fn every_scheduler_is_valid_and_bounded(
        num_tasks in 1usize..35,
        dag_seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        for mut s in all_schedulers(rng_seed) {
            let schedule = s.schedule(&dag, &spec).unwrap();
            schedule.validate(&dag, &spec).unwrap();
            prop_assert!(
                schedule.makespan() >= dag.makespan_lower_bound(spec.capacity()),
                "{} beat the lower bound",
                s.name()
            );
            prop_assert!(
                schedule.makespan() <= dag.total_work(),
                "{} exceeded serial work",
                s.name()
            );
        }
    }

    /// Deterministic schedulers reproduce the same schedule on repeat runs.
    #[test]
    fn deterministic_schedulers_are_reproducible(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        for make in [
            || Box::new(TetrisScheduler::new()) as Box<dyn Scheduler>,
            || Box::new(SjfScheduler::new()) as Box<dyn Scheduler>,
            || Box::new(CpScheduler::new()) as Box<dyn Scheduler>,
            || Box::new(Graphene::new()) as Box<dyn Scheduler>,
        ] {
            let a = make().schedule(&dag, &spec).unwrap();
            let b = make().schedule(&dag, &spec).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// `execute_priority_order` yields a valid schedule for any permutation
    /// of the task set.
    #[test]
    fn any_order_executes_validly(
        num_tasks in 1usize..30,
        dag_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut order: Vec<TaskId> = dag.task_ids().collect();
        order.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let queue = JobQueue::single(dag.clone()).unwrap();
        let s = execute_priority_order(&queue, &spec, &order).unwrap();
        s.validate(&dag, &spec).unwrap();
        prop_assert!(s.makespan() <= dag.total_work());
    }

    /// On a serial chain every scheduler achieves exactly the critical
    /// path (there is nothing to decide).
    #[test]
    fn chain_dag_is_always_optimal(
        runtimes in prop::collection::vec(1u64..15, 1..12),
        rng_seed in any::<u64>(),
    ) {
        use spear_dag::{DagBuilder, ResourceVec, Task};
        let mut b = DagBuilder::new(2);
        let ids: Vec<TaskId> = runtimes
            .iter()
            .map(|&rt| b.add_task(Task::new(rt, ResourceVec::from_slice(&[0.5, 0.5]))))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(2);
        let total: u64 = runtimes.iter().sum();
        for mut s in all_schedulers(rng_seed) {
            let schedule = s.schedule(&dag, &spec).unwrap();
            prop_assert_eq!(schedule.makespan(), total, "{} suboptimal on chain", s.name());
        }
    }
}
