//! Property-based cross-crate validity: any scheduler × any random DAG ×
//! any cluster shape must produce a schedule passing full validation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{
    ClusterSpec, CpScheduler, Dag, Graphene, MctsConfig, MctsScheduler, RandomScheduler,
    ResourceVec, Scheduler, SjfScheduler, TetrisScheduler,
};

fn random_dag(num_tasks: usize, max_width: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width,
        // Keep demands within the *narrowest* cluster the test generates.
        max_demand: 0.75,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn heuristics_valid_on_any_cluster_shape(
        num_tasks in 1usize..28,
        max_width in 1usize..5,
        dag_seed in any::<u64>(),
        cpu_cap in 0.75f64..3.0,
        mem_cap in 0.75f64..3.0,
    ) {
        let dag = random_dag(num_tasks, max_width, dag_seed);
        let spec = ClusterSpec::new(ResourceVec::from_slice(&[cpu_cap, mem_cap])).unwrap();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(TetrisScheduler::new()),
            Box::new(SjfScheduler::new()),
            Box::new(CpScheduler::new()),
            Box::new(RandomScheduler::seeded(dag_seed)),
            Box::new(Graphene::new()),
        ];
        for s in &mut schedulers {
            let schedule = s.schedule(&dag, &spec).unwrap();
            schedule.validate(&dag, &spec).unwrap();
        }
    }

    #[test]
    fn mcts_valid_on_any_cluster_shape(
        num_tasks in 1usize..18,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
        cpu_cap in 0.75f64..2.0,
    ) {
        let dag = random_dag(num_tasks, 3, dag_seed);
        let spec = ClusterSpec::new(ResourceVec::from_slice(&[cpu_cap, 1.0])).unwrap();
        let mut mcts = MctsScheduler::pure(MctsConfig {
            initial_budget: 25,
            min_budget: 5,
            seed: search_seed,
            ..MctsConfig::default()
        });
        let schedule = mcts.schedule(&dag, &spec).unwrap();
        schedule.validate(&dag, &spec).unwrap();
    }

    /// Utilization of every produced schedule lies in (0, 1].
    #[test]
    fn utilization_is_a_fraction(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, 4, dag_seed);
        let spec = ClusterSpec::unit(2);
        let schedule = TetrisScheduler::new().schedule(&dag, &spec).unwrap();
        let u = schedule.utilization(&dag, &spec);
        prop_assert!(u > 0.0 && u <= 1.0, "utilization {}", u);
    }
}
