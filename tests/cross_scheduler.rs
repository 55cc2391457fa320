//! Cross-scheduler sanity: every algorithm, including the search-based
//! ones, on the same random jobs — validity, bounds, and the expected
//! quality ordering against the random floor.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::{
    ClusterSpec, CpScheduler, Dag, FeatureConfig, Graphene, MctsConfig, MctsScheduler,
    PolicyNetwork, RandomScheduler, Scheduler, SjfScheduler, TetrisScheduler,
};

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        ..LayeredDagSpec::paper_training()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

fn search_config(seed: u64) -> MctsConfig {
    MctsConfig {
        initial_budget: 80,
        min_budget: 15,
        seed,
        ..MctsConfig::default()
    }
}

#[test]
fn all_schedulers_valid_on_random_jobs() {
    let spec = ClusterSpec::unit(2);
    for seed in 0..3 {
        let dag = random_dag(20, seed);
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(TetrisScheduler::new()),
            Box::new(SjfScheduler::new()),
            Box::new(CpScheduler::new()),
            Box::new(RandomScheduler::seeded(seed)),
            Box::new(Graphene::new()),
            Box::new(MctsScheduler::pure(search_config(seed))),
            Box::new(MctsScheduler::drl(
                MctsConfig {
                    initial_budget: 60,
                    min_budget: 10,
                    seed,
                    ..MctsConfig::default()
                },
                PolicyNetwork::with_hidden(
                    FeatureConfig::small(2),
                    &[16],
                    &mut StdRng::seed_from_u64(seed),
                ),
            )),
        ];
        for s in &mut schedulers {
            let schedule = s.schedule(&dag, &spec).unwrap();
            schedule.validate(&dag, &spec).unwrap();
            assert!(
                schedule.makespan() >= dag.makespan_lower_bound(spec.capacity()),
                "{} beat the lower bound",
                s.name()
            );
            assert!(
                schedule.makespan() <= dag.total_work(),
                "{} exceeded serial work",
                s.name()
            );
        }
    }
}

#[test]
fn mcts_beats_the_random_floor_on_average() {
    let spec = ClusterSpec::unit(2);
    let mut mcts_total = 0u64;
    let mut random_total = 0u64;
    for seed in 0..4 {
        let dag = random_dag(25, 100 + seed);
        mcts_total += MctsScheduler::pure(search_config(seed))
            .schedule(&dag, &spec)
            .unwrap()
            .makespan();
        random_total += RandomScheduler::seeded(seed)
            .schedule(&dag, &spec)
            .unwrap()
            .makespan();
    }
    assert!(
        mcts_total <= random_total,
        "mcts {mcts_total} vs random {random_total}"
    );
}

#[test]
fn schedulers_agree_on_trivial_jobs() {
    // Single task: everyone produces the identical, optimal schedule.
    let mut b = spear::DagBuilder::new(2);
    let t = b.add_task(spear::Task::new(
        7,
        spear::ResourceVec::from_slice(&[0.5, 0.5]),
    ));
    let dag = b.build().unwrap();
    let spec = ClusterSpec::unit(2);
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(TetrisScheduler::new()),
        Box::new(SjfScheduler::new()),
        Box::new(CpScheduler::new()),
        Box::new(Graphene::new()),
        Box::new(MctsScheduler::pure(search_config(0))),
    ];
    for s in &mut schedulers {
        let schedule = s.schedule(&dag, &spec).unwrap();
        assert_eq!(schedule.makespan(), 7, "{}", s.name());
        assert_eq!(schedule.placement_of(t).unwrap().start, 0);
    }
}

#[test]
fn wider_cluster_never_hurts_search() {
    let dag = random_dag(20, 9);
    let narrow = ClusterSpec::unit(2);
    let wide = ClusterSpec::new(spear::ResourceVec::from_slice(&[2.0, 2.0])).unwrap();
    let m_narrow = MctsScheduler::pure(search_config(1))
        .schedule(&dag, &narrow)
        .unwrap()
        .makespan();
    let m_wide = MctsScheduler::pure(search_config(1))
        .schedule(&dag, &wide)
        .unwrap()
        .makespan();
    // Twice the capacity can only help (same search budget, easier
    // packing): allow a little search noise but no large regression.
    assert!(
        m_wide <= m_narrow + m_narrow / 10,
        "wide {m_wide} vs narrow {m_narrow}"
    );
}
