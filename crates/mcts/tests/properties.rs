//! Property tests for the MCTS engine: schedule validity under every
//! policy, determinism, bound respect, and budget accounting.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use spear_cluster::{ClusterSpec, JobQueue, MachineSet, Schedule, TransferMode};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::{Dag, ResourceVec};
use spear_mcts::{BudgetSchedule, MctsConfig, MctsScheduler, SearchStats, UniformPolicy};
use spear_nn::Precision;
use spear_rl::{FeatureConfig, PolicyNetwork};
use spear_sched::Scheduler;

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

fn config(budget: u64, seed: u64) -> MctsConfig {
    MctsConfig {
        initial_budget: budget,
        min_budget: (budget / 5).max(2),
        seed,
        ..MctsConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every guidance policy yields a valid, bounded schedule.
    #[test]
    fn all_policies_yield_valid_schedules(
        num_tasks in 1usize..16,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut rng = StdRng::seed_from_u64(search_seed);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        let mut schedulers: Vec<MctsScheduler> = vec![
            MctsScheduler::pure(config(15, search_seed)),
            MctsScheduler::heuristic(config(15, search_seed)),
            MctsScheduler::drl(config(10, search_seed), net),
            MctsScheduler::with_policy(
                config(15, search_seed),
                Box::new(UniformPolicy),
                "uniform",
            ),
        ];
        for s in &mut schedulers {
            let schedule = s.schedule(&dag, &spec).unwrap();
            schedule.validate(&dag, &spec).unwrap();
            prop_assert!(schedule.makespan() >= dag.makespan_lower_bound(spec.capacity()));
            prop_assert!(schedule.makespan() <= dag.total_work());
        }
    }

    /// The same seed reproduces the same schedule and statistics.
    #[test]
    fn search_is_deterministic(
        num_tasks in 1usize..14,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let (s1, st1) = MctsScheduler::pure(config(20, search_seed))
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        let (s2, st2) = MctsScheduler::pure(config(20, search_seed))
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(st1.iterations, st2.iterations);
        prop_assert_eq!(st1.tree_nodes, st2.tree_nodes);
    }

    /// Iteration accounting: the total equals the budget series over the
    /// decisions actually taken.
    #[test]
    fn iterations_match_budget_series(
        num_tasks in 1usize..12,
        dag_seed in any::<u64>(),
        budget in 4u64..40,
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let cfg = config(budget, 1);
        let schedule = BudgetSchedule::new(cfg.initial_budget, cfg.min_budget);
        let (_, stats) = MctsScheduler::pure(cfg)
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        prop_assert_eq!(stats.iterations, schedule.total_for(stats.decisions));
    }

    /// Budget decay never exceeds the flat schedule and respects its floor.
    #[test]
    fn budget_schedule_bounds(initial in 1u64..10_000, min in 0u64..500, depth in 1u64..300) {
        let b = BudgetSchedule::new(initial, min);
        let at = b.at_depth(depth);
        prop_assert!(at >= min.max(1));
        prop_assert!(at <= initial.max(min.max(1)));
        // Monotone non-increasing in depth.
        prop_assert!(b.at_depth(depth + 1) <= at);
    }

    /// The eval cache is bit-transparent: cached and `--no-eval-cache`
    /// searches produce identical schedules, makespans and iteration
    /// counts across seeded DAG × cluster workloads — and the accounting
    /// is exact: every frontier-table probe stands for one uncached
    /// forward pass, and every frontier miss is either an input-table
    /// hit or a forward pass.
    #[test]
    fn eval_cache_is_bit_transparent(
        num_tasks in 2usize..16,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
        capacity_step in 0u32..3,
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let capacity = 1.0 + 0.25 * f64::from(capacity_step);
        let spec =
            ClusterSpec::new(spear_dag::ResourceVec::splat(2, capacity)).unwrap();
        let mut rng = StdRng::seed_from_u64(search_seed);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        let mut cached_scheduler = MctsScheduler::drl(config(12, search_seed), net.clone());
        let (cached, cs) = cached_scheduler.schedule_with_stats(&dag, &spec).unwrap();
        let input = cached_scheduler.policy().input_cache_stats();
        let uncached_cfg = MctsConfig { eval_cache: false, ..config(12, search_seed) };
        let (uncached, us) = MctsScheduler::drl(uncached_cfg, net)
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        prop_assert_eq!(&cached, &uncached, "cache changed the schedule");
        prop_assert_eq!(cached.makespan(), uncached.makespan());
        prop_assert_eq!(cs.iterations, us.iterations);
        prop_assert_eq!(cs.rollout_steps, us.rollout_steps);
        prop_assert_eq!(us.cache_hits, 0);
        prop_assert_eq!(cs.cache_hits + cs.cache_misses, us.policy_inferences);
        prop_assert_eq!(cs.policy_inferences + input.hits, cs.cache_misses);
    }

    /// The fast-precision (`f32`) variant of the cache-transparency
    /// property: the half-width eval cache must also be bit-transparent
    /// *within* fast mode — a fast cached search and a fast uncached
    /// search produce identical schedules — because the `f32` rounding
    /// happens on the inference path, before the cache. Fast schedules
    /// must also be valid and bounded in their own right.
    #[test]
    fn fast_precision_eval_cache_is_bit_transparent(
        num_tasks in 2usize..16,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
        capacity_step in 0u32..3,
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let capacity = 1.0 + 0.25 * f64::from(capacity_step);
        let spec =
            ClusterSpec::new(spear_dag::ResourceVec::splat(2, capacity)).unwrap();
        let mut rng = StdRng::seed_from_u64(search_seed);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        let fast_cfg = MctsConfig {
            nn_precision: spear_nn::Precision::Fast,
            ..config(12, search_seed)
        };
        let mut cached_scheduler = MctsScheduler::drl(fast_cfg.clone(), net.clone());
        let (cached, cs) = cached_scheduler.schedule_with_stats(&dag, &spec).unwrap();
        let input = cached_scheduler.policy().input_cache_stats();
        let uncached_cfg = MctsConfig { eval_cache: false, ..fast_cfg };
        let (uncached, us) = MctsScheduler::drl(uncached_cfg, net)
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        cached.validate(&dag, &spec).unwrap();
        prop_assert_eq!(&cached, &uncached, "f32 cache changed the schedule");
        prop_assert!(cached.makespan() >= dag.makespan_lower_bound(spec.capacity()));
        prop_assert!(cached.makespan() <= dag.total_work());
        prop_assert_eq!(cs.iterations, us.iterations);
        prop_assert_eq!(cs.rollout_steps, us.rollout_steps);
        prop_assert_eq!(us.cache_hits, 0);
        prop_assert_eq!(cs.cache_hits + cs.cache_misses, us.policy_inferences);
        prop_assert_eq!(cs.policy_inferences + input.hits, cs.cache_misses);
    }

    /// Cross-validation against the exact solver: on tiny jobs, MCTS can
    /// never beat a branch-and-bound-*proven* optimum (a violation would
    /// mean the bound or the simulator is broken), and with a healthy
    /// budget it usually reaches it.
    #[test]
    fn mcts_never_beats_proven_optimum(
        num_tasks in 2usize..8,
        dag_seed in any::<u64>(),
        search_seed in any::<u64>(),
    ) {
        use spear_sched::bnb;
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        if let Some(opt) = bnb::optimal_makespan(&dag, &spec, 300_000).unwrap() {
            let mcts = MctsScheduler::pure(config(150, search_seed))
                .schedule(&dag, &spec)
                .unwrap()
                .makespan();
            prop_assert!(mcts >= opt, "mcts {} beat the proven optimum {}", mcts, opt);
        }
    }
}

/// Schedules one problem with cache-on and cache-off Spear at
/// `precision`: the schedules must be bit-identical, the accounting
/// identities exact, and the input table must have served hits.
fn assert_cache_transparent(
    net: &PolicyNetwork,
    precision: Precision,
    schedule: impl Fn(&mut MctsScheduler) -> (Schedule, SearchStats),
) {
    let cfg = |eval_cache| MctsConfig {
        eval_cache,
        nn_precision: precision,
        ..config(20, 3)
    };
    let mut on = MctsScheduler::drl(cfg(true), net.clone());
    let (cached, cs) = schedule(&mut on);
    let (uncached, us) = schedule(&mut MctsScheduler::drl(cfg(false), net.clone()));
    assert_eq!(
        cached, uncached,
        "the cache changed the {precision} schedule"
    );
    let input = on.policy().input_cache_stats();
    assert!(input.hits > 0, "the {precision} input table served no hits");
    assert_eq!(cs.cache_hits + cs.cache_misses, us.policy_inferences);
    assert_eq!(cs.policy_inferences + input.hits, cs.cache_misses);
}

/// Cache transparency on a three-job arrival stream (one
/// `schedule_multi` episode over the union DAG), in both precisions.
#[test]
fn eval_cache_is_bit_transparent_on_a_job_stream() {
    let queue = JobQueue::new(vec![
        (0, random_dag(10, 1)),
        (4, random_dag(12, 2)),
        (9, random_dag(8, 3)),
    ])
    .unwrap();
    let spec = ClusterSpec::unit(2);
    let mut rng = StdRng::seed_from_u64(5);
    let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
    for precision in [Precision::Exact, Precision::Fast] {
        assert_cache_transparent(&net, precision, |s| {
            s.schedule_multi_with_stats(&queue, &spec).unwrap()
        });
    }
}

/// Cache transparency on a three-machine heterogeneous cluster with
/// data transfers, in both precisions.
#[test]
fn eval_cache_is_bit_transparent_on_a_hetero_cluster() {
    let machines = MachineSet::new(
        vec![
            ResourceVec::splat(2, 1.0),
            ResourceVec::from_slice(&[0.75, 0.5]),
            ResourceVec::from_slice(&[0.5, 0.75]),
        ],
        vec![4; 9],
        TransferMode::Direct,
        11,
        16,
    )
    .unwrap();
    let spec = ClusterSpec::hetero(machines).unwrap();
    let dag = random_dag(14, 6);
    let mut rng = StdRng::seed_from_u64(5);
    let features = FeatureConfig::small(2);
    let net = PolicyNetwork::with_hidden(features, &[8], &mut rng);
    for precision in [Precision::Exact, Precision::Fast] {
        assert_cache_transparent(&net, precision, |s| {
            s.schedule_with_stats(&dag, &spec).unwrap()
        });
    }
}
