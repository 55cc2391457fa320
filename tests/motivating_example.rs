//! End-to-end reproduction of the paper's motivating example (Fig. 3):
//! on the 8-task job, search-based scheduling (MCTS / Spear) reaches the
//! optimal makespan of 2T while the greedy baselines commit early and pay
//! 2.5T — the "up to 20%" improvement the paper advertises.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::fixtures::{motivating_example, motivating_optimal_makespan};
use spear::{
    CpScheduler, FeatureConfig, Graphene, MctsConfig, MctsScheduler, PolicyNetwork, Scheduler,
    SjfScheduler, TetrisScheduler,
};

#[test]
fn greedy_baselines_are_suboptimal() {
    let (dag, spec, _) = motivating_example();
    let optimal = motivating_optimal_makespan();
    for (name, makespan) in [
        (
            "tetris",
            TetrisScheduler::new()
                .schedule(&dag, &spec)
                .unwrap()
                .makespan(),
        ),
        (
            "sjf",
            SjfScheduler::new()
                .schedule(&dag, &spec)
                .unwrap()
                .makespan(),
        ),
        (
            "cp",
            CpScheduler::new().schedule(&dag, &spec).unwrap().makespan(),
        ),
    ] {
        assert_eq!(
            makespan, 25,
            "{name} should commit greedily and pay 2.5T, got {makespan}"
        );
        assert!(makespan > optimal);
    }
}

#[test]
fn graphene_recovers_via_backward_packing() {
    // Graphene's backward pass reads the resource-time space top-down and
    // happens to derive the optimal order on this instance (the paper's
    // Fig. 3 variant defeats it; ours concedes the tie — see DESIGN.md).
    let (dag, spec, _) = motivating_example();
    let s = Graphene::new().schedule(&dag, &spec).unwrap();
    s.validate(&dag, &spec).unwrap();
    assert_eq!(s.makespan(), motivating_optimal_makespan());
}

#[test]
fn pure_mcts_finds_the_optimum() {
    let (dag, spec, _) = motivating_example();
    for seed in 0..3 {
        let mut mcts = MctsScheduler::pure(MctsConfig {
            initial_budget: 300,
            min_budget: 50,
            seed,
            ..MctsConfig::default()
        });
        let (s, stats) = mcts.schedule_with_stats(&dag, &spec).unwrap();
        s.validate(&dag, &spec).unwrap();
        assert_eq!(
            s.makespan(),
            motivating_optimal_makespan(),
            "seed {seed} missed the optimum"
        );
        assert!(stats.iterations > 0);
    }
}

#[test]
fn spear_finds_the_optimum_with_less_budget() {
    let (dag, spec, _) = motivating_example();
    // DRL-guided search still finds the optimum on this instance with a
    // fraction of the pure-MCTS budget (the paper's core claim).
    let config = MctsConfig {
        initial_budget: 150,
        min_budget: 30,
        seed: 2,
        ..MctsConfig::default()
    };
    let policy = PolicyNetwork::with_hidden(
        FeatureConfig::small(2),
        &[32],
        &mut StdRng::seed_from_u64(2),
    );
    let mut spear = MctsScheduler::drl(config, policy);
    let s = spear.schedule(&dag, &spec).unwrap();
    s.validate(&dag, &spec).unwrap();
    assert_eq!(s.makespan(), motivating_optimal_makespan());
}

#[test]
fn improvement_is_twenty_percent() {
    let (dag, spec, _) = motivating_example();
    let greedy = TetrisScheduler::new()
        .schedule(&dag, &spec)
        .unwrap()
        .makespan();
    let spear = motivating_optimal_makespan();
    let reduction = (greedy - spear) as f64 / greedy as f64;
    assert!(
        (0.19..=0.21).contains(&reduction),
        "reduction {reduction} should be ≈20%"
    );
}

#[test]
fn makespans_respect_lower_bound() {
    let (dag, spec, _) = motivating_example();
    assert!(dag.makespan_lower_bound(spec.capacity()) <= motivating_optimal_makespan());
    assert_eq!(dag.critical_path_length(), 15); // gate (5) + mem_heavy (10)
}
