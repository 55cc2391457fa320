//! Golden determinism tests: fixed-seed searches must reproduce exactly
//! the schedules recorded here. These constants pin the behavior of the
//! MCTS hot path — any refactor that changes RNG call order, float
//! summation order, or action enumeration order will trip them.
//!
//! To regenerate after an *intentional* behavior change, run
//! `cargo test --release --test golden_determinism -- --ignored --nocapture`
//! and copy the printed tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spear::dag::generator::LayeredDagSpec;
use spear::env::{DecisionPolicy, EnvContext, EpisodeDriver};
use spear::{
    Action, ClusterSpec, Dag, FeatureConfig, MctsConfig, MctsScheduler, PolicyNetwork, Schedule,
    SimState,
};

/// Number of fixed workload DAGs each golden table covers.
const GOLDEN_DAGS: usize = 3;

/// Tasks per workload DAG (fig6a-style simulation workload).
const GOLDEN_TASKS: usize = 50;

/// Workload generator seed.
const GOLDEN_SEED: u64 = 42;

/// `(makespan, schedule fingerprint)` per DAG for pure MCTS.
const PURE_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (324, 0xc4060ce07e851569),
    (341, 0xf34dcf43c265d051),
    (370, 0x9196126c9e1c5389),
];

/// `(makespan, schedule fingerprint)` per DAG for DRL-guided search.
const DRL_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (344, 0xd0bf2cd026048d95),
    (337, 0x4f191505c3866175),
    (356, 0xb2451e3e80597f51),
];

/// `(makespan, schedule fingerprint)` per DAG for a seeded uniform policy
/// stepped through the Env layer's [`EpisodeDriver`]. Pins the driver's
/// enumeration and RNG call order independently of the searches above.
const ENV_DRIVER_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (394, 0x786d1d936229ff67),
    (430, 0xd8dd51ed5f1afb1e),
    (407, 0xc3031cffd93739db),
];

/// Seed of the uniform policy behind [`ENV_DRIVER_GOLDEN`].
const ENV_DRIVER_SEED: u64 = 7;

/// The fixed workload: same generator family as the fig6a experiment.
fn workload() -> (Vec<Dag>, ClusterSpec) {
    let spec = LayeredDagSpec {
        num_tasks: GOLDEN_TASKS,
        ..LayeredDagSpec::paper_simulation()
    };
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    let dags = (0..GOLDEN_DAGS).map(|_| spec.generate(&mut rng)).collect();
    (dags, ClusterSpec::unit(2))
}

fn pure_scheduler() -> MctsScheduler {
    MctsScheduler::pure(MctsConfig {
        initial_budget: 80,
        min_budget: 16,
        seed: 7,
        ..MctsConfig::default()
    })
}

fn drl_scheduler() -> MctsScheduler {
    let mut rng = StdRng::seed_from_u64(0);
    let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16], &mut rng);
    MctsScheduler::drl(
        MctsConfig {
            initial_budget: 30,
            min_budget: 6,
            seed: 7,
            ..MctsConfig::default()
        },
        policy,
    )
}

/// FNV-1a over every task's start time in task order: detects any change
/// to the schedule, not just its makespan.
fn fingerprint(schedule: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in schedule.placements() {
        fold(p.task.index() as u64);
        fold(p.start);
    }
    h
}

fn run(mut scheduler: MctsScheduler) -> Vec<(u64, u64)> {
    use spear::Scheduler;
    let (dags, spec) = workload();
    dags.iter()
        .map(|dag| {
            let s = scheduler
                .schedule(dag, &spec)
                .expect("workload fits cluster");
            s.validate(dag, &spec).expect("schedule must be valid");
            (s.makespan(), fingerprint(&s))
        })
        .collect()
}

/// Uniformly random over the legal actions; one RNG draw per decision.
struct UniformDriverPolicy;

impl DecisionPolicy<StdRng> for UniformDriverPolicy {
    fn decide(
        &mut self,
        _ctx: &EnvContext<'_>,
        _state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action {
        legal[rng.gen_range(0..legal.len())]
    }
}

fn run_env_driver() -> Vec<(u64, u64)> {
    let (dags, spec) = workload();
    dags.iter()
        .map(|dag| {
            let s = EpisodeDriver::new(UniformDriverPolicy)
                .run(dag, &spec, &mut StdRng::seed_from_u64(ENV_DRIVER_SEED))
                .expect("workload fits cluster");
            s.validate(dag, &spec).expect("schedule must be valid");
            (s.makespan(), fingerprint(&s))
        })
        .collect()
}

#[test]
fn pure_mcts_matches_golden_schedules() {
    assert_eq!(run(pure_scheduler()), PURE_GOLDEN);
}

/// The Env layer itself reproduces the pinned schedules: seeded episodes
/// driven through [`EpisodeDriver`] must be bit-stable across refactors,
/// and bit-identical to the hand-rolled stepping loop they replaced.
#[test]
fn env_driver_matches_golden_schedules() {
    assert_eq!(run_env_driver(), ENV_DRIVER_GOLDEN);
    // Cross-check: the same seed through a raw legal_actions/apply loop.
    let (dags, spec) = workload();
    for (dag, &(makespan, fp)) in dags.iter().zip(&ENV_DRIVER_GOLDEN) {
        let mut state = SimState::new(dag, &spec).expect("workload fits cluster");
        let mut rng = StdRng::seed_from_u64(ENV_DRIVER_SEED);
        let mut legal = Vec::new();
        while !state.is_terminal(dag) {
            state.legal_actions_into(dag, &mut legal);
            let action = legal[rng.gen_range(0..legal.len())];
            state.apply(dag, action).expect("legal actions never fail");
        }
        let s = state.into_schedule(dag);
        assert_eq!((s.makespan(), fingerprint(&s)), (makespan, fp));
    }
}

#[test]
fn drl_guided_matches_golden_schedules() {
    assert_eq!(run(drl_scheduler()), DRL_GOLDEN);
}

/// Prints the current tables; run with `-- --ignored --nocapture` to
/// regenerate the constants above.
#[test]
#[ignore = "generator for the golden constants, not a check"]
fn print_golden_tables() {
    for (name, results) in [
        ("PURE", run(pure_scheduler())),
        ("DRL", run(drl_scheduler())),
        ("ENV_DRIVER", run_env_driver()),
    ] {
        println!("const {name}_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [");
        for (makespan, fp) in results {
            println!("    ({makespan}, {fp:#018x}),");
        }
        println!("];");
    }
}
