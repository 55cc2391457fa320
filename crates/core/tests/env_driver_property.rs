//! Property tests for the environment layer: [`EpisodeDriver`] must be
//! bit-identical to the hand-rolled `legal_actions`/`apply` stepping loop
//! it replaced, for any DAG, any policy seed, and both checked and
//! trusted stepping.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spear::env::{DecisionPolicy, EpisodeDriver, SimEnv};
use spear::{Action, ClusterSpec, Dag, Schedule, SimState};
use spear_dag::generator::LayeredDagSpec;

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

/// Uniformly random over the legal actions — consumes exactly one RNG
/// draw per decision, so the driver and the hand-rolled loop see the same
/// stream when seeded identically.
struct UniformPolicy;

impl DecisionPolicy<StdRng> for UniformPolicy {
    fn decide(&mut self, env: &SimEnv<'_>, rng: &mut StdRng) -> Action {
        let legal = env.observe().legal_actions(env.dag());
        legal[rng.gen_range(0..legal.len())]
    }
}

/// The pre-Env stepping loop, verbatim: enumerate, decide, apply.
fn hand_rolled(dag: &Dag, spec: &ClusterSpec, seed: u64) -> Schedule {
    let mut state = SimState::new(dag, spec).expect("dag fits cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut legal = Vec::new();
    while !state.is_terminal(dag) {
        state.legal_actions_into(dag, &mut legal);
        let action = legal[rng.gen_range(0..legal.len())];
        state.apply(dag, action).expect("legal actions never fail");
    }
    state.into_schedule(dag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `EpisodeDriver::run` (checked stepping) produces the bit-identical
    /// schedule of the hand-rolled loop.
    #[test]
    fn driver_matches_hand_rolled_loop(
        num_tasks in 1usize..40,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let driven = EpisodeDriver::new(UniformPolicy)
            .run(&dag, &spec, &mut StdRng::seed_from_u64(policy_seed))
            .expect("driver completes the episode");
        let manual = hand_rolled(&dag, &spec, policy_seed);
        prop_assert_eq!(driven, manual);
    }

    /// Trusted stepping (the MCTS hot path) agrees with checked stepping
    /// action for action.
    #[test]
    fn trusted_stepping_matches_checked(
        num_tasks in 1usize..30,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut env = SimEnv::new(&dag, &spec).expect("dag fits cluster");
        let mut driver = EpisodeDriver::new(UniformPolicy);
        let outcome = driver.drive_trusted(&mut env, &mut StdRng::seed_from_u64(policy_seed));
        prop_assert!(outcome.is_terminal());
        let trusted = env.into_schedule().expect("terminal episode");
        let manual = hand_rolled(&dag, &spec, policy_seed);
        prop_assert_eq!(trusted, manual);
    }
}
