//! Auditing is pure observation: a full seeded episode driven with the
//! invariant auditor on must be bit-identical to the same episode with it
//! off — same decisions, same placements, same makespan.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spear_cluster::env::{EpisodeDriver, FnPolicy, NoRng, SimEnv};
use spear_cluster::{Action, ClusterSpec, Schedule};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::Dag;

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    let spec = LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    };
    spec.generate(&mut StdRng::seed_from_u64(seed))
}

/// Runs one full episode with a seeded random policy, auditing on or off.
fn run_episode(dag: &Dag, spec: &ClusterSpec, policy_seed: u64, audit: bool) -> Schedule {
    let mut rng = StdRng::seed_from_u64(policy_seed);
    let policy = FnPolicy(move |env: &SimEnv<'_>| {
        let legal = env.observe().legal_actions(env.dag());
        legal[rng.gen_range(0..legal.len())]
    });
    let mut driver = EpisodeDriver::new(policy).with_audit(audit);
    assert_eq!(driver.audits(), audit);
    driver
        .run(dag, spec, &mut NoRng)
        .expect("a random-but-legal episode never fails")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Audit on and audit off produce the exact same schedule for the
    /// exact same seeded policy.
    #[test]
    fn audited_episode_is_bit_identical_to_unaudited(
        num_tasks in 1usize..32,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let audited = run_episode(&dag, &spec, policy_seed, true);
        let unaudited = run_episode(&dag, &spec, policy_seed, false);
        prop_assert_eq!(&audited, &unaudited);
        prop_assert_eq!(audited.makespan(), unaudited.makespan());
    }
}

/// The build-profile default: debug (test) builds audit every driven
/// episode unless explicitly disabled; `with_audit` overrides both ways.
#[test]
fn debug_builds_audit_by_default() {
    let pick_first = |env: &SimEnv<'_>| -> Action { env.observe().legal_actions(env.dag())[0] };
    let driver = EpisodeDriver::new(FnPolicy(pick_first));
    assert_eq!(
        driver.audits(),
        cfg!(any(debug_assertions, feature = "audit"))
    );
    assert!(!driver.with_audit(false).audits());
    let driver = EpisodeDriver::new(FnPolicy(pick_first));
    assert!(driver.with_audit(true).audits());
}
