//! Property tests for the cluster simulator: every completed simulation,
//! regardless of the (possibly adversarial) policy driving it, must produce
//! a valid schedule, and the simulator must be deterministic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spear_cluster::{Action, ClusterSpec, ResourceTimeline, SimState};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::{Dag, ResourceVec, FIT_EPSILON};

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    let spec = LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    };
    spec.generate(&mut StdRng::seed_from_u64(seed))
}

/// Drives a simulation with a seeded uniformly random policy.
fn run_random_policy(dag: &Dag, spec: &ClusterSpec, seed: u64) -> SimState {
    let mut sim = SimState::new(dag, spec).expect("dag fits cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    sim.run_with(dag, |_, actions| actions[rng.gen_range(0..actions.len())])
        .expect("legal actions never fail");
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random action sequence drives the simulation to completion and
    /// yields a schedule passing full validation.
    #[test]
    fn random_policy_always_yields_valid_schedule(
        num_tasks in 1usize..40,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let sim = run_random_policy(&dag, &spec, policy_seed);
        prop_assert!(sim.is_terminal(&dag));
        let makespan = sim.makespan().expect("terminal => makespan");
        let schedule = sim.into_schedule(&dag);
        prop_assert_eq!(schedule.makespan(), makespan);
        schedule.validate(&dag, &spec).unwrap();
    }

    /// The makespan respects the theoretical lower bound and the serial
    /// upper bound.
    #[test]
    fn makespan_within_theoretical_bounds(
        num_tasks in 1usize..30,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let sim = run_random_policy(&dag, &spec, policy_seed);
        let ms = sim.makespan().unwrap();
        prop_assert!(ms >= dag.critical_path_length());
        prop_assert!(ms <= dag.total_work());
    }

    /// Determinism: the same policy seed reproduces the same schedule.
    #[test]
    fn simulation_is_deterministic(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let a = run_random_policy(&dag, &spec, policy_seed);
        let b = run_random_policy(&dag, &spec, policy_seed);
        prop_assert_eq!(a, b);
    }

    /// Legal actions are exactly the actions that `apply` accepts; all
    /// others are rejected without corrupting the state.
    #[test]
    fn legal_actions_match_apply(
        num_tasks in 1usize..20,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(policy_seed);
        while !sim.is_terminal(&dag) {
            let legal = sim.legal_actions(&dag);
            prop_assert!(!legal.is_empty());
            // Probe every conceivable action against the legal list.
            let mut all: Vec<Action> =
                dag.task_ids().map(|t| Action::Place(t, 0)).collect();
            all.push(Action::Process);
            for &action in &all {
                let expected_ok = legal.contains(&action);
                let mut probe = sim.clone();
                let ok = probe.apply(&dag, action).is_ok();
                prop_assert_eq!(ok, expected_ok, "action {} legality mismatch", action);
            }
            let action = legal[rng.gen_range(0..legal.len())];
            sim.apply(&dag, action).unwrap();
        }
    }

    /// `apply` and `apply_legal` agree step for step: driving the same
    /// legal action sequence through both produces identical states (the
    /// binary-search readiness check behind `apply` and the
    /// `debug_assert`-only path of `apply_legal` can never diverge), and
    /// `can_schedule` agrees with the legality probe for every task.
    #[test]
    fn apply_and_apply_legal_agree(
        num_tasks in 1usize..20,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut checked = SimState::new(&dag, &spec).unwrap();
        let mut trusted = checked.clone();
        let mut rng = StdRng::seed_from_u64(policy_seed);
        while !checked.is_terminal(&dag) {
            let legal = checked.legal_actions(&dag);
            prop_assert!(!legal.is_empty());
            for t in dag.task_ids() {
                prop_assert_eq!(
                    checked.can_schedule(&dag, t),
                    legal.contains(&Action::Place(t, 0)),
                    "can_schedule({}) disagrees with legal_actions", t
                );
            }
            let action = legal[rng.gen_range(0..legal.len())];
            checked.apply(&dag, action).unwrap();
            trusted.apply_legal(&dag, action);
            prop_assert_eq!(&checked, &trusted, "states diverged after {}", action);
        }
        prop_assert!(trusted.is_terminal(&dag));
        prop_assert_eq!(checked.makespan(), trusted.makespan());
    }

    /// Free capacity accounting: at all times the free vector equals
    /// capacity minus the sum of running demands.
    #[test]
    fn free_capacity_accounting(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(policy_seed);
        while !sim.is_terminal(&dag) {
            let mut used = ResourceVec::zeros(2);
            for r in sim.running() {
                used.add_assign(dag.task(r.task).demand());
            }
            let expect = spec.capacity().saturating_sub(&used);
            for r in 0..2 {
                prop_assert!((sim.free()[r] - expect[r]).abs() < 1e-6);
            }
            let legal = sim.legal_actions(&dag);
            let action = legal[rng.gen_range(0..legal.len())];
            sim.apply(&dag, action).unwrap();
        }
    }

    /// The clock never moves backwards and only advances on Process.
    #[test]
    fn clock_is_monotonic(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
        policy_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut sim = SimState::new(&dag, &spec).unwrap();
        let mut rng = StdRng::seed_from_u64(policy_seed);
        while !sim.is_terminal(&dag) {
            let before = sim.clock();
            let legal = sim.legal_actions(&dag);
            let action = legal[rng.gen_range(0..legal.len())];
            sim.apply(&dag, action).unwrap();
            match action {
                Action::Place(..) => prop_assert_eq!(sim.clock(), before),
                Action::Process => prop_assert!(sim.clock() > before),
            }
        }
    }

    /// Timeline: placements found by earliest_start never overflow
    /// capacity.
    #[test]
    fn timeline_earliest_start_is_safe(
        demands in prop::collection::vec((0.05f64..1.0, 1u64..10), 1..30),
    ) {
        let mut tl = ResourceTimeline::new(ResourceVec::from_slice(&[1.0]));
        for (d, dur) in demands {
            let demand = ResourceVec::from_slice(&[d]);
            let start = tl.earliest_start(&demand, dur, 0);
            prop_assert!(tl.fits(&demand, start, dur));
            tl.place(&demand, start, dur);
        }
        // Post: no slot exceeds capacity.
        for s in 0..tl.horizon() {
            prop_assert!(tl.used_at(s)[0] <= 1.0 + FIT_EPSILON);
        }
    }

    /// Timeline: backward placements via latest_start are also safe and
    /// finish by their deadline.
    #[test]
    fn timeline_latest_start_is_safe(
        demands in prop::collection::vec((0.05f64..1.0, 1u64..10), 1..30),
        horizon in 64u64..256,
    ) {
        let mut tl = ResourceTimeline::new(ResourceVec::from_slice(&[1.0]));
        for (d, dur) in demands {
            let demand = ResourceVec::from_slice(&[d]);
            if let Some(start) = tl.latest_start(&demand, dur, horizon) {
                prop_assert!(start + dur <= horizon);
                prop_assert!(tl.fits(&demand, start, dur));
                tl.place(&demand, start, dur);
            }
        }
        for s in 0..tl.horizon() {
            prop_assert!(tl.used_at(s)[0] <= 1.0 + FIT_EPSILON);
        }
    }
}

/// Three-resource clusters work end-to-end (the paper uses two, but the
/// code is dimension-generic).
#[test]
fn three_dimensional_resources_work() {
    use spear_dag::{DagBuilder, Task};
    let mut b = DagBuilder::new(3);
    let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5, 0.2, 0.8])));
    let c = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5, 0.9, 0.1])));
    let d = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.4, 0.1, 0.3])));
    b.add_edge(a, c).unwrap();
    let dag = b.build().unwrap();
    let spec = ClusterSpec::unit(3);
    let mut sim = SimState::new(&dag, &spec).unwrap();
    // d cannot co-run with a (dim 2: 0.8+0.3 > 1) but fits alongside c.
    sim.apply(&dag, Action::Place(a, 0)).unwrap();
    assert!(!sim.can_schedule(&dag, d));
    sim.apply(&dag, Action::Process).unwrap();
    sim.apply(&dag, Action::Place(c, 0)).unwrap();
    sim.apply(&dag, Action::Place(d, 0)).unwrap(); // fits alongside c
    sim.apply(&dag, Action::Process).unwrap();
    sim.apply(&dag, Action::Process).unwrap();
    let schedule = sim.into_schedule(&dag);
    schedule.validate(&dag, &spec).unwrap();
    assert_eq!(schedule.makespan(), 5);
}

/// Core types are Send + Sync (C-SEND-SYNC): schedulers move across
/// threads in `RootParallelMcts`.
#[test]
fn core_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimState>();
    assert_send_sync::<spear_cluster::Schedule>();
    assert_send_sync::<spear_cluster::ClusterSpec>();
    assert_send_sync::<spear_cluster::ClusterError>();
    assert_send_sync::<ResourceTimeline>();
    assert_send_sync::<Action>();
}

/// The Gantt renderer covers every task row and the utilization footer.
#[test]
fn gantt_renders_rows_and_footer() {
    use spear_dag::{DagBuilder, Task};
    let mut b = DagBuilder::new(2);
    let a = b.add_task(Task::new(4, ResourceVec::from_slice(&[1.0, 0.2])).with_name("hog"));
    let c = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5, 0.5])));
    let dag = b.build().unwrap();
    let spec = ClusterSpec::unit(2);
    let mut sim = SimState::new(&dag, &spec).unwrap();
    sim.run_with(&dag, |_, actions| actions[0]).unwrap();
    let schedule = sim.into_schedule(&dag);
    let art = schedule.render_gantt(&dag, &spec, 60);
    assert!(art.contains("hog"));
    assert!(art.contains("t1")); // unnamed task falls back to its id
    assert!(art.contains("util[0]"));
    assert!(art.contains("util[1]"));
    // The CPU hog occupies full capacity while it runs: a '9' (or higher
    // digit column) must appear in the dim-0 footer.
    let footer: Vec<&str> = art.lines().filter(|l| l.contains("util[0]")).collect();
    assert!(
        footer[0].contains('9') || footer[0].contains('8'),
        "{footer:?}"
    );
    let _ = (a, c);
}
