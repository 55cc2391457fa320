//! Heterogeneous-cluster integration tests: the full scheduler roster on
//! a seeded 3-machine cluster judged three independent ways (validate,
//! audited sim replay, per-machine timeline replay), a hand-computed
//! 2-machine golden schedule asserted start-by-start against a committed
//! fixture (regenerate with `UPDATE_GOLDEN=1`), and property tests
//! pinning the network model: a degenerate 1-machine cluster is
//! bit-identical to the single box, co-located parents never pay a
//! transfer delay, and lowering any link bandwidth never produces an
//! earlier makespan for the same placement order. The DRL agent trains
//! and rolls out on 2–4 machines.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::diffcheck::{check_schedule, CaseSpec, Fixture, SchedulerKind};
use spear::rl::{collect_expert_dataset, run_episode, SelectionMode};
use spear::{
    train_policy, Action, ClusterSpec, Dag, DagBuilder, JobQueue, MachineProfile, MachineSet,
    Placement, ResourceVec, Schedule, SimState, Task, TaskId, TrainingPipelineConfig, TransferMode,
};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The seeded 3-machine spec the roster test runs on: full-size machine
/// 0, tapered machines 1–2, non-uniform links, direct transfers.
fn roster_case(scheduler: SchedulerKind) -> CaseSpec {
    CaseSpec {
        machines: 3,
        bandwidth: 2,
        ..CaseSpec::single(42, 12, 2, scheduler)
    }
}

/// Every roster scheduler produces a schedule on the 3-machine cluster
/// that all three judges accept — including the invariant auditor, which
/// the sim-replay judge runs step-by-step in heterogeneous mode.
#[test]
fn full_roster_passes_three_judges_on_a_three_machine_cluster() {
    for kind in SchedulerKind::ALL {
        let case = roster_case(kind);
        let tri = case
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", case.label()))
            .unwrap();
        assert!(tri.all_ok(), "{}: {}", case.label(), tri.summary());
    }
}

/// Both transfer modes work for the whole roster, and at least one
/// scheduler actually uses more than one machine (the cluster is not
/// degenerately serialized onto machine 0).
#[test]
fn via_master_mode_passes_and_the_cluster_is_actually_used() {
    let mut spread = false;
    for kind in SchedulerKind::ALL {
        let case = CaseSpec {
            mode: TransferMode::ViaMaster,
            ..roster_case(kind)
        };
        let queue = case.queue();
        let spec = case.cluster();
        let schedule = kind
            .build(case.seed, case.dims)
            .schedule_multi(&queue, &spec)
            .unwrap_or_else(|e| panic!("{}: {e}", case.label()));
        let tri = check_schedule(&queue, &spec, &schedule);
        assert!(tri.all_ok(), "{}: {}", case.label(), tri.summary());
        spread |= schedule.placements().iter().any(|p| p.machine > 0);
    }
    assert!(spread, "no roster scheduler placed a task off machine 0");
}

/// The hand-computed golden workload: two unit machines on 1-byte/slot
/// links, every edge payload exactly 1 byte (`max_edge_bytes = 1`), so
/// every cross-machine transfer takes exactly 1 slot.
fn golden_workload() -> (Dag, ClusterSpec) {
    let mut b = DagBuilder::new(1);
    let t0 = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
    let t1 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.6])));
    let _t2 = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
    let t3 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
    b.add_edge(t0, t3).unwrap();
    b.add_edge(t1, t3).unwrap();
    let dag = b.build().unwrap();
    let machines = MachineSet::uniform(
        2,
        ResourceVec::from_slice(&[1.0]),
        1,
        TransferMode::Direct,
        0,
        1,
    )
    .unwrap();
    (dag, ClusterSpec::hetero(machines).unwrap())
}

/// The hand-computed schedule for [`golden_workload`]:
///
/// * t0 on machine 0 at `[0, 2)` — t1 (0.6) cannot share the box;
/// * t1 on machine 1 at `[0, 1)`;
/// * t2 on machine 1 at `[1, 3)` — fits after t1 frees 0.6;
/// * t3 on machine 1 at `[3, 4)` — its t1 input is co-located (ready at
///   1, no transfer), but the t0 → t3 edge crosses machines: 1 byte over
///   a 1-byte/slot link adds exactly 1 slot, gating the start to
///   `2 + 1 = 3` even though machine 1 has room from slot 1.
fn golden_schedule() -> Schedule {
    let mut placements = vec![
        Placement::new(TaskId::new(0), 0, 2),
        Placement::new(TaskId::new(1), 0, 1),
        Placement::new(TaskId::new(2), 1, 3),
        Placement::new(TaskId::new(3), 3, 4),
    ];
    placements[1].machine = 1;
    placements[2].machine = 1;
    placements[3].machine = 1;
    Schedule::from_placements(placements, 4)
}

/// The hand-computed 2-machine/4-task schedule passes all three judges,
/// start by start, and matches the committed golden byte-for-byte.
/// Regenerate `tests/fixtures/hetero_golden.json` with `UPDATE_GOLDEN=1`
/// after an intentional format change.
#[test]
fn hand_computed_two_machine_schedule_matches_the_committed_golden() {
    let (dag, spec) = golden_workload();
    let queue = JobQueue::single(dag.clone()).unwrap();
    let schedule = golden_schedule();
    schedule.validate(&dag, &spec).expect("golden is valid");
    let tri = check_schedule(&queue, &spec, &schedule);
    assert!(tri.all_ok(), "{}", tri.summary());

    // Start-by-start: exactly the hand computation above.
    let expect = [(0u64, 2u64, 0u32), (0, 1, 1), (1, 3, 1), (3, 4, 1)];
    for (i, &(start, finish, machine)) in expect.iter().enumerate() {
        let p = schedule.placement_of(TaskId::new(i)).unwrap();
        assert_eq!(
            (p.start, p.finish, p.machine),
            (start, finish, machine),
            "task {i}"
        );
    }

    // Two committed goldens pin the serialized forms: the workload +
    // machine set as a regular fixture (the fixture sweep re-verifies it
    // with Tetris), and the hand-built schedule itself, byte for byte
    // (`.golden`, not `.json`, so the fixture sweep skips it).
    let fixture = Fixture::from_parts(
        "hetero_golden",
        "hand-computed 2-machine/4-task workload with one cross-machine \
         edge (t0 -> t3): the transfer gates t3 to start at 3 = t0 finish \
         2 + 1 slot for 1 byte over a 1-byte/slot link",
        SchedulerKind::Tetris,
        0,
        &queue,
        &spec,
    )
    .to_json();
    let mut rendered = serde_json::to_string_pretty(&schedule).unwrap();
    rendered.push('\n');
    let fixture_path = fixtures_dir().join("hetero_golden.json");
    let schedule_path = fixtures_dir().join("hetero_golden_schedule.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&fixture_path, &fixture).expect("golden writable");
        std::fs::write(&schedule_path, &rendered).expect("golden writable");
    }
    let committed_fixture = std::fs::read_to_string(&fixture_path)
        .expect("tests/fixtures/hetero_golden.json must be committed");
    let committed_schedule = std::fs::read_to_string(&schedule_path)
        .expect("tests/fixtures/hetero_golden_schedule.golden must be committed");
    assert_eq!(
        fixture, committed_fixture,
        "hetero workload golden drifted; regenerate with UPDATE_GOLDEN=1 if deliberate"
    );
    assert_eq!(
        rendered, committed_schedule,
        "hetero schedule golden drifted; regenerate with UPDATE_GOLDEN=1 if deliberate"
    );
}

/// Starting t3 before its cross-machine input lands must be rejected by
/// all three judges — coherently, with no disagreement.
#[test]
fn golden_schedule_with_an_early_start_is_rejected_by_all_judges() {
    let (dag, spec) = golden_workload();
    let mut early = golden_schedule().placements().to_vec();
    early[3].start = 2;
    early[3].finish = 3;
    let bad = Schedule::from_placements(early, 4);
    let tri = check_schedule(&JobQueue::single(dag).unwrap(), &spec, &bad);
    assert!(tri.validate.is_err(), "validate accepted a gated start");
    assert!(tri.sim_replay.is_err(), "sim replay accepted a gated start");
    assert!(
        tri.timeline_replay.is_err(),
        "timeline replay accepted a gated start"
    );
}

/// The DRL agent runs on multi-machine clusters: the tiny pipeline
/// trains, and a sampled rollout of its policy and the CP expert's
/// dataset both complete on seeded 25-task DAGs. Links of one byte per
/// slot keep children waiting on transfers, so the agent also meets
/// states where nothing runs and every visible task waits.
#[test]
fn rl_trains_and_rolls_out_on_two_to_four_machines() {
    for machines in 2..=4 {
        for mode in [TransferMode::Direct, TransferMode::ViaMaster] {
            let set = MachineProfile {
                base_bandwidth: 1,
                mode,
                ..MachineProfile::sweep(machines)
            }
            .generate(machines as u64)
            .expect("the sweep profile is valid");
            let spec = ClusterSpec::hetero(set).expect("a valid set is a valid cluster");
            let label = format!("{machines} machines, {mode:?}");
            let mut policy = train_policy(&TrainingPipelineConfig::tiny(), &spec)
                .unwrap_or_else(|e| panic!("{label}: training: {e}"))
                .policy;
            for seed in 0..8 {
                let dag = case_dag(seed, 25, 2);
                let mut rng = StdRng::seed_from_u64(seed);
                run_episode(
                    &mut policy,
                    &dag,
                    &spec,
                    SelectionMode::Sample,
                    false,
                    &mut rng,
                )
                .unwrap_or_else(|e| panic!("{label}, seed {seed}: rollout: {e}"));
                collect_expert_dataset(policy.featurizer(), &dag, &spec)
                    .unwrap_or_else(|e| panic!("{label}, seed {seed}: expert: {e}"));
            }
        }
    }
}

/// Replays fixed `(task, machine)` placement decisions in a fixed order
/// as early as the simulator allows, returning the realized makespan.
fn greedy_replay(dag: &Dag, spec: &ClusterSpec, order: &[(TaskId, u32)]) -> u64 {
    let mut state = SimState::new(dag, spec).expect("workload fits");
    for &(t, m) in order {
        while !state.legal_actions(dag).contains(&Action::Place(t, m)) {
            state
                .apply(dag, Action::Process)
                .expect("a future event must exist while a placement is pending");
        }
        state.apply(dag, Action::Place(t, m)).unwrap();
    }
    while !state.is_terminal(dag) {
        state.apply(dag, Action::Process).unwrap();
    }
    state.makespan().expect("terminal state has a makespan")
}

fn case_dag(seed: u64, num_tasks: usize, dims: usize) -> Dag {
    LayeredDagSpec {
        num_tasks,
        dims,
        ..LayeredDagSpec::paper_training()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero bandwidth penalty on one machine: a 1-machine cluster of the
    /// single box's capacity, whatever its network knobs, schedules
    /// bit-identically to the unit box (the same placements, all on
    /// machine 0), for every roster scheduler.
    #[test]
    fn one_machine_specs_are_bit_identical_to_the_single_box(
        seed in 0u64..1000,
        num_tasks in 4usize..10,
        kind_idx in 0usize..SchedulerKind::ALL.len(),
        bandwidth in 1u64..16,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let dag = case_dag(seed, num_tasks, 2);
        let single = ClusterSpec::unit(2);
        let machines = MachineSet::uniform(
            1,
            ResourceVec::splat(2, 1.0),
            bandwidth,
            TransferMode::Direct,
            seed,
            8,
        )
        .unwrap();
        let one = ClusterSpec::hetero(machines).unwrap();
        let a = kind.build(seed, 2).schedule(&dag, &single).unwrap();
        let b = kind.build(seed, 2).schedule(&dag, &one).unwrap();
        prop_assert_eq!(a, b, "{}", kind.name());
    }

    /// Co-located parents never incur a transfer delay, in either mode.
    #[test]
    fn co_located_parents_incur_no_transfer_delay(
        seed in 0u64..10_000,
        parent in 0usize..64,
        child in 0usize..64,
        machine in 0u32..3,
        direct in any::<bool>(),
    ) {
        let mode = if direct { TransferMode::Direct } else { TransferMode::ViaMaster };
        let ms = MachineSet::uniform(3, ResourceVec::splat(2, 1.0), 2, mode, seed, 16).unwrap();
        prop_assert_eq!(ms.edge_delay(parent, child, machine, machine), 0);
    }

    /// Lowering any single link's bandwidth never produces an *earlier*
    /// makespan for the same seeded placement order (transfers only gate
    /// starts, they never reorder work).
    #[test]
    fn lowering_a_link_bandwidth_never_speeds_up_a_placement(
        seed in 0u64..500,
        num_tasks in 4usize..12,
        machines in 2usize..4,
        src in 0u32..4,
        dst in 0u32..4,
    ) {
        let src = src % machines as u32;
        let dst = dst % machines as u32;
        let dag = case_dag(seed, num_tasks, 2);
        let ms = MachineSet::uniform(
            machines,
            ResourceVec::splat(2, 1.0),
            8,
            TransferMode::Direct,
            seed,
            16,
        )
        .unwrap();
        let spec = ClusterSpec::hetero(ms.clone()).unwrap();
        // A fixed placement: Tetris's choices on the fast cluster, in
        // start order.
        let schedule = SchedulerKind::Tetris.build(seed, 2).schedule(&dag, &spec).unwrap();
        let mut order: Vec<(TaskId, u32)> = schedule
            .placements()
            .iter()
            .map(|p| (p.task, p.machine))
            .collect();
        order.sort_by_key(|&(t, _)| {
            schedule.placement_of(t).map(|p| (p.start, t)).unwrap()
        });
        let fast = greedy_replay(&dag, &spec, &order);
        let mut slow_ms = ms;
        slow_ms.set_bandwidth(src, dst, 1);
        let slow_spec = ClusterSpec::hetero(slow_ms).unwrap();
        let slow = greedy_replay(&dag, &slow_spec, &order);
        prop_assert!(
            slow >= fast,
            "lowering link {}->{} sped the replay up: {} < {}",
            src, dst, slow, fast
        );
    }

    /// The raw delay model is monotone too: for any payload, a slower
    /// link never shortens a transfer.
    #[test]
    fn transfer_delay_is_monotone_in_bandwidth(
        seed in 0u64..10_000,
        bytes in 1u64..10_000,
        low in 1u64..64,
        extra in 0u64..64,
    ) {
        let mut fast = MachineSet::uniform(
            2,
            ResourceVec::splat(1, 1.0),
            1,
            TransferMode::Direct,
            seed,
            16,
        )
        .unwrap();
        let mut slow = fast.clone();
        fast.set_bandwidth(0, 1, low + extra);
        slow.set_bandwidth(0, 1, low);
        prop_assert!(slow.transfer_delay(bytes, 0, 1) >= fast.transfer_delay(bytes, 0, 1));
    }
}
