//! Property tests for the DRL agent: featurization bounds, mask/simulator
//! agreement, and policy legality on arbitrary reachable states.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spear_cluster::{Action, ClusterSpec, SimState};
use spear_dag::analysis::GraphFeatures;
use spear_dag::generator::LayeredDagSpec;
use spear_dag::Dag;
use spear_rl::{FeatureConfig, Featurizer, PolicyNetwork};

fn random_dag(num_tasks: usize, seed: u64) -> Dag {
    LayeredDagSpec {
        num_tasks,
        min_width: 1,
        max_width: 4,
        ..LayeredDagSpec::paper_simulation()
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

/// Drives a simulation a random number of random steps to reach an
/// arbitrary mid-episode state.
fn random_state(dag: &Dag, spec: &ClusterSpec, steps: usize, seed: u64) -> SimState {
    let mut sim = SimState::new(dag, spec).expect("fits");
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        if sim.is_terminal(dag) {
            break;
        }
        let legal = sim.legal_actions(dag);
        sim.apply(dag, legal[rng.gen_range(0..legal.len())])
            .expect("legal");
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every feature is finite and within [0, 1] on every reachable state.
    #[test]
    fn features_are_bounded(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
        steps in 0usize..40,
        walk_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let fz = Featurizer::new(FeatureConfig::small(2));
        let state = random_state(&dag, &spec, steps, walk_seed);
        if state.is_terminal(&dag) {
            return Ok(());
        }
        let view = fz.featurize(&dag, &spec, &state, &gf);
        prop_assert_eq!(view.features.len(), fz.config().input_dim());
        for (i, &f) in view.features.iter().enumerate() {
            prop_assert!(f.is_finite(), "feature {} not finite", i);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&f), "feature {} = {} out of range", i, f);
        }
    }

    /// The mask marks exactly the network actions whose simulator
    /// counterpart is legal.
    #[test]
    fn mask_agrees_with_simulator(
        num_tasks in 1usize..20,
        dag_seed in any::<u64>(),
        steps in 0usize..30,
        walk_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let fz = Featurizer::new(FeatureConfig::small(2));
        let state = random_state(&dag, &spec, steps, walk_seed);
        if state.is_terminal(&dag) {
            return Ok(());
        }
        let view = fz.featurize(&dag, &spec, &state, &gf);
        let legal = state.legal_actions(&dag);
        // Process legality agrees.
        prop_assert_eq!(
            view.mask[fz.config().process_action()],
            legal.contains(&Action::Process)
        );
        // Slot legality agrees with the simulator for the slot's task.
        for (slot, task) in view.slot_tasks.iter().enumerate() {
            match task {
                Some(t) => prop_assert_eq!(
                    view.mask[slot],
                    legal.contains(&Action::Place(*t, 0)),
                    "slot {} task {}", slot, t
                ),
                None => prop_assert!(!view.mask[slot], "empty slot {} marked legal", slot),
            }
        }
        // In non-terminal states the network always has a move.
        prop_assert!(view.mask.iter().any(|&m| m));
    }

    /// Slot tasks are distinct ready tasks, ordered by non-increasing
    /// b-level.
    #[test]
    fn slots_are_distinct_ready_and_ordered(
        num_tasks in 1usize..25,
        dag_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let fz = Featurizer::new(FeatureConfig::small(2));
        let state = SimState::new(&dag, &spec).unwrap();
        let view = fz.featurize(&dag, &spec, &state, &gf);
        let filled: Vec<_> = view.slot_tasks.iter().flatten().copied().collect();
        for w in filled.windows(2) {
            prop_assert!(gf.task(w[0]).b_level >= gf.task(w[1]).b_level);
        }
        let mut dedup = filled.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), filled.len(), "duplicate slot task");
        for t in filled {
            prop_assert!(state.ready().contains(&t));
        }
    }

    /// The rank-indexed visible window equals the full sort's prefix, and
    /// every slot's mask equals `SimState::can_schedule`, on every regime
    /// at once: one job or a stream of arriving jobs (`new_multi`), on one
    /// machine or on 2–3 machines in either transfer mode, over DAGs of 1
    /// to 300 tasks — so the rank bitset spans one to five words, the
    /// last past the on-stack ones — with many tied b-levels and child
    /// counts (two layers, runtimes in 1..=3, 1–3 parents per bottom
    /// task), and windows narrower and wider than the ready set. Every
    /// state along a random walk is checked.
    #[test]
    fn visible_window_matches_the_full_sort(
        tasks in 1usize..301,
        jobs in 1usize..4,
        machines in 1usize..4,
        via_master in any::<bool>(),
        dag_seed in any::<u64>(),
        max_ready in 0usize..20,
        steps in 0usize..120,
        walk_seed in any::<u64>(),
    ) {
        use spear_cluster::{JobQueue, MachineSet, TransferMode};
        use spear_dag::{DagBuilder, ResourceVec, Task};
        let mut rng = StdRng::seed_from_u64(dag_seed);
        let jobs = jobs.min(tasks);
        let mut stream = Vec::new();
        for j in 0..jobs {
            let size = tasks / jobs + usize::from(j < tasks % jobs);
            let mut b = DagBuilder::new(2);
            let task = |rng: &mut StdRng| {
                Task::new(rng.gen_range(1..=3), ResourceVec::splat(2, 0.05))
            };
            let tops: Vec<_> = (0..size.div_ceil(2))
                .map(|_| b.add_task(task(&mut rng)))
                .collect();
            for _ in tops.len()..size {
                let bottom = b.add_task(task(&mut rng));
                for _ in 0..rng.gen_range(1usize..4) {
                    let top = tops[rng.gen_range(0..tops.len())];
                    let _ = b.add_edge(top, bottom);
                }
            }
            stream.push((rng.gen_range(0u64..20) * j as u64, b.build().unwrap()));
        }
        let queue = JobQueue::new(stream).unwrap();
        let dag = queue.union_dag();
        let mode = if via_master { TransferMode::ViaMaster } else { TransferMode::Direct };
        let spec = if machines == 1 {
            ClusterSpec::unit(2)
        } else {
            let capacity = ResourceVec::splat(2, 1.0);
            let set = MachineSet::uniform(machines, capacity, 2, mode, dag_seed, 16).unwrap();
            ClusterSpec::hetero(set).unwrap()
        };
        let gf = GraphFeatures::compute(dag);
        let fz = Featurizer::new(FeatureConfig { max_ready, ..FeatureConfig::small(2) });
        let mut state = SimState::new_multi(&queue, &spec).unwrap();
        let mut walk = StdRng::seed_from_u64(walk_seed);
        for _ in 0..=steps {
            let mut full = state.ready().to_vec();
            full.sort_by_key(|&t| {
                let f = gf.task(t);
                (std::cmp::Reverse(f.b_level), std::cmp::Reverse(f.children), t)
            });
            full.truncate(max_ready);
            prop_assert_eq!(fz.visible_ready(&state, &gf), full);
            let view = fz.featurize(dag, &spec, &state, &gf);
            for (slot, task) in view.slot_tasks.iter().enumerate() {
                let legal = task.is_some_and(|t| state.can_schedule(dag, t));
                prop_assert_eq!(view.mask[slot], legal, "slot {} task {:?}", slot, task);
            }
            let legal = state.legal_actions(dag);
            if legal.is_empty() {
                break;
            }
            state.apply(dag, legal[walk.gen_range(0..legal.len())]).expect("legal");
        }
    }

    /// A freshly initialized policy drives any job to completion with only
    /// legal actions (the masked sampler never escapes the simulator's
    /// rules).
    #[test]
    fn untrained_policy_completes_any_job(
        num_tasks in 1usize..18,
        dag_seed in any::<u64>(),
        net_seed in any::<u64>(),
    ) {
        let dag = random_dag(num_tasks, dag_seed);
        let spec = ClusterSpec::unit(2);
        let mut rng = StdRng::seed_from_u64(net_seed);
        let mut policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        let ep = spear_rl::run_episode(
            &mut policy,
            &dag,
            &spec,
            spear_rl::SelectionMode::Sample,
            false,
            &mut rng,
        )
        .unwrap();
        prop_assert!(ep.makespan >= dag.critical_path_length());
        prop_assert!(ep.makespan <= dag.total_work());
    }
}
