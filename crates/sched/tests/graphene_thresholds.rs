//! Hand-computed Graphene troublesome-set tests over the paper's four
//! runtime thresholds, plus a determinism property: the whole pipeline
//! (DAG generation seed → Graphene sweep → schedule) is a pure function
//! of its inputs, so rerunning it must reproduce the schedule bit for
//! bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spear_cluster::{ClusterSpec, JobQueue};
use spear_dag::generator::LayeredDagSpec;
use spear_dag::{Dag, DagBuilder, ResourceVec, Task, TaskId};
use spear_sched::{Graphene, GrapheneConfig, Scheduler};

fn ids(indices: &[usize]) -> Vec<TaskId> {
    indices.iter().map(|&i| TaskId::new(i)).collect()
}

/// A chain whose runtimes are chosen so each paper threshold cuts at a
/// different point. Max runtime is 10, so the cutoffs are exactly
/// 2 / 4 / 6 / 8.
///
/// | task | 0 | 1 | 2 | 3 | 4 | 5 | 6 |
/// |------|---|---|---|---|---|---|---|
/// | rt   | 10| 9 | 7 | 5 | 3 | 2 | 1 |
fn fixture() -> Dag {
    let mut b = DagBuilder::new(2);
    let runtimes = [10u64, 9, 7, 5, 3, 2, 1];
    let tasks: Vec<TaskId> = runtimes
        .iter()
        .map(|&rt| b.add_task(Task::new(rt, ResourceVec::from_slice(&[0.3, 0.2]))))
        .collect();
    // A light dependency spine (0→2→4→6) keeps this a real DAG without
    // constraining which tasks are troublesome.
    b.add_edge(tasks[0], tasks[2]).unwrap();
    b.add_edge(tasks[2], tasks[4]).unwrap();
    b.add_edge(tasks[4], tasks[6]).unwrap();
    b.build().unwrap()
}

#[test]
fn troublesome_sets_match_hand_computation_at_each_threshold() {
    let dag = fixture();
    let spec = ClusterSpec::unit(2);
    let g = Graphene::new();
    assert_eq!(dag.max_runtime(), 10);

    // threshold 0.2 → cutoff 2: everything with runtime ≥ 2.
    assert_eq!(
        g.troublesome_tasks(&dag, &spec, 0.2),
        ids(&[0, 1, 2, 3, 4, 5])
    );
    // threshold 0.4 → cutoff 4: runtimes 10, 9, 7, 5.
    assert_eq!(g.troublesome_tasks(&dag, &spec, 0.4), ids(&[0, 1, 2, 3]));
    // threshold 0.6 → cutoff 6: runtimes 10, 9, 7.
    assert_eq!(g.troublesome_tasks(&dag, &spec, 0.6), ids(&[0, 1, 2]));
    // threshold 0.8 → cutoff 8: runtimes 10, 9.
    assert_eq!(g.troublesome_tasks(&dag, &spec, 0.8), ids(&[0, 1]));
}

#[test]
fn boundary_runtime_is_troublesome() {
    // `runtime >= threshold × max` is inclusive: a task exactly at the
    // cutoff belongs to the troublesome set.
    let mut b = DagBuilder::new(1);
    b.add_task(Task::new(10, ResourceVec::from_slice(&[0.5])));
    b.add_task(Task::new(4, ResourceVec::from_slice(&[0.5])));
    let dag = b.build().unwrap();
    let spec = ClusterSpec::unit(1);
    let g = Graphene::new();
    assert_eq!(g.troublesome_tasks(&dag, &spec, 0.4), ids(&[0, 1]));
    // Just above the boundary excludes it.
    assert_eq!(g.troublesome_tasks(&dag, &spec, 0.41), ids(&[0]));
}

#[test]
fn demand_threshold_widens_every_runtime_set() {
    let dag = fixture();
    let spec = ClusterSpec::unit(2);
    let plain = Graphene::new();
    let with_demand = Graphene::with_config(GrapheneConfig {
        runtime_thresholds: vec![0.2, 0.4, 0.6, 0.8],
        demand_threshold: Some(0.25),
    });
    for thr in [0.2, 0.4, 0.6, 0.8] {
        let a = plain.troublesome_tasks(&dag, &spec, thr);
        let b = with_demand.troublesome_tasks(&dag, &spec, thr);
        assert!(b.len() >= a.len(), "threshold {thr}");
        // Every fixture task has demand fraction 0.3 ≥ 0.25, so the
        // demand criterion marks all of them.
        assert_eq!(b.len(), dag.len(), "threshold {thr}");
    }
}

#[test]
fn winning_choice_comes_from_the_sweep() {
    let dag = LayeredDagSpec::paper_training().generate(&mut StdRng::seed_from_u64(17));
    let spec = ClusterSpec::unit(2);
    let queue = JobQueue::single(dag.clone()).unwrap();
    let (schedule, choice) = Graphene::new()
        .schedule_with_details(&queue, &spec)
        .unwrap();
    schedule.validate(&dag, &spec).unwrap();
    assert!([0.2, 0.4, 0.6, 0.8].contains(&choice.threshold));
    assert_eq!(
        choice.troublesome,
        Graphene::new()
            .troublesome_tasks(&dag, &spec, choice.threshold)
            .len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same generation seed ⇒ bit-identical Graphene schedule (the whole
    /// sweep is deterministic; there is no hidden RNG).
    #[test]
    fn graphene_is_deterministic(seed in 0u64..1_000, tasks in 6usize..24) {
        let gen = LayeredDagSpec { num_tasks: tasks, ..LayeredDagSpec::paper_training() };
        let dag_a = gen.generate(&mut StdRng::seed_from_u64(seed));
        let dag_b = gen.generate(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&dag_a, &dag_b);

        let spec = ClusterSpec::unit(2);
        let s1 = Graphene::new().schedule(&dag_a, &spec).unwrap();
        let s2 = Graphene::new().schedule(&dag_b, &spec).unwrap();
        prop_assert_eq!(&s1, &s2);
        s1.validate(&dag_a, &spec).unwrap();

        // The sweep never loses to any single threshold it contains.
        for thr in [0.2, 0.4, 0.6, 0.8] {
            let single = Graphene::with_config(GrapheneConfig {
                runtime_thresholds: vec![thr],
                demand_threshold: None,
            })
            .schedule(&dag_a, &spec)
            .unwrap();
            prop_assert!(s1.makespan() <= single.makespan());
        }
    }
}
