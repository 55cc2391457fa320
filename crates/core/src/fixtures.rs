//! Hand-built example jobs, including a reconstruction of the paper's
//! motivating example (Fig. 3).

use spear_cluster::ClusterSpec;
use spear_dag::{Dag, DagBuilder, ResourceVec, Task, TaskId};

/// The task ids of [`motivating_dag`], named per the figure's roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotivatingTasks {
    /// The small gate task that must finish before the memory-heavy task
    /// becomes ready.
    pub gate: TaskId,
    /// The CPU-dominant long task.
    pub cpu_heavy: TaskId,
    /// The memory-dominant long task (child of `gate`).
    pub mem_heavy: TaskId,
    /// Two balanced long tasks that only pack with each other.
    pub balanced: [TaskId; 2],
    /// Three small filler tasks.
    pub fillers: [TaskId; 3],
}

/// A reconstruction of the paper's Fig. 3 motivating example: an 8-task
/// job on a unit `[CPU, memory]` cluster where only a scheduler that
/// *searches* (instead of committing greedily) reaches the optimal
/// makespan.
///
/// Construction (T = 10 time slots):
///
/// * `cpu_heavy` (runtime T, demand `[0.90, 0.05]`) and `mem_heavy`
///   (T, `[0.05, 0.90]`) fit **together** but not with the balanced tasks;
/// * `balanced[0..2]` (T, `[0.45, 0.45]` each) fit **only with each
///   other**;
/// * `mem_heavy` is gated behind `gate` (runtime T/2), so at time 0 a
///   greedy packer sees only `cpu_heavy` and the balanced pair — and the
///   alignment score (Tetris), runtime (SJF) and b-level (CP) all point at
///   the *wrong* choice;
/// * three tiny `fillers` pad the task count to the figure's eight.
///
/// The optimal schedule runs the balanced pair plus the gate first, then
/// the cpu/mem pair: makespan `2T`. Greedy baselines start `cpu_heavy` at
/// time 0, strand the balanced pair, and finish at `2.5T` — Spear's ≈20%
/// improvement.
///
/// ```
/// use spear::fixtures;
/// let (dag, spec, _) = fixtures::motivating_example();
/// assert_eq!(dag.len(), 8);
/// assert_eq!(fixtures::motivating_optimal_makespan(), 20);
/// ```
pub fn motivating_dag() -> (Dag, MotivatingTasks) {
    let mut b = DagBuilder::new(2);
    let tiny = ResourceVec::from_slice(&[0.02, 0.02]);
    let gate = b.add_task(Task::new(5, tiny.clone()).with_name("gate"));
    let cpu_heavy =
        b.add_task(Task::new(10, ResourceVec::from_slice(&[0.90, 0.05])).with_name("cpu-heavy"));
    let mem_heavy =
        b.add_task(Task::new(10, ResourceVec::from_slice(&[0.05, 0.90])).with_name("mem-heavy"));
    let balanced0 =
        b.add_task(Task::new(10, ResourceVec::from_slice(&[0.45, 0.45])).with_name("balanced-0"));
    let balanced1 =
        b.add_task(Task::new(10, ResourceVec::from_slice(&[0.45, 0.45])).with_name("balanced-1"));
    let fillers = [
        b.add_task(Task::new(5, tiny.clone()).with_name("filler-0")),
        b.add_task(Task::new(5, tiny.clone()).with_name("filler-1")),
        b.add_task(Task::new(5, tiny).with_name("filler-2")),
    ];
    b.add_edge(gate, mem_heavy)
        .expect("gate and mem_heavy exist");
    let dag = b.build().expect("fixture is a valid DAG");
    (
        dag,
        MotivatingTasks {
            gate,
            cpu_heavy,
            mem_heavy,
            balanced: [balanced0, balanced1],
            fillers,
        },
    )
}

/// The motivating DAG together with its unit cluster.
pub fn motivating_example() -> (Dag, ClusterSpec, MotivatingTasks) {
    let (dag, tasks) = motivating_dag();
    (dag, ClusterSpec::unit(2), tasks)
}

/// The optimal makespan of [`motivating_dag`] on the unit cluster: `2T`
/// (= 20 slots). Proof sketch: total CPU load ≥ 1.9·T, so 2T is a lower
/// bound given the pairing constraints; the schedule *balanced pair +
/// gate + fillers at 0, cpu/mem pair at T* achieves it.
pub fn motivating_optimal_makespan() -> u64 {
    20
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_cluster::{Action, SimState};

    #[test]
    fn fixture_shape() {
        let (dag, tasks) = motivating_dag();
        assert_eq!(dag.len(), 8);
        assert_eq!(dag.edges().len(), 1);
        assert_eq!(dag.parents(tasks.mem_heavy), &[tasks.gate]);
        assert_eq!(dag.task(tasks.cpu_heavy).runtime(), 10);
    }

    #[test]
    fn pairing_constraints_hold() {
        let (dag, tasks) = motivating_dag();
        let cap = ResourceVec::from_slice(&[1.0, 1.0]);
        let cpu = dag.task(tasks.cpu_heavy).demand();
        let mem = dag.task(tasks.mem_heavy).demand();
        let bal = dag.task(tasks.balanced[0]).demand();
        // cpu+mem fit; bal+bal fit; cpu+bal and mem+bal do not.
        assert!(cpu.add(mem).fits_within(&cap));
        assert!(bal.add(bal).fits_within(&cap));
        assert!(!cpu.add(bal).fits_within(&cap));
        assert!(!mem.add(bal).fits_within(&cap));
    }

    /// Manually drive the optimal schedule to verify the claimed optimum
    /// is achievable.
    #[test]
    fn optimal_schedule_is_achievable() {
        let (dag, spec, tasks) = motivating_example();
        let mut sim = SimState::new(&dag, &spec).unwrap();
        // t=0: balanced pair + gate + fillers.
        for t in [
            tasks.balanced[0],
            tasks.balanced[1],
            tasks.gate,
            tasks.fillers[0],
            tasks.fillers[1],
            tasks.fillers[2],
        ] {
            sim.apply(&dag, Action::Place(t, 0)).unwrap();
        }
        // Process to t=5 (gate/fillers done), then to t=10 (balanced done).
        sim.apply(&dag, Action::Process).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.clock(), 10);
        // t=10: the cpu/mem pair co-runs.
        sim.apply(&dag, Action::Place(tasks.cpu_heavy, 0)).unwrap();
        sim.apply(&dag, Action::Place(tasks.mem_heavy, 0)).unwrap();
        sim.apply(&dag, Action::Process).unwrap();
        assert_eq!(sim.makespan(), Some(motivating_optimal_makespan()));
    }
}
