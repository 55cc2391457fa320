//! Finished schedules and their validation.

use serde::{Deserialize, Serialize};
use spear_dag::{Dag, TaskId};

use crate::{ClusterError, ClusterSpec};

/// The committed placement of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The placed task.
    pub task: TaskId,
    /// Start time slot (inclusive).
    pub start: u64,
    /// Finish time slot (exclusive): `start + runtime`.
    pub finish: u64,
    /// The machine the task occupies — always 0 on a single box, and
    /// defaulted to 0 when deserializing pre-hetero schedules.
    #[serde(default)]
    pub machine: u32,
}

impl Placement {
    /// A single-box placement (machine 0).
    pub fn new(task: TaskId, start: u64, finish: u64) -> Self {
        Placement {
            task,
            start,
            finish,
            machine: 0,
        }
    }
}

/// A complete schedule: one [`Placement`] per task plus the makespan.
///
/// Produced by [`SimState::into_schedule`](crate::SimState::into_schedule)
/// or assembled directly. [`Schedule::validate`] checks the three
/// correctness conditions every scheduler in this repository must satisfy:
/// complete placement, precedence feasibility and capacity feasibility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    placements: Vec<Placement>,
    makespan: u64,
}

impl Schedule {
    /// Assembles a schedule from placements (any order; they are sorted by
    /// task id internally).
    pub fn from_placements(mut placements: Vec<Placement>, makespan: u64) -> Self {
        placements.sort_by_key(|p| p.task);
        Schedule {
            placements,
            makespan,
        }
    }

    /// Placements sorted by task id.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The placement of `task`, if present.
    pub fn placement_of(&self, task: TaskId) -> Option<&Placement> {
        self.placements
            .binary_search_by_key(&task, |p| p.task)
            .ok()
            .map(|i| &self.placements[i])
    }

    /// The time the last task finishes.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Average cluster utilization over the makespan: occupied
    /// resource-time area divided by total capacity × makespan, averaged
    /// over dimensions. Between 0 and 1 for a valid schedule.
    pub fn utilization(&self, dag: &Dag, spec: &ClusterSpec) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let dims = spec.dims();
        let mut frac = 0.0;
        for r in 0..dims {
            let area: f64 = self
                .placements
                .iter()
                .map(|p| dag.task(p.task).load(r))
                .sum();
            frac += area / (spec.capacity()[r] * self.makespan as f64);
        }
        frac / dims as f64
    }

    /// Renders the schedule as an ASCII Gantt chart: one row per task
    /// (`#` = running), plus a per-slot utilization footer per resource
    /// dimension (`0`–`9` tenths of capacity). Time is downsampled to at
    /// most `max_width` columns.
    ///
    /// ```
    /// use spear_dag::{DagBuilder, Task, ResourceVec};
    /// use spear_cluster::{ClusterSpec, Schedule, Placement};
    /// # let mut b = DagBuilder::new(1);
    /// # let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])).with_name("map"));
    /// # let dag = b.build().unwrap();
    /// # let spec = ClusterSpec::unit(1);
    /// # let s = Schedule::from_placements(vec![Placement::new(a, 0, 2)], 2);
    /// let art = s.render_gantt(&dag, &spec, 40);
    /// assert!(art.contains("map"));
    /// assert!(art.contains("##"));
    /// ```
    pub fn render_gantt(&self, dag: &Dag, spec: &ClusterSpec, max_width: usize) -> String {
        use std::fmt::Write as _;
        let width = max_width.clamp(10, 400);
        let span = self.makespan.max(1);
        let slots_per_col = span.div_ceil(width as u64).max(1);
        let cols = span.div_ceil(slots_per_col) as usize;

        let label_width = dag
            .tasks()
            .iter()
            .enumerate()
            .map(|(i, t)| t.name().map_or(format!("t{i}").len(), str::len))
            .max()
            .unwrap_or(2)
            .min(16);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "makespan {span} slots, {} tasks ({} slots/column)",
            dag.len(),
            slots_per_col
        );
        for p in &self.placements {
            let name = dag
                .task(p.task)
                .name()
                .map_or_else(|| p.task.to_string(), str::to_owned);
            let _ = write!(out, "{name:>label_width$} ");
            for c in 0..cols {
                let t0 = c as u64 * slots_per_col;
                let t1 = t0 + slots_per_col;
                let ch = if p.start < t1 && p.finish > t0 {
                    '#'
                } else {
                    '.'
                };
                out.push(ch);
            }
            out.push('\n');
        }
        // Utilization footer per dimension.
        for r in 0..spec.dims() {
            let _ = write!(out, "{:>label_width$} ", format!("util[{r}]"));
            for c in 0..cols {
                let t0 = c as u64 * slots_per_col;
                let mut used = 0.0;
                for p in &self.placements {
                    if p.start <= t0 && p.finish > t0 {
                        used += dag.task(p.task).demand()[r];
                    }
                }
                let tenth = ((used / spec.capacity()[r]) * 10.0).round().clamp(0.0, 9.0);
                out.push(char::from_digit(tenth as u32, 10).expect("0..=9"));
            }
            out.push('\n');
        }
        out
    }

    /// Validates the schedule against the DAG and cluster.
    ///
    /// Checks, in order:
    ///
    /// 1. every task appears exactly once with duration equal to its
    ///    runtime, and the recorded makespan equals the latest finish;
    /// 2. every placement names an in-range machine (machine 0 on a
    ///    single box);
    /// 3. every task starts at or after each parent's finish plus the
    ///    transfer delay of the edge when parent and child ran on
    ///    different machines (re-derived here from the
    ///    [`MachineSet`](crate::MachineSet) alone, independent of the
    ///    simulator);
    /// 4. at every time slot the summed demand of running tasks fits the
    ///    aggregate cluster capacity — and each machine's individual
    ///    capacity.
    ///
    /// # Errors
    ///
    /// The corresponding [`ClusterError`] variant for the first violated
    /// condition.
    pub fn validate(&self, dag: &Dag, spec: &ClusterSpec) -> Result<(), ClusterError> {
        spec.validate_dag(dag)?;
        // 1. Completeness + durations.
        let mut seen = vec![false; dag.len()];
        for p in &self.placements {
            if p.task.index() >= dag.len() || seen[p.task.index()] {
                // Duplicate or out-of-range placements make the task set
                // incomplete for some other id; report the earliest gap.
                break;
            }
            seen[p.task.index()] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(ClusterError::MissingPlacement(TaskId::new(missing)));
        }
        let mut latest = 0;
        for p in &self.placements {
            if p.finish != p.start + dag.task(p.task).runtime() {
                return Err(ClusterError::WrongDuration(p.task));
            }
            latest = latest.max(p.finish);
        }
        if latest != self.makespan {
            // Report as a duration problem on the latest-finishing task.
            let worst = self
                .placements
                .iter()
                .max_by_key(|p| p.finish)
                .expect("non-empty dag has placements");
            return Err(ClusterError::WrongDuration(worst.task));
        }
        // 2. Machine indices.
        let machines = spec.machines();
        let num_machines = machines.len() as u32;
        for p in &self.placements {
            if p.machine >= num_machines {
                return Err(ClusterError::MachineOutOfRange {
                    task: p.task,
                    machine: p.machine,
                });
            }
        }
        // 3. Precedence + transfer gating.
        for e in dag.edges() {
            let parent = self
                .placement_of(e.from)
                .expect("completeness checked above");
            let child = self.placement_of(e.to).expect("completeness checked above");
            if child.start < parent.finish {
                return Err(ClusterError::PrecedenceViolation {
                    parent: e.from,
                    child: e.to,
                });
            }
            let delay =
                machines.edge_delay(e.from.index(), e.to.index(), parent.machine, child.machine);
            if child.start < parent.finish + delay {
                return Err(ClusterError::TransferViolation {
                    parent: e.from,
                    child: e.to,
                });
            }
        }
        // 4. Capacity, via event sweeps over start/finish boundaries.
        let intervals = self.placements.iter();
        spec.check_occupancy(
            dag,
            intervals.map(|p| (p.start, p.finish, p.task, p.machine)),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    fn chain() -> Dag {
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let c = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5])));
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::unit(1)
    }

    fn valid_schedule() -> Schedule {
        Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                Placement::new(TaskId::new(1), 2, 5),
            ],
            5,
        )
    }

    #[test]
    fn valid_schedule_passes() {
        valid_schedule().validate(&chain(), &spec()).unwrap();
    }

    #[test]
    fn detects_missing_placement() {
        let s = Schedule::from_placements(vec![Placement::new(TaskId::new(0), 0, 2)], 2);
        assert_eq!(
            s.validate(&chain(), &spec()).unwrap_err(),
            ClusterError::MissingPlacement(TaskId::new(1))
        );
    }

    #[test]
    fn detects_wrong_duration() {
        let s = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 3), // runtime is 2
                Placement::new(TaskId::new(1), 3, 6),
            ],
            6,
        );
        assert_eq!(
            s.validate(&chain(), &spec()).unwrap_err(),
            ClusterError::WrongDuration(TaskId::new(0))
        );
    }

    #[test]
    fn detects_wrong_makespan() {
        let s = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                Placement::new(TaskId::new(1), 2, 5),
            ],
            9,
        );
        assert!(matches!(
            s.validate(&chain(), &spec()).unwrap_err(),
            ClusterError::WrongDuration(_)
        ));
    }

    #[test]
    fn detects_precedence_violation() {
        let s = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                // Starts before the parent finishes.
                Placement::new(TaskId::new(1), 1, 4),
            ],
            4,
        );
        assert_eq!(
            s.validate(&chain(), &spec()).unwrap_err(),
            ClusterError::PrecedenceViolation {
                parent: TaskId::new(0),
                child: TaskId::new(1)
            }
        );
    }

    #[test]
    fn detects_capacity_violation() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        let dag = b.build().unwrap();
        let s = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                Placement::new(TaskId::new(1), 0, 2),
            ],
            2,
        );
        assert_eq!(
            s.validate(&dag, &spec()).unwrap_err(),
            ClusterError::CapacityViolation { time: 0, dim: 0 }
        );
    }

    #[test]
    fn back_to_back_tasks_are_allowed() {
        // Start exactly at another task's finish with full capacity.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[1.0])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[1.0])));
        let dag = b.build().unwrap();
        let s = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                Placement::new(TaskId::new(1), 2, 4),
            ],
            4,
        );
        s.validate(&dag, &spec()).unwrap();
    }

    #[test]
    fn utilization_of_serial_schedule() {
        let dag = chain();
        let s = valid_schedule();
        // Area = 2*0.5 + 3*0.5 = 2.5 over 5 slots of capacity 1 => 0.5.
        assert!((s.utilization(&dag, &spec()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn placement_lookup() {
        let s = valid_schedule();
        assert_eq!(s.placement_of(TaskId::new(1)).unwrap().start, 2);
        assert!(s.placement_of(TaskId::new(9)).is_none());
    }

    /// Two unit machines, bandwidth 1, `max_edge_bytes` 1: every
    /// cross-machine edge costs exactly one transfer slot.
    fn two_machine_spec() -> ClusterSpec {
        use crate::{MachineSet, TransferMode};
        let machines = MachineSet::uniform(
            2,
            ResourceVec::from_slice(&[1.0]),
            1,
            TransferMode::Direct,
            0,
            1,
        )
        .unwrap();
        ClusterSpec::hetero(machines).unwrap()
    }

    fn placed(task: usize, start: u64, finish: u64, machine: u32) -> Placement {
        let mut p = Placement::new(TaskId::new(task), start, finish);
        p.machine = machine;
        p
    }

    #[test]
    fn detects_machine_out_of_range() {
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 3, 6, 2)], 6);
        assert_eq!(
            s.validate(&chain(), &two_machine_spec()).unwrap_err(),
            ClusterError::MachineOutOfRange {
                task: TaskId::new(1),
                machine: 2
            }
        );
        // The single-box regime has exactly one machine, so even
        // machine 1 is out of range there.
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 2, 5, 1)], 5);
        assert_eq!(
            s.validate(&chain(), &spec()).unwrap_err(),
            ClusterError::MachineOutOfRange {
                task: TaskId::new(1),
                machine: 1
            }
        );
    }

    #[test]
    fn detects_transfer_violation_across_machines() {
        let spec = two_machine_spec();
        // Child starts at the parent's finish: legal on one machine,
        // one slot too early across the cross-machine link.
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 2, 5, 1)], 5);
        assert_eq!(
            s.validate(&chain(), &spec).unwrap_err(),
            ClusterError::TransferViolation {
                parent: TaskId::new(0),
                child: TaskId::new(1)
            }
        );
        // Waiting out the transfer slot makes it valid...
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 3, 6, 1)], 6);
        s.validate(&chain(), &spec).unwrap();
        // ...and co-located parent/child never pay a delay.
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 1), placed(1, 2, 5, 1)], 5);
        s.validate(&chain(), &spec).unwrap();
    }

    #[test]
    fn detects_per_machine_capacity_violation() {
        // Two 0.6 tasks overlap on machine 0: they fit the 2.0 aggregate
        // but overfill that machine's own 1.0 capacity.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        let dag = b.build().unwrap();
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 0, 2, 0)], 2);
        assert_eq!(
            s.validate(&dag, &two_machine_spec()).unwrap_err(),
            ClusterError::MachineCapacityViolation {
                machine: 0,
                time: 0,
                dim: 0
            }
        );
        // Spreading them across machines resolves the overload.
        let s = Schedule::from_placements(vec![placed(0, 0, 2, 0), placed(1, 0, 2, 1)], 2);
        s.validate(&dag, &two_machine_spec()).unwrap();
    }
}
