//! Fault sweep: the full scheduler roster under seeded failure/straggler
//! injection at execution time (EXPERIMENTS.md fault matrix).
//!
//! Every scheduler plans the same seeded multi-job arrival stream
//! **fault-free** — the fault model never touches the planner, so all ten
//! roster members run unchanged — then the one plan is executed under
//! deterministic fault plans at rates 0–20% (failure *and* straggler
//! probability, 1.5× slowdown, 3-retry budget). Reported per
//! (scheduler, rate): the realized makespan, the slowdown over the plan's
//! own makespan (a fault-free execution is the plan, so the 0% column is
//! the planned makespan), fault counters, and the realized mean JCT. A
//! task exhausting its retry budget is recorded as such — it is
//! deterministic in the seeds, like every other cell.

use serde::{Deserialize, Serialize};
use spear::dag::generator::LayeredDagSpec;
use spear::diffcheck::SchedulerKind;
use spear::{
    execute_under_faults, ArrivalProcess, ArrivalStreamSpec, ClusterError, FaultProfile, JobQueue,
    JobSource, Scheduler, SpearError,
};

use crate::report::{fmt_f, Table};
use crate::workload;
use crate::Scale;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Jobs in the arrival stream.
    pub jobs: usize,
    /// Tasks per job DAG.
    pub tasks_per_job: usize,
    /// Mean Poisson inter-arrival gap.
    pub mean_gap: f64,
    /// Fault rates swept (0.0 first — it is the slowdown baseline).
    pub rates: Vec<f64>,
    /// Straggler occupancy multiplier.
    pub straggler_factor: f64,
    /// Retry budget per task.
    pub max_retries: u32,
    /// Seed for the stream, the schedulers, and the fault plans.
    pub seed: u64,
}

impl Config {
    /// Scale-dependent defaults; both scales sweep the same rates.
    pub fn for_scale(scale: Scale) -> Self {
        let base = Config {
            jobs: 6,
            tasks_per_job: 8,
            mean_gap: 6.0,
            rates: vec![0.0, 0.01, 0.05, 0.10, 0.20],
            straggler_factor: 1.5,
            max_retries: 3,
            seed: 17,
        };
        match scale {
            Scale::Quick => base,
            Scale::Paper => Config {
                jobs: 20,
                tasks_per_job: 14,
                mean_gap: 8.0,
                ..base
            },
        }
    }
}

/// One (scheduler, rate) cell. A `None` realized makespan means the
/// rate's plan exhausted a task's retry budget — the episode failed
/// fast, deterministically in the seeds — and `exhausted_task` names the
/// culprit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Scheduler name ([`SchedulerKind::name`]).
    pub scheduler: String,
    /// Fault rate of this cell.
    pub rate: f64,
    /// Makespan of the fault-free *plan* (identical across the row).
    pub planned_makespan: u64,
    /// Realized makespan of the faulty execution (`None` on exhaustion).
    pub realized_makespan: Option<u64>,
    /// Realized over the planned makespan (1.0 at rate 0, where the run
    /// is the plan; `None` on exhaustion).
    pub slowdown: Option<f64>,
    /// Failed attempts injected before completion or exhaustion.
    pub failures: u64,
    /// Straggling attempts injected.
    pub straggles: u64,
    /// Realized mean JCT (`None` if no job completed or on exhaustion).
    pub mean_jct: Option<f64>,
    /// Jobs left unfinished (0 for a completed horizon-free episode).
    pub unfinished: usize,
    /// Union-DAG index of the task that exhausted its retry budget.
    pub exhausted_task: Option<usize>,
}

/// The sweep, row-major (scheduler-major, rates inner).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Runs the sweep: one fault-free plan per scheduler, executed under
/// every rate's plan.
///
/// # Panics
///
/// Panics if a roster scheduler fails to plan the stream or execution
/// fails with anything but deterministic retry exhaustion.
pub fn run(config: &Config) -> Outcome {
    let spec = workload::cluster();
    let stream = ArrivalStreamSpec {
        jobs: config.jobs,
        process: ArrivalProcess::Poisson {
            mean_gap: config.mean_gap,
        },
        source: JobSource::Layered(LayeredDagSpec {
            num_tasks: config.tasks_per_job,
            ..LayeredDagSpec::paper_simulation()
        }),
    }
    .generate(config.seed)
    .expect("layered job source is total");
    let queue = JobQueue::new(stream).expect("generated stream forms a valid queue");
    let mut cells = Vec::new();
    for kind in SchedulerKind::ALL {
        let mut scheduler: Box<dyn Scheduler> = kind.build(config.seed, spec.dims());
        let planned = scheduler
            .schedule_multi(&queue, &spec)
            .expect("roster scheduler plans the stream");
        for &rate in &config.rates {
            let profile = if rate == 0.0 {
                FaultProfile::none()
            } else {
                FaultProfile {
                    straggler_factor: config.straggler_factor,
                    max_retries: config.max_retries,
                    ..FaultProfile::with_rate(rate)
                }
            };
            let plan = profile.plan(config.seed);
            let mut cell = Cell {
                scheduler: kind.name().to_owned(),
                rate,
                planned_makespan: planned.makespan(),
                realized_makespan: None,
                slowdown: None,
                failures: 0,
                straggles: 0,
                mean_jct: None,
                unfinished: 0,
                exhausted_task: None,
            };
            match execute_under_faults(&queue, &spec, &planned, &plan, None) {
                Ok(faulty) => {
                    let realized = faulty.makespan;
                    cell.realized_makespan = Some(realized);
                    cell.slowdown = Some(realized as f64 / planned.makespan().max(1) as f64);
                    cell.failures = faulty.failures;
                    cell.straggles = faulty.straggles;
                    cell.mean_jct = faulty.report.mean_jct();
                    cell.unfinished = faulty.report.unfinished();
                }
                Err(SpearError::Cluster(ClusterError::RetriesExhausted { task, .. })) => {
                    cell.exhausted_task = Some(task.index());
                }
                Err(e) => panic!("fault execution failed for {}: {e}", kind.name()),
            }
            cells.push(cell);
        }
        eprintln!("[fault_sweep] {} done", kind.name());
    }
    Outcome { cells }
}

/// Renders the sweep: one row per scheduler, realized makespan per rate,
/// and the slowdown at the highest rate.
pub fn table(outcome: &Outcome, config: &Config) -> Table {
    let mut headers: Vec<String> = vec!["scheduler".into(), "planned".into()];
    for &rate in &config.rates {
        headers.push(format!("{:.0}%", 100.0 * rate));
    }
    let top = config.rates.last().copied().unwrap_or(0.0);
    headers.push(format!("slowdown@{:.0}%", 100.0 * top));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!(
            "Fault sweep — realized makespan, {} jobs x {} tasks, straggler {:.1}x, {} retries",
            config.jobs, config.tasks_per_job, config.straggler_factor, config.max_retries
        ),
        &header_refs,
    );
    for kind in SchedulerKind::ALL {
        let row_cells: Vec<&Cell> = outcome
            .cells
            .iter()
            .filter(|c| c.scheduler == kind.name())
            .collect();
        if row_cells.is_empty() {
            continue;
        }
        let mut row = vec![
            kind.name().to_owned(),
            row_cells[0].planned_makespan.to_string(),
        ];
        let mut top_slowdown = "n/a".to_owned();
        for cell in &row_cells {
            match (cell.realized_makespan, cell.exhausted_task) {
                (Some(realized), _) => {
                    row.push(realized.to_string());
                    if cell.rate == top {
                        top_slowdown = cell.slowdown.map_or("n/a".into(), |s| fmt_f(s, 2));
                    }
                }
                (None, Some(task)) => row.push(format!("exh(t{task})")),
                (None, None) => row.push("n/a".into()),
            }
        }
        row.push(top_slowdown);
        table.row(&row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_rate_zero_is_the_baseline() {
        let config = Config {
            jobs: 3,
            tasks_per_job: 5,
            rates: vec![0.0, 0.2],
            ..Config::for_scale(Scale::Quick)
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(
            serde_json::to_string(&a.cells).unwrap(),
            serde_json::to_string(&b.cells).unwrap()
        );
        for cell in a.cells.iter().filter(|c| c.rate == 0.0) {
            assert_eq!(cell.slowdown, Some(1.0), "{}", cell.scheduler);
            let planned = Some(cell.planned_makespan);
            assert_eq!(cell.realized_makespan, planned, "{}", cell.scheduler);
            assert_eq!(
                (cell.failures, cell.straggles),
                (0, 0),
                "{}",
                cell.scheduler
            );
            assert_eq!(cell.exhausted_task, None, "{}", cell.scheduler);
        }
        let table = table(&a, &config);
        assert_eq!(table.len(), SchedulerKind::ALL.len());
    }
}
