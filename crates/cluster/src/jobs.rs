//! Job arrival queues and per-job completion-time accounting.
//!
//! A [`JobQueue`] freezes a stream of `(arrival_time, DAG)` pairs into one
//! *union DAG* — every job's tasks concatenated with shifted ids, no edges
//! between jobs — plus the arrival metadata the simulator needs to gate
//! each job's sources until its arrival time. The union view is what lets
//! the whole scheduler stack run unchanged: the frontier of a
//! [`SimState`] is simply the union of the per-job frontiers of the
//! *arrived* jobs, so `legal_actions_into`/`apply_legal` and everything
//! above them (baselines, MCTS, the DRL featurizer) operate on one DAG.
//! The paper's setting — one DAG — is the one-job queue
//! ([`JobQueue::single`]) that arrives at time 0.
//!
//! Scoring changes with the regime: a shared cluster is judged on *job
//! completion time* (JCT), not one makespan. [`JctReport`] carries per-job
//! arrival/finish/JCT rows plus the aggregate statistics the paper's
//! comparison points (Decima, Graphene — see PAPERS.md) report: mean, p50
//! and p99 JCT, and an unfairness measure defined as the spread
//! `max − min` of per-job *slowdowns* (JCT divided by the job's
//! zero-contention lower bound, its critical-path length).

use serde::{Deserialize, Serialize};
use spear_dag::{Dag, DagBuilder, DagError, TaskId, MAX_TOTAL_RUNTIME};

use crate::{ClusterError, Placement, Schedule, SimState, SpearError};

/// One job's task range inside the union DAG, plus its arrival metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpan {
    /// Queue index of the job (jobs are sorted by arrival time).
    pub job: usize,
    /// Time slot at which the job becomes schedulable.
    pub arrival: u64,
    /// Index of the job's first task in the union DAG.
    pub first_task: usize,
    /// Number of tasks in the job.
    pub tasks: usize,
    /// The job's critical-path length — its JCT lower bound on an
    /// unloaded cluster, and the denominator of its slowdown.
    pub ideal: u64,
}

/// A frozen stream of jobs arriving at a shared cluster.
///
/// Construction sorts the jobs by arrival time (ties keep submission
/// order), concatenates their DAGs into one union DAG with disjoint id
/// ranges, and records per-job [`JobSpan`]s. The queue is immutable: the
/// *simulation-time* arrival bookkeeping (which jobs have been injected)
/// lives in [`SimState`], so search-tree clones stay cheap.
///
/// ```
/// use spear_dag::{DagBuilder, ResourceVec, Task};
/// use spear_cluster::JobQueue;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = || {
///     let mut b = DagBuilder::new(1);
///     b.add_task(Task::new(2, ResourceVec::from_slice(&[0.4])));
///     b.build()
/// };
/// let queue = JobQueue::new(vec![(0, job()?), (5, job()?)])?;
/// assert_eq!(queue.jobs(), 2);
/// assert_eq!(queue.union_dag().len(), 2);
/// assert_eq!(queue.span(1).arrival, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobQueue {
    union: Dag,
    spans: Vec<JobSpan>,
    /// The original per-job DAGs (arrival order), for per-job validation.
    job_dags: Vec<Dag>,
}

impl JobQueue {
    /// Freezes `jobs` into an arrival-sorted queue over one union DAG.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Empty`] (as [`SpearError::Dag`]) for an empty
    /// job list, [`DagError::DimensionMismatch`] if the jobs disagree
    /// on resource dimensionality, and [`ClusterError::ArrivalTooLate`]
    /// for an arrival past [`MAX_TOTAL_RUNTIME`].
    pub fn new(mut jobs: Vec<(u64, Dag)>) -> Result<Self, SpearError> {
        jobs.sort_by_key(|&(arrival, _)| arrival);
        let Some(&(last_arrival, _)) = jobs.last() else {
            return Err(DagError::Empty.into());
        };
        if last_arrival > MAX_TOTAL_RUNTIME {
            return Err(ClusterError::ArrivalTooLate(last_arrival).into());
        }
        let dims = jobs[0].1.dims();
        let mut builder = DagBuilder::new(dims);
        let mut spans = Vec::with_capacity(jobs.len());
        let mut offset = 0usize;
        for (job, (arrival, dag)) in jobs.iter().enumerate() {
            for task in dag.tasks() {
                builder.add_task(task.clone());
            }
            for edge in dag.edges() {
                let from = TaskId::new(offset + edge.from.index());
                let to = TaskId::new(offset + edge.to.index());
                builder
                    .add_edge(from, to)
                    .expect("per-job edges are valid and id-shifted disjointly");
            }
            spans.push(JobSpan {
                job,
                arrival: *arrival,
                first_task: offset,
                tasks: dag.len(),
                ideal: dag.critical_path_length(),
            });
            offset += dag.len();
        }
        let union = builder.build()?;
        Ok(JobQueue {
            union,
            spans,
            job_dags: jobs.into_iter().map(|(_, dag)| dag).collect(),
        })
    }

    /// Wraps a single already-built DAG as a one-job queue arriving at
    /// time 0 — the stream every single-DAG entry point schedules. Its
    /// initial state equals [`SimState::new`] on `dag`.
    pub fn single(dag: Dag) -> Result<Self, SpearError> {
        JobQueue::new(vec![(0, dag)])
    }

    /// Number of jobs in the queue.
    pub fn jobs(&self) -> usize {
        self.spans.len()
    }

    /// The union DAG every scheduler operates on.
    pub fn union_dag(&self) -> &Dag {
        &self.union
    }

    /// The per-job spans, sorted by arrival time.
    pub fn spans(&self) -> &[JobSpan] {
        &self.spans
    }

    /// The span of job `job` (queue order).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn span(&self, job: usize) -> &JobSpan {
        &self.spans[job]
    }

    /// The original DAG of job `job` (queue order).
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn job_dag(&self, job: usize) -> &Dag {
        &self.job_dags[job]
    }

    /// The job a union-DAG task belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for the union DAG.
    pub fn job_of(&self, task: TaskId) -> usize {
        assert!(task.index() < self.union.len(), "task out of range");
        self.spans.partition_point(|s| s.first_task <= task.index()) - 1
    }

    /// Splits a union-DAG schedule into per-job schedules with job-local
    /// task ids and *absolute* start times (so cross-job contention gaps
    /// are visible). Each per-job schedule's makespan is the finish time
    /// of that job's last task.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is missing a placement for some task — split
    /// complete (terminal) schedules only.
    pub fn per_job_schedules(&self, schedule: &Schedule) -> Vec<Schedule> {
        self.spans
            .iter()
            .map(|span| {
                let mut placements = Vec::with_capacity(span.tasks);
                let mut makespan = 0;
                for local in 0..span.tasks {
                    let p = schedule
                        .placement_of(TaskId::new(span.first_task + local))
                        .expect("complete schedule places every union task");
                    makespan = makespan.max(p.finish);
                    placements.push(Placement {
                        task: TaskId::new(local),
                        start: p.start,
                        finish: p.finish,
                        machine: p.machine,
                    });
                }
                Schedule::from_placements(placements, makespan)
            })
            .collect()
    }

    /// Per-job completion-time report of a complete union schedule.
    pub fn jct_report(&self, schedule: &Schedule) -> JctReport {
        self.report_from_finishes(None, |task| schedule.placement_of(task).map(|p| p.finish))
    }

    /// Per-job completion-time report of a (possibly horizon-truncated)
    /// simulation state. A job counts as completed once all of its tasks
    /// are *scheduled* — their finish times are then determined even if
    /// the clock has not yet reached them; jobs with unscheduled tasks are
    /// tallied as `unfinished` and contribute a clock-censored slowdown
    /// lower bound to [`JctReport::unfairness`]. Under fault injection a
    /// task's finish accounts for its straggler-stretched occupancy, and
    /// failed (retracted) attempts leave the task unscheduled again.
    pub fn jct_report_partial(&self, state: &SimState) -> JctReport {
        self.report_from_finishes(Some(state.clock()), |task| {
            state
                .start_of(task)
                .map(|start| start + state.run_slots_of(&self.union, task))
        })
    }

    /// `censor` is the observation clock of a truncated episode: each
    /// unfinished job contributes the slowdown lower bound
    /// `max(ideal, censor − arrival) / ideal` (it has provably waited that
    /// long). `None` (complete-schedule reports) falls back to the neutral
    /// bound `1.0`.
    fn report_from_finishes<F: Fn(TaskId) -> Option<u64>>(
        &self,
        censor: Option<u64>,
        finish_of: F,
    ) -> JctReport {
        let mut completions = Vec::with_capacity(self.spans.len());
        let mut unfinished = 0usize;
        let mut censored_slowdowns = Vec::new();
        for span in &self.spans {
            let mut finish = 0u64;
            let mut complete = true;
            for local in 0..span.tasks {
                let task = TaskId::new(span.first_task + local);
                match finish_of(task) {
                    Some(end) => finish = finish.max(end),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            let ideal = span.ideal.max(1);
            if !complete {
                unfinished += 1;
                let lower = match censor {
                    Some(clock) => ideal.max(clock.saturating_sub(span.arrival)),
                    None => ideal,
                };
                censored_slowdowns.push(lower as f64 / ideal as f64);
                continue;
            }
            let jct = finish - span.arrival;
            completions.push(JobCompletion {
                job: span.job,
                arrival: span.arrival,
                finish,
                jct,
                slowdown: jct as f64 / ideal as f64,
            });
        }
        JctReport {
            completions,
            unfinished,
            censored_slowdowns,
        }
    }
}

/// One completed job's timing in a [`JctReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobCompletion {
    /// Queue index of the job.
    pub job: usize,
    /// Arrival time slot.
    pub arrival: u64,
    /// Finish time of the job's last task.
    pub finish: u64,
    /// Job completion time: `finish - arrival`.
    pub jct: u64,
    /// `jct` divided by the job's critical-path length — 1.0 is the
    /// zero-contention optimum for a sufficiently wide cluster.
    pub slowdown: f64,
}

/// Per-job completion-time statistics of an episode.
///
/// Percentiles use the nearest-rank definition (the smallest recorded JCT
/// with at least `p`% of jobs at or below it), so they are exact recorded
/// values, not interpolations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JctReport {
    completions: Vec<JobCompletion>,
    unfinished: usize,
    /// Slowdown lower bounds of the unfinished jobs (censored at the
    /// observation clock), parallel to nothing — one entry per unfinished
    /// job, in queue order.
    #[serde(default)]
    censored_slowdowns: Vec<f64>,
}

impl JctReport {
    /// Per-job rows, in queue (arrival) order.
    pub fn completions(&self) -> &[JobCompletion] {
        &self.completions
    }

    /// Jobs whose tasks were not all scheduled (non-zero only for
    /// horizon-truncated episodes).
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Censored slowdown lower bounds of the unfinished jobs (queue
    /// order): each has provably waited `clock − arrival` slots already,
    /// so its eventual slowdown is at least that over its ideal.
    pub fn censored_slowdowns(&self) -> &[f64] {
        &self.censored_slowdowns
    }

    /// Mean JCT over completed jobs; `None` if no job completed (a
    /// horizon-truncated run where nothing finished has no JCT sample, not
    /// a perfect one).
    pub fn mean_jct(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        let total: u64 = self.completions.iter().map(|c| c.jct).sum();
        Some(total as f64 / self.completions.len() as f64)
    }

    /// Nearest-rank percentile of the JCT distribution; `p` must lie in
    /// `(0, 100]` (debug-asserted). `None` if no job completed.
    pub fn percentile_jct(&self, p: f64) -> Option<u64> {
        debug_assert!(
            p > 0.0 && p <= 100.0,
            "percentile {p} outside the nearest-rank domain (0, 100]"
        );
        if self.completions.is_empty() {
            return None;
        }
        let mut jcts: Vec<u64> = self.completions.iter().map(|c| c.jct).collect();
        jcts.sort_unstable();
        let rank = ((p / 100.0) * jcts.len() as f64).ceil() as usize;
        Some(jcts[rank.clamp(1, jcts.len()) - 1])
    }

    /// Median (p50, nearest-rank) JCT; `None` if no job completed.
    pub fn p50_jct(&self) -> Option<u64> {
        self.percentile_jct(50.0)
    }

    /// Tail (p99, nearest-rank) JCT; `None` if no job completed.
    pub fn p99_jct(&self) -> Option<u64> {
        self.percentile_jct(99.0)
    }

    /// Unfairness: the spread `max − min` of per-job slowdowns, folding in
    /// the censored lower bounds of unfinished jobs (a scheduler that
    /// starves a job under a horizon must not look *fairer* for it). Zero
    /// when fewer than two jobs contribute — and for a perfectly fair
    /// scheduler, however loaded the cluster.
    pub fn unfairness(&self) -> f64 {
        let points = self
            .completions
            .iter()
            .map(|c| c.slowdown)
            .chain(self.censored_slowdowns.iter().copied());
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in points {
            count += 1;
            min = min.min(s);
            max = max.max(s);
        }
        if count < 2 {
            return 0.0;
        }
        max - min
    }
}

/// Simulation-time arrival bookkeeping of an episode, embedded in every
/// [`SimState`]. A bare DAG is the one-job queue that arrives at time 0.
///
/// Only [`JobLedger::next_arrival`] mutates during an episode; the
/// arrival/bound tables are per-episode constants, cloned (and reused via
/// `clone_from`) with the state so search-tree snapshots need no
/// back-reference to the queue.
#[derive(Debug, PartialEq)]
pub(crate) struct JobLedger {
    /// Arrival slot per job, non-decreasing (queue order).
    pub(crate) arrivals: Vec<u64>,
    /// Union-task index at which each job's block starts, plus a final
    /// sentinel equal to the union task count.
    pub(crate) bounds: Vec<u32>,
    /// Jobs injected into the frontier so far (a prefix of `arrivals`).
    pub(crate) next_arrival: usize,
}

// Manual `Clone` so `clone_from` reuses the interior vectors — the MCTS
// rollout scratch clones one state (including this) per rollout.
impl Clone for JobLedger {
    fn clone(&self) -> Self {
        JobLedger {
            arrivals: self.arrivals.clone(),
            bounds: self.bounds.clone(),
            next_arrival: self.next_arrival,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.arrivals.clone_from(&source.arrivals);
        self.bounds.clone_from(&source.bounds);
        self.next_arrival = source.next_arrival;
    }
}

impl JobLedger {
    /// Builds the initial bookkeeping for `queue`: nothing injected yet
    /// (the constructor of the state injects time-0 arrivals itself).
    pub(crate) fn new(queue: &JobQueue) -> Self {
        let mut bounds: Vec<u32> = queue.spans().iter().map(|s| s.first_task as u32).collect();
        bounds.push(queue.union_dag().len() as u32);
        JobLedger {
            arrivals: queue.spans().iter().map(|s| s.arrival).collect(),
            bounds,
            next_arrival: 0,
        }
    }

    /// The bookkeeping of a bare DAG of `tasks` tasks: one job arriving at
    /// time 0 — what [`JobLedger::new`] builds for `JobQueue::single`.
    pub(crate) fn single(tasks: usize) -> Self {
        JobLedger {
            arrivals: vec![0],
            bounds: vec![0, tasks as u32],
            next_arrival: 0,
        }
    }

    /// Number of jobs in the stream.
    #[inline]
    pub(crate) fn jobs(&self) -> usize {
        self.arrivals.len()
    }

    /// The job owning union-DAG task index `task`.
    #[inline]
    pub(crate) fn job_of(&self, task: usize) -> usize {
        self.bounds.partition_point(|&b| (b as usize) <= task) - 1
    }

    /// The union-task index range of job `job`.
    #[inline]
    pub(crate) fn job_range(&self, job: usize) -> std::ops::Range<usize> {
        self.bounds[job] as usize..self.bounds[job + 1] as usize
    }

    /// Arrival time of the next not-yet-injected job, if any.
    #[inline]
    pub(crate) fn next_arrival_time(&self) -> Option<u64> {
        self.arrivals.get(self.next_arrival).copied()
    }

    /// Jobs whose arrival the clock has not reached yet.
    #[inline]
    pub(crate) fn pending_jobs(&self) -> usize {
        self.arrivals.len() - self.next_arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_dag::{ResourceVec, Task};

    fn chain(runtimes: &[u64]) -> Dag {
        let mut b = DagBuilder::new(1);
        let ids: Vec<TaskId> = runtimes
            .iter()
            .map(|&r| b.add_task(Task::new(r, ResourceVec::from_slice(&[0.5]))))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn queue_sorts_by_arrival_and_shifts_ids() {
        let queue = JobQueue::new(vec![(7, chain(&[1, 1])), (2, chain(&[3]))]).unwrap();
        assert_eq!(queue.jobs(), 2);
        // Job order follows arrivals: the 3-slot chain first.
        assert_eq!(queue.span(0).arrival, 2);
        assert_eq!(queue.span(0).tasks, 1);
        assert_eq!(queue.span(1).arrival, 7);
        assert_eq!(queue.span(1).first_task, 1);
        let union = queue.union_dag();
        assert_eq!(union.len(), 3);
        // The second job's internal edge was shifted past the first job.
        assert_eq!(union.edges().len(), 1);
        assert_eq!(union.edges()[0].from, TaskId::new(1));
        assert_eq!(union.edges()[0].to, TaskId::new(2));
        assert_eq!(queue.job_of(TaskId::new(0)), 0);
        assert_eq!(queue.job_of(TaskId::new(2)), 1);
    }

    #[test]
    fn empty_queue_is_an_error() {
        assert!(JobQueue::new(Vec::new()).is_err());
    }

    #[test]
    fn arrivals_past_the_runtime_ceiling_are_rejected() {
        assert!(JobQueue::new(vec![(MAX_TOTAL_RUNTIME, chain(&[2]))]).is_ok());
        let late = vec![(0, chain(&[2])), (MAX_TOTAL_RUNTIME + 1, chain(&[3]))];
        assert_eq!(
            JobQueue::new(late).unwrap_err(),
            ClusterError::ArrivalTooLate(MAX_TOTAL_RUNTIME + 1).into()
        );
    }

    #[test]
    fn ideal_is_the_critical_path() {
        let queue = JobQueue::new(vec![(0, chain(&[2, 3]))]).unwrap();
        assert_eq!(queue.span(0).ideal, 5);
    }

    #[test]
    fn jct_report_from_schedule() {
        // Job 0 (arrival 0): one 2-slot task at t=0 → JCT 2, slowdown 1.
        // Job 1 (arrival 3): one 2-slot task at t=5 → JCT 4, slowdown 2.
        let queue = JobQueue::new(vec![(0, chain(&[2])), (3, chain(&[2]))]).unwrap();
        let schedule = Schedule::from_placements(
            vec![
                Placement::new(TaskId::new(0), 0, 2),
                Placement::new(TaskId::new(1), 5, 7),
            ],
            7,
        );
        let report = queue.jct_report(&schedule);
        assert_eq!(report.unfinished(), 0);
        assert_eq!(report.completions().len(), 2);
        assert_eq!(report.completions()[0].jct, 2);
        assert_eq!(report.completions()[1].jct, 4);
        assert!((report.mean_jct().unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(report.p50_jct(), Some(2));
        assert_eq!(report.p99_jct(), Some(4));
        assert!((report.unfairness() - 1.0).abs() < 1e-12);

        let per_job = queue.per_job_schedules(&schedule);
        assert_eq!(per_job.len(), 2);
        assert_eq!(per_job[1].placements()[0].task, TaskId::new(0));
        assert_eq!(per_job[1].placements()[0].start, 5);
        assert_eq!(per_job[1].makespan(), 7);
    }

    #[test]
    fn empty_report_statistics_are_absent_not_zero() {
        let report = JctReport {
            completions: Vec::new(),
            unfinished: 3,
            censored_slowdowns: vec![1.0, 2.5, 4.0],
        };
        assert_eq!(report.mean_jct(), None);
        assert_eq!(report.p50_jct(), None);
        assert_eq!(report.p99_jct(), None);
        // Censored bounds still witness unfairness among the starved jobs.
        assert!((report.unfairness() - 3.0).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the nearest-rank domain")]
    fn percentile_domain_is_debug_asserted() {
        let queue = JobQueue::new(vec![(0, chain(&[2]))]).unwrap();
        let schedule = Schedule::from_placements(vec![Placement::new(TaskId::new(0), 0, 2)], 2);
        let _ = queue.jct_report(&schedule).percentile_jct(0.0);
    }

    /// A report built from `jcts` in queue order.
    fn report_of(jcts: &[u64]) -> JctReport {
        JctReport {
            completions: jcts
                .iter()
                .enumerate()
                .map(|(job, &jct)| JobCompletion {
                    job,
                    arrival: 0,
                    finish: jct,
                    jct,
                    slowdown: 1.0,
                })
                .collect(),
            unfinished: 0,
            censored_slowdowns: Vec::new(),
        }
    }

    #[test]
    fn every_percentile_of_a_single_job_is_that_job() {
        // n = 1: rank = ceil(p/100) = 1 for every admissible p, and the
        // clamp must not push the rank out of the one-element array.
        let report = report_of(&[17]);
        for p in [0.01, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(report.percentile_jct(p), Some(17), "p = {p}");
        }
    }

    #[test]
    fn all_equal_jcts_collapse_every_percentile() {
        // Ties: whatever rank nearest-rank lands on, the value is the
        // same — no percentile may invent a different number.
        let report = report_of(&[8, 8, 8, 8, 8]);
        for p in [0.01, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(report.percentile_jct(p), Some(8), "p = {p}");
        }
        assert_eq!(report.mean_jct(), Some(8.0));
    }

    #[test]
    fn nearest_rank_p99_of_twenty_jobs_is_the_max() {
        // Nearest-rank property: for n = 20, rank(99%) = ceil(19.8) = 20,
        // so p99 must be the maximum recorded JCT — exactly, for any
        // distribution of values.
        let mut jcts = [
            3u64, 91, 14, 7, 7, 250, 1, 42, 42, 9, 88, 5, 63, 2, 17, 30, 11, 4, 6, 19,
        ];
        let report = JctReport {
            completions: jcts
                .iter()
                .enumerate()
                .map(|(job, &jct)| JobCompletion {
                    job,
                    arrival: 0,
                    finish: jct,
                    jct,
                    slowdown: 1.0,
                })
                .collect(),
            unfinished: 0,
            censored_slowdowns: Vec::new(),
        };
        jcts.sort_unstable();
        assert_eq!(report.p99_jct(), Some(jcts[19]));
        assert_eq!(report.percentile_jct(100.0), Some(jcts[19]));
        assert_eq!(report.percentile_jct(95.0), Some(jcts[18]));
        // Smallest admissible percentile maps to the minimum.
        assert_eq!(report.percentile_jct(0.01), Some(jcts[0]));
        // Nearest-rank percentiles are monotone in p.
        let mut prev = 0;
        for p in 1..=100 {
            let v = report.percentile_jct(p as f64).unwrap();
            assert!(v >= prev, "percentile dipped at p={p}");
            prev = v;
        }
    }

    #[test]
    fn starvation_increases_unfairness() {
        use crate::{Action, ClusterSpec, SimState};
        use spear_dag::ResourceVec;

        // Two identical one-task jobs, a cluster that fits only one at a
        // time. Run job 0 to completion and leave job 1 starved while the
        // clock sits at t=8 (job 0's task re-run horizon); the censored
        // bound for job 1 is (8 − 0)/2 = 4.0 against job 0's slowdown 1.0.
        let queue = JobQueue::new(vec![(0, chain(&[2, 2, 2, 2])), (0, chain(&[2]))]).unwrap();
        let spec = ClusterSpec::new(ResourceVec::from_slice(&[0.75])).unwrap();
        let mut sim = SimState::new_multi(&queue, &spec).unwrap();
        for local in 0..4 {
            sim.apply(queue.union_dag(), Action::Place(TaskId::new(local), 0))
                .unwrap();
            sim.apply(queue.union_dag(), Action::Process).unwrap();
        }
        assert_eq!(sim.clock(), 8);
        let report = queue.jct_report_partial(&sim);
        assert_eq!(report.unfinished(), 1);
        // Job 0: jct 8 over ideal 8 → slowdown 1.0. Job 1: censored at
        // clock 8 over ideal 2 → lower bound 4.0.
        assert_eq!(report.censored_slowdowns(), &[4.0]);
        assert!((report.unfairness() - 3.0).abs() < 1e-12);
        // The pre-fix accounting (completed jobs only) would have reported
        // a single-point spread of 0.0 — starvation made the run look
        // perfectly fair.
        assert_eq!(report.completions().len(), 1);
    }

    #[test]
    fn multi_job_bookkeeping_maps_tasks_to_jobs() {
        let queue = JobQueue::new(vec![(0, chain(&[1, 1])), (4, chain(&[2]))]).unwrap();
        let multi = JobLedger::new(&queue);
        assert_eq!(
            JobLedger::single(3),
            JobLedger::new(&JobQueue::single(chain(&[1, 1, 1])).unwrap())
        );
        assert_eq!(multi.jobs(), 2);
        assert_eq!(multi.job_of(0), 0);
        assert_eq!(multi.job_of(1), 0);
        assert_eq!(multi.job_of(2), 1);
        assert_eq!(multi.job_range(0), 0..2);
        assert_eq!(multi.job_range(1), 2..3);
        assert_eq!(multi.next_arrival_time(), Some(0));
        assert_eq!(multi.pending_jobs(), 2);
    }
}
