//! Fault-injection acceptance: the scheduler roster executing its plans
//! under seeded failures and stragglers, every realized run vetted by the
//! fault-aware tri-judge; the null-plan identity guarantee and the plans
//! it reproduces; deterministic retry exhaustion as a typed error; and the
//! fault × horizon interplay on multi-job arrival streams.

use spear::dag::generator::LayeredDagSpec;
use spear::diffcheck::{check_faulty_run, CaseSpec, SchedulerKind};
use spear::{
    execute_under_faults, ArrivalProcess, ArrivalStreamSpec, ClusterError, ClusterSpec, FaultPlan,
    FaultProfile, JobQueue, JobSource, Scheduler, SpearError,
};

/// A seeded single DAG: the one-job queue arriving at time 0.
fn single(num_tasks: usize, seed: u64) -> JobQueue {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let dag = LayeredDagSpec {
        num_tasks,
        ..LayeredDagSpec::paper_training()
    }
    .generate(&mut StdRng::seed_from_u64(seed));
    JobQueue::single(dag).unwrap()
}

fn stream_queue(jobs: usize, tasks_per_job: usize, seed: u64) -> JobQueue {
    let stream = ArrivalStreamSpec {
        jobs,
        process: ArrivalProcess::Poisson { mean_gap: 5.0 },
        source: JobSource::Layered(LayeredDagSpec {
            num_tasks: tasks_per_job,
            ..LayeredDagSpec::paper_training()
        }),
    }
    .generate(seed)
    .unwrap();
    JobQueue::new(stream).unwrap()
}

/// Every roster member's plan survives execution under a 10% seeded
/// failure/straggler rate, on the unit box and on three machines, and
/// the realized run passes all three fault-aware judges with every
/// attempt on its task's planned machine. The sweep as a whole must
/// actually draw faults — a silently fault-free "fault" test would prove
/// nothing.
#[test]
fn the_roster_survives_ten_percent_faults_and_passes_the_tri_judge() {
    let three = CaseSpec {
        machines: 3,
        ..CaseSpec::single(11, 14, 2, SchedulerKind::Tetris)
    };
    let queue = single(14, 11);
    let profile = FaultProfile {
        max_retries: 5,
        ..FaultProfile::with_rate(0.10)
    };
    let plan = profile.plan(11);
    let mut total_faults = 0;
    for (spec, kind) in [ClusterSpec::unit(2), three.cluster()]
        .iter()
        .flat_map(|spec| SchedulerKind::ALL.map(|kind| (spec, kind)))
    {
        let planned = kind.build(11, 2).schedule_multi(&queue, spec).unwrap();
        let run = execute_under_faults(&queue, spec, &planned, &plan, None)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let tri = check_faulty_run(&queue, spec, &planned, &plan, &run);
        assert!(tri.all_ok(), "{}: {}", kind.name(), tri.summary());
        assert_eq!(run.attempts.len(), queue.union_dag().len());
        let on = |t| planned.placement_of(t).map(|p| p.machine);
        assert!(run
            .schedule
            .placements()
            .iter()
            .all(|p| on(p.task) == Some(p.machine)));
        assert!(run
            .failed_runs
            .iter()
            .all(|f| on(f.task) == Some(f.machine)));
        total_faults += run.failures + run.straggles;
    }
    assert!(total_faults > 0, "the 10% sweep never drew a fault");
}

/// `FaultPlan::none()` is the identity: execution under it draws nothing,
/// no matter the seed, and two null plans with different seeds realize
/// bit-identical runs that the tri-judge accepts.
#[test]
fn null_plans_are_identity_regardless_of_seed() {
    let spec = ClusterSpec::unit(2);
    let queue = single(12, 3);
    let planned = SchedulerKind::Tetris
        .build(3, 2)
        .schedule_multi(&queue, &spec)
        .unwrap();
    let null = FaultPlan::none();
    let reseeded = FaultProfile::none().plan(0xdead_beef);
    assert!(null.is_none() && reseeded.is_none());
    let a = execute_under_faults(&queue, &spec, &planned, &null, None).unwrap();
    let b = execute_under_faults(&queue, &spec, &planned, &reseeded, None).unwrap();
    assert_eq!(a, b, "null plans must be seed-independent");
    assert_eq!((a.failures, a.straggles), (0, 0));
    assert!(a.failed_runs.is_empty());
    assert!(a.attempts.iter().all(|&n| n == 1));
    let tri = check_faulty_run(&queue, &spec, &planned, &null, &a);
    assert!(tri.all_ok(), "{}", tri.summary());
}

/// Every roster plan is a fixed point of null-plan execution, for single
/// DAGs and streams, on one box and on three machines: dispatch starts no
/// task before its planned start, so a search plan that idles a task on
/// purpose (bnb, MCTS) runs as planned too.
#[test]
fn every_plan_is_a_fixed_point_of_null_plan_execution() {
    let three = CaseSpec {
        machines: 3,
        ..CaseSpec::single(5, 12, 2, SchedulerKind::Tetris)
    }
    .cluster();
    for seed in [5u64, 6] {
        for queue in [single(12, seed), stream_queue(3, 6, seed)] {
            for spec in [&ClusterSpec::unit(2), &three] {
                for kind in SchedulerKind::ALL {
                    let planned = kind.build(seed, 2).schedule_multi(&queue, spec).unwrap();
                    let run =
                        execute_under_faults(&queue, spec, &planned, &FaultPlan::none(), None)
                            .unwrap();
                    assert_eq!(run.schedule, planned, "{} at seed {seed}", kind.name());
                }
            }
        }
    }
}

/// A certain-failure plan with a zero retry budget exhausts the very
/// first task attempted, surfacing the typed fail-fast error — and does
/// so reproducibly: the same seeds name the same task every time.
#[test]
fn retry_exhaustion_is_a_deterministic_typed_error() {
    let spec = ClusterSpec::unit(2);
    let queue = single(9, 21);
    let planned = SchedulerKind::Sjf
        .build(21, 2)
        .schedule_multi(&queue, &spec)
        .unwrap();
    let plan = FaultPlan {
        seed: 21,
        fail_rate: 1.0,
        straggler_rate: 0.0,
        straggler_factor: 1.0,
        max_retries: 0,
    };
    let exhausted = |res: Result<_, SpearError>| match res {
        Err(SpearError::Cluster(ClusterError::RetriesExhausted { task, attempts })) => {
            (task, attempts)
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    };
    let first = exhausted(execute_under_faults(&queue, &spec, &planned, &plan, None));
    let second = exhausted(execute_under_faults(&queue, &spec, &planned, &plan, None));
    assert_eq!(first, second, "exhaustion must be seed-deterministic");
    assert_eq!(first.1, 1, "a zero-retry budget allows exactly one attempt");
}

/// Faults and the execution horizon compose on a multi-job stream: an
/// unbounded run finishes every job, a tight horizon truncates the
/// episode and the censored JCT report accounts for every job either
/// way.
#[test]
fn faults_compose_with_a_multi_job_horizon() {
    let spec = ClusterSpec::unit(2);
    let queue = stream_queue(5, 6, 31);
    let planned = SchedulerKind::Tetris
        .build(31, 2)
        .schedule_multi(&queue, &spec)
        .unwrap();
    let plan = FaultProfile {
        max_retries: 5,
        ..FaultProfile::with_rate(0.15)
    }
    .plan(31);

    let full = execute_under_faults(&queue, &spec, &planned, &plan, None).unwrap();
    assert!(!full.truncated);
    assert_eq!(full.report.unfinished(), 0);
    assert_eq!(full.report.completions().len(), queue.jobs());
    // The complete stream run passes the fault-aware judges, arrival
    // gating of every attempt included.
    let tri = check_faulty_run(&queue, &spec, &planned, &plan, &full);
    assert!(tri.all_ok(), "{}", tri.summary());

    let horizon = full.makespan / 2;
    let cut = execute_under_faults(&queue, &spec, &planned, &plan, Some(horizon)).unwrap();
    assert!(cut.truncated, "half the realized makespan must truncate");
    assert!(cut.report.unfinished() > 0);
    assert_eq!(
        cut.report.completions().len() + cut.report.unfinished(),
        queue.jobs(),
        "every job is either completed or censored"
    );
    assert!(cut.makespan <= full.makespan);
    // The censored report still yields a finite unfairness bound.
    assert!(cut.report.unfairness() >= 1.0 || cut.report.completions().is_empty());
}

/// Under identical seeds, injecting faults can only push every roster
/// plan's realized multi-job makespan out (or leave it unchanged): no
/// attempt starts before its planned start, so no run beats its plan.
#[test]
fn faults_never_speed_up_a_realized_stream() {
    let spec = ClusterSpec::unit(2);
    let queue = stream_queue(4, 7, 47);
    for kind in SchedulerKind::ALL {
        let planned = kind.build(47, 2).schedule_multi(&queue, &spec).unwrap();
        for rate in [0.05, 0.15, 0.30] {
            let plan = FaultProfile {
                max_retries: 8,
                ..FaultProfile::with_rate(rate)
            }
            .plan(47);
            let run = execute_under_faults(&queue, &spec, &planned, &plan, None).unwrap();
            assert!(
                run.makespan >= planned.makespan(),
                "{} at rate {rate}: realized {} beat the plan's {}",
                kind.name(),
                run.makespan,
                planned.makespan()
            );
        }
    }
}
