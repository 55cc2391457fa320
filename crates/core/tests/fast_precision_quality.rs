//! Corpus-level schedule-quality bound for fast-precision inference.
//!
//! The `f32` inference engine is validated at the kernel level by
//! tolerance proptests in `spear-nn`; this suite closes the loop at the
//! *schedule* level: over a seeded DAG corpus, a DRL-guided search run
//! in `Precision::Fast` must (a) produce schedules that pass all three
//! differential judges, and (b) land within a documented makespan band
//! of the `Precision::Exact` run of the same search.
//!
//! The band is deliberately symmetric — an untrained policy gives
//! neither mode a quality edge, so a fast-mode makespan either much
//! better *or* much worse than exact would equally signal a numerics
//! bug. The full benchmark corpus (`bench_hotpath`) currently measures
//! a ratio of exactly 1.0; the bound here leaves headroom for argmax
//! flips inside the `f32` tolerance band.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::diffcheck::{check_schedule, CaseSpec, SchedulerKind};
use spear::nn::Precision;
use spear::{FeatureConfig, MctsConfig, MctsScheduler, PolicyNetwork, Scheduler};

/// Documented makespan-quality band: fast and exact makespans must stay
/// within 5% of each other on every corpus case.
const MAKESPAN_BAND: f64 = 1.05;

fn drl_case(seed: u64, num_tasks: usize) -> CaseSpec {
    CaseSpec::single(seed, num_tasks, 2, SchedulerKind::MctsDrl)
}

/// A DRL scheduler at the requested precision. Everything except
/// `nn_precision` — policy weights, search seed, budgets — is identical
/// across the two modes, so makespan differences isolate the numerics.
fn scheduler(
    seed: u64,
    cfg: FeatureConfig,
    hidden: &[usize],
    precision: Precision,
) -> MctsScheduler {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let policy = PolicyNetwork::with_hidden(cfg, hidden, &mut rng);
    MctsScheduler::drl(
        MctsConfig {
            initial_budget: 16,
            min_budget: 4,
            seed,
            nn_precision: precision,
            ..MctsConfig::default()
        },
        policy,
    )
}

fn run_case(case: CaseSpec, cfg: FeatureConfig, hidden: &[usize], failures: &mut Vec<String>) {
    let queue = case.queue();
    let spec = case.cluster();
    let mut pair = Vec::new();
    for precision in [Precision::Exact, Precision::Fast] {
        let mut sched = scheduler(case.seed, cfg.clone(), hidden, precision);
        match sched.schedule_multi(&queue, &spec) {
            Ok(schedule) => {
                let tri = check_schedule(&queue, &spec, &schedule);
                if !tri.all_ok() {
                    failures.push(format!(
                        "{} [{precision}]: judges rejected: {}",
                        case.label(),
                        tri.summary()
                    ));
                }
                pair.push(schedule.makespan());
            }
            Err(e) => failures.push(format!("{} [{precision}]: {e}", case.label())),
        }
    }
    if let [exact, fast] = pair[..] {
        let ratio = fast as f64 / exact as f64;
        if !(1.0 / MAKESPAN_BAND..=MAKESPAN_BAND).contains(&ratio) {
            failures.push(format!(
                "{}: fast makespan {fast} vs exact {exact} (ratio {ratio:.3}) outside band",
                case.label()
            ));
        }
    }
}

/// The corpus slice: small paper-training DAGs across seeds, judged and
/// band-checked in both precisions. Small nets keep the debug-build
/// slice fast; the paper-shaped case below covers the real layer widths.
#[test]
fn fast_precision_corpus_stays_within_quality_band() {
    let mut failures = Vec::new();
    for seed in 0..8u64 {
        let num_tasks = 10 + (seed as usize % 3) * 3;
        run_case(
            drl_case(seed, num_tasks),
            FeatureConfig::small(2),
            &[16],
            &mut failures,
        );
    }
    assert!(
        failures.is_empty(),
        "fast-precision quality failures:\n{}",
        failures.join("\n")
    );
}

/// One case at the full paper architecture (163 → 256 → 32 → 32 → 16),
/// exercising both the wide generic kernel and the register-resident
/// fixed-width kernels end to end.
#[test]
fn fast_precision_paper_architecture_case() {
    let mut failures = Vec::new();
    run_case(
        drl_case(42, 12),
        FeatureConfig::paper(2),
        &[256, 32, 32],
        &mut failures,
    );
    assert!(
        failures.is_empty(),
        "paper-architecture fast-precision failures:\n{}",
        failures.join("\n")
    );
}
