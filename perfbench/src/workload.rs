//! The four workloads: their seeded inputs, their set-up, one job of each,
//! and the checks and quality reference every job's output goes through.

use std::error::Error;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::nn::{Mlp, Precision};
use spear::rl::pretrain::PretrainConfig;
use spear::rl::{run_episode, ReinforceConfig, SelectionMode};
use spear::{
    train_policy, ArrivalProcess, ArrivalStreamSpec, ClusterSpec, Dag, FeatureConfig, JobQueue,
    JobSource, MctsConfig, MctsScheduler, PolicyNetwork, Schedule, Scheduler, TetrisScheduler,
    TrainedPolicy, TrainingPipelineConfig,
};

use crate::host::{normalized, ReferenceKernel};

/// The committed trained policy (the 128/32/32 network of
/// `results/policy_paper.json`), copied here so that no later change to
/// the repository's results changes this benchmark's input.
pub const POLICY_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/policy_paper.json");

/// The seed the benchmark is tuned and documented with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out while the benchmark was written, for checking a claim
/// on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 20_261_016;

/// One benchmark workload, each with one role (see README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spear (DRL-guided MCTS, budget 100/50) on 100-task DAGs.
    SpearDag100,
    /// Pure MCTS (budget 1000/100) on the same DAGs.
    MctsDag100,
    /// Spear (budget 40/8) on 10-job × 20-task Poisson arrival streams.
    SpearStream,
    /// The CP-expert pre-training + REINFORCE pipeline.
    Train,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SpearDag100,
        Workload::MctsDag100,
        Workload::SpearStream,
        Workload::Train,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpearDag100 => "spear-dag100",
            Workload::MctsDag100 => "mcts-dag100",
            Workload::SpearStream => "spear-stream",
            Workload::Train => "train",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's search is guided by the trained policy.
    pub fn uses_policy(self) -> bool {
        matches!(self, Workload::SpearDag100 | Workload::SpearStream)
    }
}

/// Input sizes: the benchmark's own (`Full`), or a tiny variant for the
/// benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json`'s runs use.
    Full,
    /// Seconds-long debug-build cases for the tests.
    Test,
}

/// The fixed sizes of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Distinct jobs in one pass of the timed loop (DAGs, streams, or
    /// training pipelines).
    pub pool: usize,
    /// Jobs the traced run schedules twice (untraced, then traced).
    pub traced_jobs: usize,
    /// Tasks per DAG; per stream job for the stream.
    pub tasks: usize,
    /// Jobs per stream.
    pub stream_jobs: usize,
    /// MCTS budget at the first decision and its floor.
    pub budget: (u64, u64),
}

impl Shape {
    /// The shape of `workload` at `scale`.
    pub fn of(workload: Workload, scale: Scale) -> Shape {
        let full = scale == Scale::Full;
        match workload {
            Workload::SpearDag100 => Shape {
                pool: if full { 30 } else { 2 },
                traced_jobs: if full { 7 } else { 1 },
                tasks: if full { 100 } else { 12 },
                stream_jobs: 0,
                budget: if full { (100, 50) } else { (12, 4) },
            },
            Workload::MctsDag100 => Shape {
                pool: if full { 100 } else { 2 },
                traced_jobs: if full { 7 } else { 1 },
                tasks: if full { 100 } else { 12 },
                stream_jobs: 0,
                budget: if full { (1000, 100) } else { (30, 6) },
            },
            Workload::SpearStream => Shape {
                pool: if full { 6 } else { 2 },
                traced_jobs: if full { 3 } else { 1 },
                tasks: if full { 20 } else { 5 },
                stream_jobs: if full { 10 } else { 3 },
                budget: if full { (40, 8) } else { (8, 2) },
            },
            Workload::Train => Shape {
                pool: 1,
                traced_jobs: 1,
                tasks: if full { 25 } else { 8 },
                stream_jobs: 0,
                budget: (0, 0),
            },
        }
    }
}

/// The unit two-resource cluster every workload runs on.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::unit(2)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Paper-simulation DAGs; the two DAG workloads share the prefix.
    Dags(Vec<Dag>),
    /// Poisson arrival streams.
    Streams(Vec<JobQueue>),
    /// The training pipeline and the example DAGs it trains on.
    Train {
        /// The pipeline handed to `train_policy`.
        config: Box<TrainingPipelineConfig>,
        /// The examples `config.seed` makes `train_policy` generate.
        examples: Vec<Dag>,
    },
}

fn dag_spec(tasks: usize) -> LayeredDagSpec {
    LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_simulation()
    }
}

/// The `index`-th arrival stream of `seed`: `jobs` paper-simulation DAGs
/// of `tasks` tasks with Poisson arrivals of mean gap 10 slots.
///
/// # Errors
///
/// Propagates stream or queue construction errors (none occur for the
/// layered job source).
pub fn stream(
    seed: u64,
    index: u64,
    jobs: usize,
    tasks: usize,
) -> Result<JobQueue, Box<dyn Error>> {
    let pairs = ArrivalStreamSpec {
        jobs,
        process: ArrivalProcess::Poisson { mean_gap: 10.0 },
        source: JobSource::Layered(dag_spec(tasks)),
    }
    .generate(mix(seed, index))?;
    Ok(JobQueue::new(pairs)?)
}

/// The paper-scale training pipeline cut to a few REINFORCE epochs:
/// 48 examples × 25 tasks, 50 pre-training epochs, 20 rollouts per
/// example, the 128/32/32 network of the committed policy.
pub fn train_config(seed: u64, scale: Scale) -> TrainingPipelineConfig {
    let mut config = TrainingPipelineConfig::paper();
    config.features = FeatureConfig::paper(2);
    config.hidden = Some(vec![128, 32, 32]);
    config.num_examples = 48;
    config.reinforce.epochs = 10;
    config.reinforce_alpha = 1e-3;
    config.seed = seed;
    if scale == Scale::Test {
        config.hidden = Some(vec![16]);
        config.example_spec = dag_spec(8);
        config.num_examples = 3;
        config.pretrain = PretrainConfig {
            epochs: 2,
            batch_size: 16,
        };
        config.reinforce = ReinforceConfig {
            epochs: 2,
            rollouts: 3,
            ..config.reinforce
        };
    }
    config
}

/// A cut-down pipeline for the untimed warm-up: same network, a handful
/// of examples and epochs.
pub fn warm_up_train_config(seed: u64, scale: Scale) -> TrainingPipelineConfig {
    let mut config = train_config(mix(seed, 1 << 20), scale);
    config.num_examples = config.num_examples.min(4);
    config.pretrain.epochs = config.pretrain.epochs.min(2);
    config.reinforce.epochs = 1;
    config
}

/// The examples `train_policy` draws for `config`: it seeds one `StdRng`
/// with `config.seed` and generates them first.
pub fn training_examples(config: &TrainingPipelineConfig) -> Vec<Dag> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.num_examples)
        .map(|_| config.example_spec.generate(&mut rng))
        .collect()
}

impl Inputs {
    /// Generates the inputs of `workload` at `scale` from `seed`. The same
    /// seed always gives the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates stream construction errors.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Result<Inputs, Box<dyn Error>> {
        let shape = Shape::of(workload, scale);
        Ok(match workload {
            Workload::SpearDag100 | Workload::MctsDag100 => {
                let spec = dag_spec(shape.tasks);
                let mut rng = StdRng::seed_from_u64(seed);
                Inputs::Dags((0..shape.pool).map(|_| spec.generate(&mut rng)).collect())
            }
            Workload::SpearStream => Inputs::Streams(
                (0..shape.pool as u64)
                    .map(|i| stream(seed, i, shape.stream_jobs, shape.tasks))
                    .collect::<Result<_, _>>()?,
            ),
            Workload::Train => {
                let config = train_config(seed, scale);
                let examples = training_examples(&config);
                Inputs::Train {
                    config: Box::new(config),
                    examples,
                }
            }
        })
    }

    /// Jobs in one pass.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Dags(d) => d.len(),
            Inputs::Streams(s) => s.len(),
            Inputs::Train { .. } => 1,
        }
    }

    /// Whether there is nothing to run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Loads the committed policy through the same call `spear-cli schedule
/// --policy` makes.
///
/// # Errors
///
/// Fails if the file is missing or does not fit the paper featurizer.
pub fn load_policy() -> Result<PolicyNetwork, Box<dyn Error>> {
    let net = Mlp::load_from_path(POLICY_PATH)?;
    let features = FeatureConfig::paper(2);
    if net.config().input != features.input_dim() || net.config().output != features.action_dim() {
        return Err("policy_paper.json does not fit the paper featurizer".into());
    }
    Ok(PolicyNetwork::from_parts(features, net))
}

/// The search configuration: the workload's budget with the CLI's
/// defaults (seed 0, eval cache on, exact precision).
pub fn search_config(workload: Workload, scale: Scale) -> MctsConfig {
    let (initial_budget, min_budget) = Shape::of(workload, scale).budget;
    MctsConfig {
        initial_budget,
        min_budget,
        seed: 0,
        eval_cache: true,
        nn_precision: Precision::Exact,
        ..MctsConfig::default()
    }
}

/// Set-ups per run at least; their median is `setup_s`.
pub const MIN_SETUPS: usize = 7;
/// Set-up keeps repeating until this many seconds have been spent on it.
pub const MIN_SETUP_SECONDS: f64 = 0.1;
/// Set-ups per run at most.
pub const MAX_SETUPS: usize = 400;

/// The times of repeated set-ups, one entry per repeat.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Wall time in seconds.
    pub wall_s: Vec<f64>,
    /// Wall time normalized to the reference host speed.
    pub normalized_s: Vec<f64>,
    /// Milliseconds in `Mlp::load_from_path`.
    pub load_ms: Vec<f64>,
    /// Milliseconds generating the inputs.
    pub inputs_ms: Vec<f64>,
}

/// Everything set-up produces.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its scale.
    pub scale: Scale,
    /// The seeded inputs.
    pub inputs: Inputs,
    /// The loaded policy (search workloads guided by it).
    pub policy: Option<PolicyNetwork>,
    /// The scheduler (search workloads).
    pub scheduler: Option<MctsScheduler>,
    /// Milliseconds spent in `Mlp::load_from_path`.
    pub load_ms: f64,
    /// Milliseconds spent generating the inputs.
    pub inputs_ms: f64,
}

impl Prepared {
    /// Set-up: load the policy, generate the seeded inputs, build the
    /// scheduler — everything before the first decision.
    ///
    /// # Errors
    ///
    /// Fails if the policy cannot be loaded or the inputs generated.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Result<Prepared, Box<dyn Error>> {
        let start = Instant::now();
        let policy = if workload.uses_policy() {
            Some(load_policy()?)
        } else {
            None
        };
        let load_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let inputs = Inputs::generate(workload, scale, seed)?;
        let inputs_ms = start.elapsed().as_secs_f64() * 1e3;
        let config = search_config(workload, scale);
        let scheduler = match (workload, &policy) {
            (Workload::Train, _) => None,
            (Workload::MctsDag100, _) => Some(MctsScheduler::pure(config)),
            (_, Some(policy)) => Some(MctsScheduler::drl(config, policy.clone())),
            (_, None) => unreachable!("policy-guided workloads load a policy"),
        };
        Ok(Prepared {
            workload,
            scale,
            inputs,
            policy,
            scheduler,
            load_ms,
            inputs_ms,
        })
    }

    /// Set-up repeated — at least [`MIN_SETUPS`] times and until
    /// [`MIN_SETUP_SECONDS`] have been spent — with a host-speed reading
    /// before each; returns the last set-up and every repeat's times.
    ///
    /// # Errors
    ///
    /// Fails as [`Prepared::new`].
    pub fn repeated(
        workload: Workload,
        scale: Scale,
        seed: u64,
        kernel: &mut ReferenceKernel,
    ) -> Result<(Prepared, SetupTimes), Box<dyn Error>> {
        let mut times = SetupTimes::default();
        let mut last = None;
        while times.wall_s.len() < MIN_SETUPS
            || times.wall_s.iter().sum::<f64>() < MIN_SETUP_SECONDS
        {
            drop(last.take());
            let reference_ms = kernel.sample_ms();
            let start = Instant::now();
            let prepared = Prepared::new(workload, scale, seed)?;
            let wall_s = start.elapsed().as_secs_f64();
            times.wall_s.push(wall_s);
            times.normalized_s.push(normalized(wall_s, reference_ms));
            times.load_ms.push(prepared.load_ms);
            times.inputs_ms.push(prepared.inputs_ms);
            last = Some(prepared);
            if times.wall_s.len() >= MAX_SETUPS {
                break;
            }
        }
        Ok((last.expect("at least one set-up"), times))
    }
}

/// The output of one job.
#[derive(Debug)]
pub enum Output {
    /// A single-DAG or stream schedule.
    Schedule(Schedule),
    /// A trained policy.
    Trained(Box<TrainedPolicy>),
}

/// Runs job `index` of one pass — exactly the library call the CLI makes:
/// `Scheduler::schedule`, `Scheduler::schedule_multi` or `train_policy`.
///
/// # Errors
///
/// Returns the scheduler's or the pipeline's error.
pub fn run_job(prepared: &mut Prepared, index: usize) -> Result<Output, Box<dyn Error>> {
    let spec = cluster();
    match &prepared.inputs {
        Inputs::Dags(dags) => {
            let scheduler = prepared.scheduler.as_mut().expect("search workload");
            Ok(Output::Schedule(scheduler.schedule(&dags[index], &spec)?))
        }
        Inputs::Streams(streams) => {
            let scheduler = prepared.scheduler.as_mut().expect("search workload");
            Ok(Output::Schedule(
                scheduler.schedule_multi(&streams[index], &spec)?,
            ))
        }
        Inputs::Train { config, .. } => Ok(Output::Trained(Box::new(train_policy(config, &spec)?))),
    }
}

/// The untimed warm-up job: pays for eval-cache pages and first-touch
/// memory before the timed loop. DAG workloads schedule the first DAG;
/// the stream a 3-job stream; training a cut-down pipeline.
///
/// # Errors
///
/// Returns the scheduler's or the pipeline's error.
pub fn warm_up(prepared: &mut Prepared, seed: u64) -> Result<(), Box<dyn Error>> {
    let spec = cluster();
    let shape = Shape::of(prepared.workload, prepared.scale);
    match &prepared.inputs {
        Inputs::Dags(_) => {
            run_job(prepared, 0)?;
        }
        Inputs::Streams(_) => {
            let queue = stream(seed, 1 << 20, shape.stream_jobs.min(3), shape.tasks)?;
            let scheduler = prepared.scheduler.as_mut().expect("search workload");
            scheduler.schedule_multi(&queue, &spec)?;
        }
        Inputs::Train { .. } => {
            train_policy(&warm_up_train_config(seed, prepared.scale), &spec)?;
        }
    }
    Ok(())
}

/// Checks job `index`'s output: a schedule must validate against its DAG
/// (the union DAG for a stream) and leave no stream job unfinished; a
/// pipeline must train on the expected examples and record a finite
/// curve of the configured length. Returns the problem, if any.
pub fn check(inputs: &Inputs, index: usize, output: &Output) -> Option<String> {
    let spec = cluster();
    match (inputs, output) {
        (Inputs::Dags(dags), Output::Schedule(schedule)) => schedule
            .validate(&dags[index], &spec)
            .err()
            .map(|e| format!("DAG {index}: {e}")),
        (Inputs::Streams(streams), Output::Schedule(schedule)) => {
            let queue = &streams[index];
            if let Err(e) = schedule.validate(queue.union_dag(), &spec) {
                return Some(format!("stream {index}: {e}"));
            }
            let report = queue.jct_report(schedule);
            (report.unfinished() != 0 || report.completions().len() != queue.jobs()).then(|| {
                format!(
                    "stream {index}: {} of {} jobs unfinished",
                    report.unfinished(),
                    queue.jobs()
                )
            })
        }
        (Inputs::Train { config, examples }, Output::Trained(trained)) => {
            if &trained.examples != examples {
                Some("pipeline trained on other examples than the seed's".to_owned())
            } else if trained.curve.len() != config.reinforce.epochs
                || trained.pretrain_loss.len() != config.pretrain.epochs
            {
                Some("pipeline skipped epochs".to_owned())
            } else if !trained
                .curve
                .iter()
                .all(|p| p.mean_makespan.is_finite() && p.mean_entropy.is_finite())
                || !trained.pretrain_loss.iter().all(|l| l.is_finite())
            {
                Some("pipeline diverged to a non-finite loss".to_owned())
            } else {
                None
            }
        }
        _ => Some("output kind does not match the workload".to_owned()),
    }
}

/// Whether two runs of the same job produced the same output (the search
/// and training are deterministic, so any difference is a bug).
pub fn same_output(a: &Output, b: &Output) -> bool {
    match (a, b) {
        (Output::Schedule(a), Output::Schedule(b)) => a == b,
        (Output::Trained(a), Output::Trained(b)) => {
            a.curve == b.curve
                && a.pretrain_loss == b.pretrain_loss
                && a.pretrain_accuracy == b.pretrain_accuracy
        }
        _ => false,
    }
}

/// Mean job completion time over Tetris's on the same jobs, from the
/// first output of every job in the pass. A single DAG's JCT is its
/// makespan; a stream contributes every job's JCT; a pipeline
/// contributes the greedy-rollout makespan of its trained policy on
/// each example.
///
/// # Errors
///
/// Returns a scheduling error of the Tetris reference or a rollout.
pub fn jct_vs_tetris(inputs: &Inputs, outputs: &[Output]) -> Result<f64, Box<dyn Error>> {
    let spec = cluster();
    let mut tetris = TetrisScheduler::new();
    let (mut ours, mut theirs) = (0u64, 0u64);
    match inputs {
        Inputs::Dags(dags) => {
            for (dag, output) in dags.iter().zip(outputs) {
                if let Output::Schedule(s) = output {
                    ours += s.makespan();
                    theirs += tetris.schedule(dag, &spec)?.makespan();
                }
            }
        }
        Inputs::Streams(streams) => {
            for (queue, output) in streams.iter().zip(outputs) {
                if let Output::Schedule(s) = output {
                    let jct = |schedule: &Schedule| -> u64 {
                        queue
                            .jct_report(schedule)
                            .completions()
                            .iter()
                            .map(|c| c.jct)
                            .sum()
                    };
                    ours += jct(s);
                    theirs += jct(&tetris.schedule_multi(queue, &spec)?);
                }
            }
        }
        Inputs::Train { examples, .. } => {
            if let Some(Output::Trained(trained)) = outputs.first() {
                let mut policy = trained.policy.clone();
                let mut rng = StdRng::seed_from_u64(0);
                for dag in examples {
                    ours += run_episode(
                        &mut policy,
                        dag,
                        &spec,
                        SelectionMode::Greedy,
                        false,
                        &mut rng,
                    )?
                    .makespan;
                    theirs += tetris.schedule(dag, &spec)?.makespan();
                }
            }
        }
    }
    Ok(ours as f64 / theirs.max(1) as f64)
}
