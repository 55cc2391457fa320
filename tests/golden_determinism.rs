//! Golden determinism tests: fixed-seed searches must reproduce exactly
//! the schedules recorded here. These constants pin the behavior of the
//! MCTS hot path — any refactor that changes RNG call order, float
//! summation order, or action enumeration order will trip them. Every
//! table holds on the unit box and on a one-machine set with arbitrary
//! network knobs: a single box is a one-machine cluster. The state keys
//! behind the inference caches are pinned the same way, and so is the
//! work the quick searches do, on DAGs and on an arrival stream. So are
//! the bits a training run leaves: weights, losses, accuracy and curve,
//! and the schedules of the list baselines and Graphene.
//!
//! To regenerate after an *intentional* behavior change, run
//! `cargo test --release --test golden_determinism -- --ignored --nocapture`
//! and copy the printed tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spear::dag::generator::LayeredDagSpec;
use spear::dag::ResourceVec;
use spear::diffcheck::{check_schedule, CaseSpec, SchedulerKind};
use spear::env::{DecisionPolicy, EpisodeDriver, SimEnv};
use spear::nn::{Mlp, Precision, RmsProp};
use spear::rl::pretrain::{self, PretrainConfig};
use spear::rl::{EvalCacheStats, TrainingCurvePoint};
use spear::{
    train_policy, Action, ArrivalProcess, ArrivalStreamSpec, ClusterSpec, CpScheduler, Dag,
    FeatureConfig, Graphene, JobQueue, JobSource, MachineSet, MctsConfig, MctsScheduler,
    PolicyNetwork, RandomScheduler, Schedule, Scheduler, SearchStats, SimState, SjfScheduler,
    TetrisScheduler, TrainingPipelineConfig, TransferMode,
};

/// Number of fixed workload DAGs each golden table covers.
const GOLDEN_DAGS: usize = 3;

/// Tasks per workload DAG (fig6a-style simulation workload).
const GOLDEN_TASKS: usize = 50;

/// Workload generator seed.
const GOLDEN_SEED: u64 = 42;

/// `(makespan, schedule fingerprint)` per DAG for pure MCTS.
const PURE_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (324, 0xc4060ce07e851569),
    (341, 0xf34dcf43c265d051),
    (370, 0x9196126c9e1c5389),
];

/// `(makespan, schedule fingerprint)` per DAG for DRL-guided search.
const DRL_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (344, 0xd0bf2cd026048d95),
    (337, 0x4f191505c3866175),
    (356, 0xb2451e3e80597f51),
];

/// `(makespan, schedule fingerprint)` per DAG for a seeded uniform policy
/// stepped through the Env layer's [`EpisodeDriver`]. Pins the driver's
/// enumeration and RNG call order independently of the searches above.
const ENV_DRIVER_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [
    (394, 0x786d1d936229ff67),
    (430, 0xd8dd51ed5f1afb1e),
    (407, 0xc3031cffd93739db),
];

/// Seed of the uniform policy behind [`ENV_DRIVER_GOLDEN`].
const ENV_DRIVER_SEED: u64 = 7;

/// `(makespan, placement fingerprint)` per DAG for each of [`baselines`]
/// (Tetris, SJF, CP, seeded Random, Graphene), on a single box and on
/// [`three_machines`], where the locality tie-break picks among a task's
/// machines.
const BASELINE_GOLDEN: [[[(u64, u64); GOLDEN_DAGS]; 5]; 2] = [
    [
        [
            (374, 0x9969188f09566e07),
            (366, 0xd5f8a68c120d8dc9),
            (374, 0x215775947527b743),
        ],
        [
            (380, 0x4836251781b642f0),
            (385, 0x16204e32e87fbf26),
            (380, 0x157f54ea0f9523cc),
        ],
        [
            (348, 0xd835aebb7dacba78),
            (330, 0x17eac6ea2c4e5e07),
            (360, 0x24cb706a89d01086),
        ],
        [
            (378, 0xeadff3d5ac6a0163),
            (371, 0x3ba9d50719e49adf),
            (382, 0x79fa7ba4c1932037),
        ],
        [
            (360, 0xd8a0091795b0ccbd),
            (364, 0xb61857f426ee7902),
            (382, 0x1aa4d08181591893),
        ],
    ],
    [
        [
            (190, 0x982005065f1deae8),
            (219, 0x62737298dd97ab0f),
            (212, 0xda0365c6432881b7),
        ],
        [
            (219, 0x3d6eff048db4d2f5),
            (282, 0x1eca31ce9e8be9d8),
            (235, 0xb878d7073b9f8efd),
        ],
        [
            (189, 0xa98d768a86ee5d4b),
            (216, 0x6768dd86c653ac59),
            (227, 0xa59f38501b18b266),
        ],
        [
            (223, 0xf762c6c2d8b9c2fa),
            (286, 0xafb4327982c80061),
            (250, 0xbd795f31bec6428e),
        ],
        [
            (215, 0x1d59431a9c9126e7),
            (267, 0x033e5a5af22b52e2),
            (235, 0x8046fb85abe6e570),
        ],
    ],
];

/// Makespans of pure MCTS (budget 60/12) on the quick workload: two
/// 30-task DAGs of the simulation family, seed 42.
const QUICK_PURE_GOLDEN: [u64; 2] = [203, 208];

/// Makespans of DRL-guided MCTS (untrained paper-size network, budget
/// 15/3) on the quick workload, with the inference caches on or off.
const QUICK_DRL_GOLDEN: [u64; 2] = [233, 229];

/// Search work of quick pure MCTS, summed over both quick DAGs: every
/// [`SearchStats`] counter, with the wall clock zeroed. Pins how much a
/// search does, not just the makespans it finds.
const QUICK_PURE_WORK: SearchStats = SearchStats {
    iterations: 1558,
    rollout_steps: 35570,
    tree_nodes: 1436,
    decisions: 117,
    policy_inferences: 0,
    cache_hits: 0,
    cache_misses: 0,
    cache_evictions: 0,
    inference_skips: 0,
    elapsed_seconds: 0.0,
};

/// [`QUICK_PURE_WORK`] for quick DRL-guided search with the inference
/// caches on: the frontier table's counters are `cache_*`.
const QUICK_DRL_WORK: SearchStats = SearchStats {
    iterations: 387,
    rollout_steps: 10957,
    tree_nodes: 365,
    decisions: 117,
    policy_inferences: 2428,
    cache_hits: 2986,
    cache_misses: 2945,
    cache_evictions: 0,
    inference_skips: 5389,
    elapsed_seconds: 0.0,
};

/// The input table behind the frontier table in [`QUICK_DRL_WORK`]'s run.
const QUICK_DRL_INPUT_TABLE: EvalCacheStats = EvalCacheStats {
    hits: 517,
    misses: 2428,
    evictions: 0,
};

/// [`QUICK_DRL_WORK`] with the caches off: the same search, with every
/// frontier probe a forward pass.
const QUICK_DRL_UNCACHED_WORK: SearchStats = SearchStats {
    policy_inferences: 5931,
    cache_hits: 0,
    cache_misses: 0,
    ..QUICK_DRL_WORK
};

/// What a search on the quick stream found and did: the union makespan,
/// each job's JCT in arrival order, the search work with the wall clock
/// zeroed and the policy's input-table counters.
#[derive(Debug, PartialEq)]
struct StreamRun {
    makespan: u64,
    jcts: [u64; 4],
    work: SearchStats,
    input_table: EvalCacheStats,
}

/// No input table: pure MCTS, or the caches off.
const NO_TABLE: EvalCacheStats = EvalCacheStats {
    hits: 0,
    misses: 0,
    evictions: 0,
};

/// Quick pure MCTS on the quick stream, on a single box.
const STREAM_PURE: StreamRun = StreamRun {
    makespan: 200,
    jcts: [200, 179, 152, 158],
    work: SearchStats {
        iterations: 845,
        rollout_steps: 23719,
        tree_nodes: 740,
        decisions: 64,
        ..QUICK_PURE_WORK
    },
    input_table: NO_TABLE,
};

/// Quick DRL-guided search on the quick stream, on a single box.
const STREAM_DRL: StreamRun = StreamRun {
    makespan: 216,
    jcts: [159, 213, 192, 169],
    work: SearchStats {
        iterations: 207,
        rollout_steps: 6954,
        tree_nodes: 197,
        decisions: 63,
        policy_inferences: 3444,
        cache_hits: 404,
        cache_misses: 3616,
        cache_evictions: 0,
        inference_skips: 3130,
        elapsed_seconds: 0.0,
    },
    input_table: EvalCacheStats {
        hits: 172,
        misses: 3444,
        evictions: 0,
    },
};

/// [`STREAM_PURE`] on [`three_machines`].
const STREAM_PURE_3: StreamRun = StreamRun {
    makespan: 111,
    jcts: [101, 106, 94, 107],
    work: SearchStats {
        iterations: 845,
        rollout_steps: 24362,
        tree_nodes: 718,
        decisions: 64,
        ..QUICK_PURE_WORK
    },
    input_table: NO_TABLE,
};

/// [`STREAM_DRL`] on [`three_machines`].
const STREAM_DRL_3: StreamRun = StreamRun {
    makespan: 118,
    jcts: [118, 97, 85, 96],
    work: SearchStats {
        iterations: 192,
        rollout_steps: 6663,
        tree_nodes: 183,
        decisions: 58,
        policy_inferences: 3625,
        cache_hits: 229,
        cache_misses: 3885,
        cache_evictions: 0,
        inference_skips: 2731,
        elapsed_seconds: 0.0,
    },
    input_table: EvalCacheStats {
        hits: 260,
        misses: 3625,
        evictions: 0,
    },
};

/// `run` with the caches off: the same search, with `forwards` forward
/// passes and no table hits.
const fn uncached(mut run: StreamRun, forwards: u64) -> StreamRun {
    run.work.policy_inferences = forwards;
    run.work.cache_hits = 0;
    run.work.cache_misses = 0;
    run.input_table = NO_TABLE;
    run
}

/// The [`StreamRun`]s of quick pure MCTS and of quick DRL-guided search
/// with the caches on and off, on a single box and on three machines.
const STREAM_GOLDEN: [[StreamRun; 3]; 2] = [
    [STREAM_PURE, STREAM_DRL, uncached(STREAM_DRL, 4020)],
    [STREAM_PURE_3, STREAM_DRL_3, uncached(STREAM_DRL_3, 4114)],
];

/// `(steps, FNV-1a fold of the frontier fingerprint of the initial state
/// and after every step)` of a seeded uniform episode on the unit box and
/// on a three-machine cluster. The frontier fingerprint is the only state
/// key and the frontier table's key in the DRL search: pinning it pins
/// that table's hits and, with them, the forward-pass counts.
const KEY_GOLDEN: [(usize, u64); 2] = [(24, 0xde79_f6b9_8744_e4d5), (24, 0xbd77_8a49_4328_2e37)];

/// FNV-1a over the bits a training run leaves ([`train_words`]):
/// `[TrainingPipelineConfig::tiny(), three 64-row pre-training batches
/// and a 7-row one at the committed 163 → 128/32/32 → 16 shape]`. The
/// tiny pipeline's REINFORCE keeps its entropy above 0.4, so advantages
/// are nonzero and every epoch runs backward passes.
const TRAIN_GOLDEN: [u64; 2] = [0x8630_d8da_50d7_cfc9, 0x8f58_02c7_41b5_2341];

/// The two clusters every table is checked on: the unit box and a
/// one-machine set whose (unused) network knobs are arbitrary.
fn clusters() -> [ClusterSpec; 2] {
    let one = MachineSet::uniform(
        1,
        ResourceVec::splat(2, 1.0),
        7,
        TransferMode::ViaMaster,
        3,
        16,
    )
    .expect("one unit machine is a valid set");
    [
        ClusterSpec::unit(2),
        ClusterSpec::hetero(one).expect("one unit machine is a valid cluster"),
    ]
}

/// `count` DAGs of `tasks` tasks from the fig6a generator family.
fn dags(count: usize, tasks: usize) -> Vec<Dag> {
    let spec = LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_simulation()
    };
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    (0..count).map(|_| spec.generate(&mut rng)).collect()
}

/// The fixed workload: same generator family as the fig6a experiment.
fn workload() -> Vec<Dag> {
    dags(GOLDEN_DAGS, GOLDEN_TASKS)
}

/// Search seed 7 at the given budget, with the eval cache on or off.
fn config(initial_budget: u64, min_budget: u64, eval_cache: bool) -> MctsConfig {
    MctsConfig {
        initial_budget,
        min_budget,
        seed: 7,
        eval_cache,
        ..MctsConfig::default()
    }
}

fn pure_scheduler() -> MctsScheduler {
    MctsScheduler::pure(config(80, 16, true))
}

fn drl_scheduler() -> MctsScheduler {
    let mut rng = StdRng::seed_from_u64(0);
    let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16], &mut rng);
    MctsScheduler::drl(config(30, 6, true), policy)
}

/// Quick pure MCTS.
fn quick_pure() -> MctsScheduler {
    MctsScheduler::pure(config(60, 12, true))
}

/// Quick DRL-guided search with an untrained paper-size network.
fn quick_drl(eval_cache: bool, nn_precision: Precision) -> MctsScheduler {
    let policy = PolicyNetwork::new(FeatureConfig::paper(2), &mut StdRng::seed_from_u64(0));
    let config = MctsConfig {
        nn_precision,
        ..config(15, 3, eval_cache)
    };
    MctsScheduler::drl(config, policy)
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in words {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over every task's start time in task order: detects any change
/// to the schedule, not just its makespan.
fn fingerprint(schedule: &Schedule) -> u64 {
    fnv(schedule
        .placements()
        .iter()
        .flat_map(|p| [p.task.index() as u64, p.start]))
}

/// [`fingerprint`] with each task's machine folded in.
fn placement_fingerprint(schedule: &Schedule) -> u64 {
    fnv(schedule
        .placements()
        .iter()
        .flat_map(|p| [p.task.index() as u64, p.start, p.machine.into()]))
}

/// Each DAG's schedule under `scheduler` on `spec`, validated.
fn schedules(scheduler: &mut impl Scheduler, dags: &[Dag], spec: &ClusterSpec) -> Vec<Schedule> {
    dags.iter()
        .map(|dag| {
            let s = scheduler
                .schedule(dag, spec)
                .expect("workload fits cluster");
            s.validate(dag, spec).expect("schedule must be valid");
            s
        })
        .collect()
}

fn run(mut scheduler: MctsScheduler, spec: &ClusterSpec) -> Vec<(u64, u64)> {
    let schedules = schedules(&mut scheduler, &workload(), spec);
    schedules
        .iter()
        .map(|s| (s.makespan(), fingerprint(s)))
        .collect()
}

/// The list baselines and Graphene, in [`BASELINE_GOLDEN`]'s row order.
fn baselines() -> [Box<dyn Scheduler>; 5] {
    [
        Box::new(TetrisScheduler::new()),
        Box::new(SjfScheduler::new()),
        Box::new(CpScheduler::new()),
        Box::new(RandomScheduler::seeded(GOLDEN_SEED)),
        Box::new(Graphene::new()),
    ]
}

/// Each baseline's `(makespan, placement fingerprint)` per workload DAG.
fn run_baselines(spec: &ClusterSpec) -> [[(u64, u64); GOLDEN_DAGS]; 5] {
    baselines().map(|mut scheduler| {
        let schedules = schedules(&mut scheduler, &workload(), spec);
        std::array::from_fn(|i| {
            (
                schedules[i].makespan(),
                placement_fingerprint(&schedules[i]),
            )
        })
    })
}

/// The quick workload: two 30-task DAGs of the simulation family.
fn quick_dags() -> Vec<Dag> {
    dags(2, 30)
}

fn quick_makespans(mut scheduler: MctsScheduler, spec: &ClusterSpec) -> Vec<u64> {
    let schedules = schedules(&mut scheduler, &quick_dags(), spec);
    schedules.iter().map(Schedule::makespan).collect()
}

/// The search work of `scheduler` on the quick workload, summed over both
/// DAGs with the wall clock zeroed, and its policy's input-table counters.
fn quick_work(mut scheduler: MctsScheduler, spec: &ClusterSpec) -> (SearchStats, EvalCacheStats) {
    let work = quick_dags()
        .iter()
        .map(|dag| {
            let (_, stats) = scheduler
                .schedule_with_stats(dag, spec)
                .expect("workload fits cluster");
            SearchStats {
                elapsed_seconds: 0.0,
                ..stats
            }
        })
        .fold(SearchStats::default(), SearchStats::merged);
    (work, scheduler.policy().input_cache_stats())
}

/// The quick stream: four 8-task jobs of the simulation family arriving
/// as a Poisson process with mean gap 5, seed 42.
fn quick_stream() -> JobQueue {
    let stream = ArrivalStreamSpec {
        jobs: 4,
        process: ArrivalProcess::Poisson { mean_gap: 5.0 },
        source: JobSource::Layered(LayeredDagSpec {
            num_tasks: 8,
            ..LayeredDagSpec::paper_simulation()
        }),
    }
    .generate(GOLDEN_SEED)
    .expect("layered job source is total");
    JobQueue::new(stream).expect("generated stream forms a valid queue")
}

/// Quick pure MCTS and quick DRL-guided search with the caches on and
/// off, each run on the quick stream.
fn stream_runs(spec: &ClusterSpec) -> [StreamRun; 3] {
    let queue = quick_stream();
    [
        quick_pure(),
        quick_drl(true, Precision::Exact),
        quick_drl(false, Precision::Exact),
    ]
    .map(|mut scheduler| {
        let (schedule, stats) = scheduler
            .schedule_multi_with_stats(&queue, spec)
            .expect("stream fits cluster");
        schedule
            .validate(queue.union_dag(), spec)
            .expect("schedule must be valid");
        let report = queue.jct_report(&schedule);
        let jcts: Vec<u64> = report.completions().iter().map(|c| c.jct).collect();
        StreamRun {
            makespan: schedule.makespan(),
            jcts: jcts.try_into().expect("every job completes"),
            work: SearchStats {
                elapsed_seconds: 0.0,
                ..stats
            },
            input_table: scheduler.policy().input_cache_stats(),
        }
    })
}

/// Uniformly random over the legal actions; one RNG draw per decision.
struct UniformDriverPolicy;

impl DecisionPolicy<StdRng> for UniformDriverPolicy {
    fn decide(&mut self, env: &SimEnv<'_>, rng: &mut StdRng) -> Action {
        let legal = env.observe().legal_actions(env.dag());
        legal[rng.gen_range(0..legal.len())]
    }
}

fn run_env_driver(spec: &ClusterSpec) -> Vec<(u64, u64)> {
    workload()
        .iter()
        .map(|dag| {
            let s = EpisodeDriver::new(UniformDriverPolicy)
                .run(dag, spec, &mut StdRng::seed_from_u64(ENV_DRIVER_SEED))
                .expect("workload fits cluster");
            s.validate(dag, spec).expect("schedule must be valid");
            (s.makespan(), fingerprint(&s))
        })
        .collect()
}

/// The cache-key trail of a seeded uniform episode of a 12-task DAG.
fn key_trail(spec: &ClusterSpec) -> (usize, u64) {
    let dag = &dags(1, 12)[0];
    let mut state = SimState::new(dag, spec).expect("workload fits cluster");
    let mut rng = StdRng::seed_from_u64(ENV_DRIVER_SEED);
    let mut keys = vec![state.frontier_fingerprint()];
    while !state.is_terminal(dag) {
        let legal = state.legal_actions(dag);
        let action = legal[rng.gen_range(0..legal.len())];
        state.apply(dag, action).expect("legal actions never fail");
        keys.push(state.frontier_fingerprint());
    }
    (keys.len() - 1, fnv(keys))
}

/// The bits of a training run: every weight and bias, each
/// pre-training epoch's loss, the accuracy, and every curve point.
fn train_words(net: &Mlp, losses: &[f64], accuracy: f64, curve: &[TrainingCurvePoint]) -> Vec<u64> {
    let params = net
        .layers()
        .iter()
        .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()));
    let points = curve
        .iter()
        .flat_map(|p| [p.epoch as f64, p.mean_makespan, p.mean_entropy]);
    params
        .chain(losses)
        .copied()
        .chain([accuracy])
        .chain(points)
        .map(f64::to_bits)
        .collect()
}

/// [`TRAIN_GOLDEN`]'s two runs: the tiny pipeline end to end, and one
/// pre-training epoch of 64-row batches on the CP expert's 199
/// decisions over four 25-task DAGs at the committed policy's shape.
fn train_hashes() -> [u64; 2] {
    let spec = ClusterSpec::unit(2);
    let tiny = train_policy(&TrainingPipelineConfig::tiny(), &spec).expect("tiny pipeline trains");
    let tiny = fnv(train_words(
        tiny.policy.net(),
        &tiny.pretrain_loss,
        tiny.pretrain_accuracy,
        &tiny.curve,
    ));

    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    let example = LayeredDagSpec::paper_training();
    let examples: Vec<Dag> = (0..4).map(|_| example.generate(&mut rng)).collect();
    let mut policy = PolicyNetwork::with_hidden(FeatureConfig::paper(2), &[128, 32, 32], &mut rng);
    let data = pretrain::build_dataset(&policy, &examples, &spec).expect("examples fit");
    let config = PretrainConfig {
        epochs: 1,
        batch_size: 64,
    };
    let mut opt = RmsProp::new(1e-3, 0.9, 1e-9);
    let losses = pretrain::train(&mut policy, &data, &mut opt, &config, &mut rng);
    let accuracy = pretrain::accuracy(&policy, &data);
    let paper = fnv(train_words(policy.net(), &losses, accuracy, &[]));
    [tiny, paper]
}

/// The fuzz corpus's three machines of unequal shape over unequal
/// links.
fn three_machines() -> ClusterSpec {
    let case = CaseSpec::single(11, 12, 2, SchedulerKind::Tetris);
    CaseSpec {
        machines: 3,
        ..case
    }
    .cluster()
}

#[test]
fn pure_mcts_matches_golden_schedules() {
    for spec in clusters() {
        assert_eq!(run(pure_scheduler(), &spec), PURE_GOLDEN);
    }
}

/// The Env layer itself reproduces the pinned schedules: seeded episodes
/// driven through [`EpisodeDriver`] must be bit-stable across refactors,
/// and bit-identical to the hand-rolled stepping loop they replaced.
#[test]
fn env_driver_matches_golden_schedules() {
    for spec in clusters() {
        assert_eq!(run_env_driver(&spec), ENV_DRIVER_GOLDEN);
        // Cross-check: the same seed through a raw legal_actions/apply loop.
        for (dag, &(makespan, fp)) in workload().iter().zip(&ENV_DRIVER_GOLDEN) {
            let mut state = SimState::new(dag, &spec).expect("workload fits cluster");
            let mut rng = StdRng::seed_from_u64(ENV_DRIVER_SEED);
            let mut legal = Vec::new();
            while !state.is_terminal(dag) {
                state.legal_actions_into(dag, &mut legal);
                let action = legal[rng.gen_range(0..legal.len())];
                state.apply(dag, action).expect("legal actions never fail");
            }
            let s = state.into_schedule(dag);
            assert_eq!((s.makespan(), fingerprint(&s)), (makespan, fp));
        }
    }
}

#[test]
fn drl_guided_matches_golden_schedules() {
    for spec in clusters() {
        assert_eq!(run(drl_scheduler(), &spec), DRL_GOLDEN);
    }
}

/// The list baselines and Graphene reproduce their pinned schedules, on
/// both spellings of a single box and on three machines.
#[test]
fn baselines_match_golden_schedules() {
    let [single, three] = BASELINE_GOLDEN;
    for spec in clusters() {
        assert_eq!(run_baselines(&spec), single);
    }
    assert_eq!(run_baselines(&three_machines()), three);
}

/// The quick workload's makespans, for pure and DRL-guided search with
/// the inference caches on and off.
#[test]
fn quick_searches_match_golden_makespans() {
    for spec in clusters() {
        assert_eq!(quick_makespans(quick_pure(), &spec), QUICK_PURE_GOLDEN);
        for eval_cache in [true, false] {
            assert_eq!(
                quick_makespans(quick_drl(eval_cache, Precision::Exact), &spec),
                QUICK_DRL_GOLDEN,
                "eval cache {eval_cache}"
            );
        }
    }
}

/// The quick searches' work: iterations, rollout steps, tree nodes,
/// decisions, forward passes and every policy-table counter. A change that
/// keeps the makespans but searches more or less trips this.
#[test]
fn quick_searches_do_golden_work() {
    let none = EvalCacheStats::default();
    for spec in clusters() {
        assert_eq!(quick_work(quick_pure(), &spec), (QUICK_PURE_WORK, none));
        assert_eq!(
            quick_work(quick_drl(true, Precision::Exact), &spec),
            (QUICK_DRL_WORK, QUICK_DRL_INPUT_TABLE)
        );
        assert_eq!(
            quick_work(quick_drl(false, Precision::Exact), &spec),
            (QUICK_DRL_UNCACHED_WORK, none)
        );
    }
}

/// The quick searches on an arrival stream: the union makespan, each
/// job's JCT and the search work, on a single box and on three machines.
#[test]
fn quick_stream_searches_do_golden_work() {
    let [single, three] = STREAM_GOLDEN;
    for spec in clusters() {
        assert_eq!(stream_runs(&spec), single);
    }
    assert_eq!(stream_runs(&three_machines()), three);
}

/// Fast-precision schedules are not pinned: `f32` rounding may flip a
/// near-tie. Every one must still pass all three diffcheck judges. (The
/// eval cache is bit-transparent within a precision, so one setting
/// covers both.)
#[test]
fn fast_quick_searches_pass_the_judges() {
    for spec in clusters() {
        let mut scheduler = quick_drl(false, Precision::Fast);
        for dag in quick_dags() {
            let schedule = scheduler
                .schedule(&dag, &spec)
                .expect("workload fits cluster");
            let queue = JobQueue::single(dag).expect("one job forms a queue");
            let tri = check_schedule(&queue, &spec, &schedule);
            assert!(tri.all_ok(), "{}", tri.summary());
        }
    }
}

/// The frontier fingerprint after every step of a seeded episode, on the
/// unit box and on three machines.
#[test]
fn cache_keys_match_golden_trails() {
    let [unit, _] = clusters();
    assert_eq!([key_trail(&unit), key_trail(&three_machines())], KEY_GOLDEN);
}

/// Training leaves the same bits: the kernels behind `backward` and the
/// optimizer step, and the rollout rows REINFORCE samples from, may get
/// faster but never change a weight.
#[test]
fn training_matches_golden_bits() {
    assert_eq!(train_hashes(), TRAIN_GOLDEN);
}

/// A one-machine set keys every state exactly like the unit box, so the
/// DRL search's cache hits do not depend on how a single box is spelled.
#[test]
fn a_one_machine_set_keys_like_the_unit_box() {
    let [unit, one] = clusters();
    assert_eq!(key_trail(&one), key_trail(&unit));
}

/// Prints the current tables; run with `-- --ignored --nocapture` to
/// regenerate the constants above.
#[test]
#[ignore = "generator for the golden constants, not a check"]
fn print_golden_tables() {
    let unit = ClusterSpec::unit(2);
    for (name, results) in [
        ("PURE", run(pure_scheduler(), &unit)),
        ("DRL", run(drl_scheduler(), &unit)),
        ("ENV_DRIVER", run_env_driver(&unit)),
    ] {
        println!("const {name}_GOLDEN: [(u64, u64); GOLDEN_DAGS] = [");
        for (makespan, fp) in results {
            println!("    ({makespan}, {fp:#018x}),");
        }
        println!("];");
    }
    println!("const BASELINE_GOLDEN: [[[(u64, u64); GOLDEN_DAGS]; 5]; 2] = [");
    for spec in [unit.clone(), three_machines()] {
        println!("    [");
        for row in run_baselines(&spec) {
            println!("        [");
            for (makespan, fp) in row {
                println!("            ({makespan}, {fp:#018x}),");
            }
            println!("        ],");
        }
        println!("    ],");
    }
    println!("];");
    let [tiny, paper] = train_hashes();
    println!("const TRAIN_GOLDEN: [u64; 2] = [{tiny:#018x}, {paper:#018x}];");
    let [(a, ka), (b, kb)] = [key_trail(&unit), key_trail(&three_machines())];
    println!("const KEY_GOLDEN: [(usize, u64); 2] = [({a}, {ka:#018x}), ({b}, {kb:#018x})];");
    for (name, scheduler) in [
        ("PURE", quick_pure()),
        ("DRL", quick_drl(true, Precision::Exact)),
        ("DRL_UNCACHED", quick_drl(false, Precision::Exact)),
    ] {
        let (work, input) = quick_work(scheduler, &unit);
        println!("const QUICK_{name}_WORK: SearchStats = {work:#?};");
        println!("// input table: {input:?}");
    }
    for (suffix, spec) in [("", unit), ("_3", three_machines())] {
        let [pure, drl, uncached] = stream_runs(&spec);
        println!("const STREAM_PURE{suffix}: StreamRun = {pure:#?};");
        println!("const STREAM_DRL{suffix}: StreamRun = {drl:#?};");
        println!("// uncached forwards: {}", uncached.work.policy_inferences);
    }
}
