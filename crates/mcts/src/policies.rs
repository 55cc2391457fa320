//! Expansion and rollout policies: random (classic MCTS), greedy
//! heuristic, and DRL-guided (Spear).

use rand::rngs::StdRng;
use rand::Rng;
use spear_cluster::env::{DecisionPolicy, SimEnv};
use spear_cluster::{Action, ClusterSpec, SimState};
use spear_dag::analysis::GraphFeatures;
use spear_dag::{Dag, TaskId};
use spear_nn::{
    softmax_masked_f32_into, softmax_masked_into, ForwardScratch, InferScratch, InferenceEngine,
    Precision,
};
use spear_rl::{input_key, EvalCache, EvalCacheStats, FeatureConfig, PolicyNetwork, StateView};

/// Read-only context handed to policies at every decision.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// The job being scheduled.
    pub dag: &'a Dag,
    /// The cluster.
    pub spec: &'a ClusterSpec,
    /// Precomputed graph features of the job.
    pub features: &'a GraphFeatures,
}

/// A policy guiding MCTS in two places: picking which untried action to
/// *expand*, and picking actions during the *rollout* simulation.
///
/// Classic MCTS uses [`RandomPolicy`] for both; Spear substitutes the
/// trained [`DrlPolicy`].
pub trait SearchPolicy {
    /// Picks one of `untried` to expand (returns an index into `untried`).
    ///
    /// `untried` is never empty.
    fn choose_expansion(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        untried: &[Action],
        rng: &mut StdRng,
    ) -> usize;

    /// Picks one of `legal` during a rollout.
    ///
    /// `legal` is never empty.
    fn choose_rollout(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action;

    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Cumulative policy-network forward passes this policy has run.
    /// Non-learned policies report zero.
    fn inferences(&self) -> u64 {
        0
    }

    /// Notifies the policy that a new scheduling episode (one complete
    /// schedule of one DAG) is starting. Cached policies clear their
    /// transposition tables here: within an episode the DAG, spec,
    /// graph features, and network weights are fixed, so
    /// fingerprint-keyed entries stay valid across the episode's
    /// decisions — but entries from a previous episode index a
    /// different state space and must not survive into this one.
    fn on_episode_start(&mut self) {}

    /// Hit/miss/evict counters of the policy's inference cache (for
    /// [`DrlPolicy`], its frontier table). Uncached policies report
    /// zeros.
    fn cache_stats(&self) -> EvalCacheStats {
        EvalCacheStats::default()
    }

    /// Hit/miss/evict counters of [`DrlPolicy`]'s input table, probed on
    /// each frontier-table miss: its hits are the misses that ran no
    /// forward pass. Other policies report zeros.
    fn input_cache_stats(&self) -> EvalCacheStats {
        EvalCacheStats::default()
    }

    /// Inferences skipped because the decision was forced (a single
    /// untried/legal action). Distinct from cache hits: a skip never
    /// consults the network's distribution at all.
    fn inference_skips(&self) -> u64 {
        0
    }
}

/// Adapts the rollout half of a [`SearchPolicy`] to the environment
/// layer's [`DecisionPolicy`], so rollouts run on the shared
/// [`EpisodeDriver`](spear_cluster::env::EpisodeDriver). At every decision
/// the adapter enumerates the legal actions into `legal`, the search's
/// reused scratch buffer, and rebuilds the richer [`PolicyContext`] —
/// which carries the precomputed graph features the env layer
/// deliberately does not know about — from the environment.
pub(crate) struct RolloutAdapter<'p, 'f, 'l, P: SearchPolicy + ?Sized> {
    pub policy: &'p mut P,
    pub features: &'f GraphFeatures,
    pub legal: &'l mut Vec<Action>,
}

impl<P: SearchPolicy + ?Sized> DecisionPolicy<StdRng> for RolloutAdapter<'_, '_, '_, P> {
    fn decide(&mut self, env: &SimEnv<'_>, rng: &mut StdRng) -> Action {
        env.legal_into(self.legal);
        let ctx = PolicyContext {
            dag: env.dag(),
            spec: env.spec(),
            features: self.features,
        };
        self.policy
            .choose_rollout(&ctx, env.observe(), self.legal, rng)
    }
}

/// Random choices — classic MCTS.
///
/// Expansion is uniformly random over the untried actions. Rollouts are
/// *work-conserving* random: uniform over the schedulable tasks, taking
/// `process` only when nothing fits. A rollout that idles the cluster at
/// random produces makespans no real executor would, drowning the value
/// signal in noise; restricting rollouts to work-conserving schedules
/// keeps them unbiased over the space any list scheduler can reach, while
/// the *tree* still explores deliberate idling through its `process`
/// edges. (Verified to dominate fully-uniform rollouts at every budget —
/// see the `rollout` ablation in `spear-bench`.)
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPolicy;

impl SearchPolicy for RandomPolicy {
    fn choose_expansion(
        &mut self,
        _ctx: &PolicyContext<'_>,
        _state: &SimState,
        untried: &[Action],
        rng: &mut StdRng,
    ) -> usize {
        rng.gen_range(0..untried.len())
    }

    fn choose_rollout(
        &mut self,
        _ctx: &PolicyContext<'_>,
        _state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action {
        let schedulable = legal
            .iter()
            .filter(|a| !matches!(a, Action::Process))
            .count();
        if schedulable == 0 {
            return Action::Process;
        }
        *legal
            .iter()
            .filter(|a| !matches!(a, Action::Process))
            .nth(rng.gen_range(0..schedulable))
            .expect("counted above")
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Fully uniform random choices, including `process` while tasks still
/// fit — the ablation comparator for [`RandomPolicy`]'s work-conserving
/// rollouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPolicy;

impl SearchPolicy for UniformPolicy {
    fn choose_expansion(
        &mut self,
        _ctx: &PolicyContext<'_>,
        _state: &SimState,
        untried: &[Action],
        rng: &mut StdRng,
    ) -> usize {
        rng.gen_range(0..untried.len())
    }

    fn choose_rollout(
        &mut self,
        _ctx: &PolicyContext<'_>,
        _state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action {
        legal[rng.gen_range(0..legal.len())]
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Greedy packing guidance: prefers scheduling the task with the largest
/// Tetris alignment score, falling back to `process` last. A cheap
/// learned-policy stand-in used in ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicPolicy;

impl HeuristicPolicy {
    fn score(ctx: &PolicyContext<'_>, state: &SimState, action: Action) -> f64 {
        match action {
            // Process only when nothing else scores: rank below any task.
            Action::Process => f64::NEG_INFINITY,
            // Align against the target machine's free vector, so the
            // packer prefers the machine the task fits best.
            Action::Place(t, m) => ctx.dag.task(t).demand().dot(state.machine_free(m)),
        }
    }
}

impl SearchPolicy for HeuristicPolicy {
    fn choose_expansion(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        untried: &[Action],
        _rng: &mut StdRng,
    ) -> usize {
        let mut best = 0;
        for i in 1..untried.len() {
            if Self::score(ctx, state, untried[i]) > Self::score(ctx, state, untried[best]) {
                best = i;
            }
        }
        best
    }

    fn choose_rollout(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        legal: &[Action],
        _rng: &mut StdRng,
    ) -> Action {
        let mut best = legal[0];
        let mut best_score = Self::score(ctx, state, best);
        for &a in &legal[1..] {
            let s = Self::score(ctx, state, a);
            if s > best_score {
                best = a;
                best_score = s;
            }
        }
        best
    }

    fn name(&self) -> &str {
        "heuristic"
    }
}

/// The trained DRL agent as search guidance (the Spear configuration).
///
/// * **Expansion** picks the untried action to which the policy assigns the
///   highest probability — "the DRL agent effectively sorts the actions by
///   how promising they are" (§III-C).
/// * **Rollout** samples from the policy's masked distribution, giving
///   informed but still stochastic simulations.
///
/// Untried actions the network cannot see (tasks beyond the visible ready
/// window) inherit a tiny epsilon probability so they are expanded last
/// rather than never.
#[derive(Debug, Clone)]
pub struct DrlPolicy {
    policy: PolicyNetwork,
    // Forward passes actually run: hits in either table do not count.
    inferences: u64,
    skips: u64,
    backend: Backend,
    // Reused across inferences: the featurizer's ready ordering, the
    // featurized view, and the per-action probabilities handed back to
    // the search. Rollouts run one inference per step, so without these
    // the guidance path would allocate its way through every simulation.
    ready: Vec<TaskId>,
    view: StateView,
    action_probs: Vec<f64>,
}

/// The numeric mode's forward pass with its scratch, and the tables and
/// probability row of its row scalar.
#[derive(Debug, Clone)]
enum Backend {
    /// The golden-checked `f64` path.
    Exact {
        scratch: ForwardScratch,
        rows: Rows<f64>,
    },
    /// The `f32` engine snapshot. The masked softmax stays in `f32`, so a
    /// cached row replays exactly, and the upcast to `f64` at the
    /// sampling boundary is exact.
    Fast {
        engine: InferenceEngine,
        scratch: InferScratch,
        rows: Rows<f32>,
    },
}

/// One row precision's transposition tables and probability row.
#[derive(Debug, Clone)]
struct Rows<R> {
    /// `None` when disabled for differential testing
    /// (`MctsConfig::eval_cache = false`).
    tables: Option<Tables<R>>,
    /// The row of the latest frontier-table miss.
    probs: Vec<R>,
}

/// The policy's two generation-cleared tables, cleared at each episode
/// start. Rollouts revisit identical frontiers along different tree paths
/// (and consecutive decisions re-explore overlapping subtrees), and
/// different frontiers can featurize identically.
#[derive(Debug, Clone)]
struct Tables<R> {
    /// Keyed by [`SimState::frontier_fingerprint`] and probed before
    /// featurizing; a row plus the slot → task assignment that gives it
    /// meaning.
    frontier: EvalCache<R>,
    /// Keyed by [`input_key`] of the featurized input and probed before
    /// the forward pass; rows alone.
    input: EvalCache<R>,
}

/// Entries in each of [`DrlPolicy`]'s two exact-precision tables; fast
/// precision holds twice as many `f32` rows. Both exact tables take
/// 5.7 MB, both fast ones 7.2 MB (DESIGN.md §9 has the budget).
const POLICY_TABLE_ENTRIES: usize = 16_384;

impl<R: Copy + Default + Into<f64>> Rows<R> {
    fn new(eval_cache: bool, entries: usize, fc: &FeatureConfig) -> Self {
        let (action_dim, max_ready) = (fc.action_dim(), fc.process_action());
        Rows {
            tables: eval_cache.then(|| Tables {
                frontier: EvalCache::new(entries, action_dim, max_ready),
                input: EvalCache::new(entries, action_dim, 0),
            }),
            probs: Vec::new(),
        }
    }

    fn begin_episode(&mut self) {
        if let Some(tables) = self.tables.as_mut() {
            tables.frontier.begin_generation();
            tables.input.begin_generation();
        }
    }

    fn stats(&self) -> (EvalCacheStats, EvalCacheStats) {
        self.tables
            .as_ref()
            .map(|t| (t.frontier.stats(), t.input.stats()))
            .unwrap_or_default()
    }

    /// Writes the probability of each of `actions` into `out` and returns
    /// whether a forward pass ran. Probes the frontier table; on a miss
    /// featurizes into `view` and probes the input table; on a second
    /// miss runs `forward` (forward pass + masked softmax into the row)
    /// and fills both tables. Under fixed weights the row is a pure
    /// function of the input and the mask, so every hit replays the row
    /// the miss path computes, bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn action_probs(
        &mut self,
        state: &SimState,
        actions: &[Action],
        process: usize,
        view: &mut StateView,
        out: &mut Vec<f64>,
        featurize: impl FnOnce(&mut StateView),
        forward: impl FnOnce(&StateView, &mut Vec<R>),
    ) -> bool {
        let frontier_key = self.tables.as_ref().map(|_| state.frontier_fingerprint());
        if let (Some(tables), Some(key)) = (self.tables.as_mut(), frontier_key) {
            if let Some((probs, slots)) = tables.frontier.get(key) {
                map_onto(out, actions, probs, process, |t| slots.position(t));
                return false;
            }
        }
        featurize(view);
        let mut ran = true;
        match (self.tables.as_mut(), frontier_key) {
            (Some(tables), Some(key)) => {
                let input = input_key(&view.features, &view.mask);
                if let Some((row, _)) = tables.input.get(input) {
                    self.probs.clear();
                    self.probs.extend_from_slice(row);
                    ran = false;
                } else {
                    forward(view, &mut self.probs);
                    tables.input.insert(input, &self.probs, &[]);
                }
                tables.frontier.insert(key, &self.probs, &view.slot_tasks);
            }
            _ => forward(view, &mut self.probs),
        }
        map_onto(out, actions, &self.probs, process, |t| {
            view.slot_tasks.iter().position(|&s| s == Some(t))
        });
        ran
    }
}

/// Maps a probability row onto `actions`: `process` is the process
/// action's index in the row and `slot_of` finds a task's slot.
fn map_onto<R: Copy + Into<f64>>(
    out: &mut Vec<f64>,
    actions: &[Action],
    probs: &[R],
    process: usize,
    slot_of: impl Fn(TaskId) -> Option<usize>,
) {
    out.clear();
    out.extend(actions.iter().map(|&a| match a {
        Action::Process => probs[process].into(),
        // A `Place` inherits its task's probability: the policy head
        // stays task-indexed and the machine choice is resolved at the
        // sampling boundary. Backlogged tasks are invisible to the
        // network.
        Action::Place(t, _) => slot_of(t).map_or(1e-9, |slot| probs[slot].into()),
    }));
}

impl DrlPolicy {
    /// Wraps a trained policy network, caching inferences by frontier
    /// and by network input iff `eval_cache` is set, in numeric mode
    /// `precision`. Cache hits reproduce the uncached distribution
    /// bit-identically, so caching only trades memory for speed; disabling
    /// it is for differential testing. `Exact` is the golden-checked `f64`
    /// path. `Fast` snapshots the weights into an `f32` [`InferenceEngine`]
    /// and caches `f32` rows — half the footprint per row, so its tables
    /// hold twice the entries. Within fast mode, cached and uncached runs
    /// still agree bit-for-bit: the masked softmax is computed entirely in
    /// `f32`, so a cached row replays exactly, and the upcast to `f64` at
    /// the sampling boundary is exact.
    pub fn with_cache_precision(
        policy: PolicyNetwork,
        eval_cache: bool,
        precision: Precision,
    ) -> Self {
        let fc = policy.feature_config();
        let backend = match precision {
            Precision::Exact => Backend::Exact {
                scratch: ForwardScratch::default(),
                rows: Rows::new(eval_cache, POLICY_TABLE_ENTRIES, fc),
            },
            Precision::Fast => Backend::Fast {
                engine: policy.inference_engine(),
                scratch: InferScratch::new(),
                rows: Rows::new(eval_cache, 2 * POLICY_TABLE_ENTRIES, fc),
            },
        };
        DrlPolicy {
            policy,
            inferences: 0,
            skips: 0,
            backend,
            ready: Vec::new(),
            view: StateView::default(),
            action_probs: Vec::new(),
        }
    }

    /// The numeric mode this policy runs its forward passes in.
    pub fn precision(&self) -> Precision {
        match self.backend {
            Backend::Exact { .. } => Precision::Exact,
            Backend::Fast { .. } => Precision::Fast,
        }
    }

    /// The wrapped network.
    pub fn policy(&self) -> &PolicyNetwork {
        &self.policy
    }

    /// Probability the network assigns to each action in `actions`. The
    /// returned slice borrows the policy's scratch buffer and has one entry
    /// per action.
    ///
    /// The frontier table's key is [`SimState::frontier_fingerprint`],
    /// not the full state fingerprint: the policy featurization reads
    /// only the frontier (ready set, running tasks at clock-relative
    /// offsets, `used`, completion count), so rollout trajectories that
    /// placed finished work differently — or at different absolute
    /// clocks — but reconverged to the same frontier share one entry.
    /// Different frontiers can still featurize identically; the input
    /// table catches those before the forward pass.
    fn action_probs(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        actions: &[Action],
    ) -> &[f64] {
        let DrlPolicy {
            policy,
            inferences,
            backend,
            ready,
            view,
            action_probs,
            ..
        } = self;
        let process = policy.feature_config().process_action();
        let featurize = |view: &mut StateView| {
            policy
                .featurizer()
                .featurize_into(ctx.dag, ctx.spec, state, ctx.features, ready, view);
        };
        let ran = match backend {
            Backend::Exact { scratch, rows } => rows.action_probs(
                state,
                actions,
                process,
                view,
                action_probs,
                featurize,
                |view, probs| {
                    let logits = policy.net().forward_one_into(&view.features, scratch);
                    softmax_masked_into(logits, &view.mask, probs);
                },
            ),
            Backend::Fast {
                engine,
                scratch,
                rows,
            } => rows.action_probs(
                state,
                actions,
                process,
                view,
                action_probs,
                featurize,
                |view, probs| {
                    let logits = engine.forward_one(&view.features, scratch);
                    softmax_masked_f32_into(logits, &view.mask, probs);
                },
            ),
        };
        *inferences += u64::from(ran);
        action_probs
    }

    /// Lifetime hit/miss/evict counters of the (frontier, input) tables;
    /// zeros with the eval cache off.
    fn table_stats(&self) -> (EvalCacheStats, EvalCacheStats) {
        match &self.backend {
            Backend::Exact { rows, .. } => rows.stats(),
            Backend::Fast { rows, .. } => rows.stats(),
        }
    }
}

impl SearchPolicy for DrlPolicy {
    fn choose_expansion(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        untried: &[Action],
        _rng: &mut StdRng,
    ) -> usize {
        // A single candidate needs no inference: the argmax is forced.
        if untried.len() == 1 {
            self.skips += 1;
            return 0;
        }
        let probs = self.action_probs(ctx, state, untried);
        let mut best = 0;
        for i in 1..probs.len() {
            if probs[i] > probs[best] {
                best = i;
            }
        }
        best
    }

    fn choose_rollout(
        &mut self,
        ctx: &PolicyContext<'_>,
        state: &SimState,
        legal: &[Action],
        rng: &mut StdRng,
    ) -> Action {
        // A single legal action (usually a forced `process` on a saturated
        // cluster) needs no inference — a sizable share of rollout steps.
        // The network assigns a lone legal action positive probability
        // (masked softmax over its own mask, or the backlog epsilon), so
        // the full path below would always take the one-draw sampling
        // branch; drawing here keeps the RNG stream — and therefore every
        // downstream decision — bit-identical.
        if legal.len() == 1 {
            self.skips += 1;
            let _: f64 = rng.gen();
            return legal[0];
        }
        let probs = self.action_probs(ctx, state, legal);
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            return legal[rng.gen_range(0..legal.len())];
        }
        let x: f64 = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        for (a, &p) in legal.iter().zip(probs) {
            acc += p;
            if x < acc {
                return *a;
            }
        }
        *legal.last().expect("legal is never empty")
    }

    fn name(&self) -> &str {
        "drl"
    }

    fn inferences(&self) -> u64 {
        self.inferences
    }

    fn on_episode_start(&mut self) {
        match &mut self.backend {
            Backend::Exact { rows, .. } => rows.begin_episode(),
            Backend::Fast { rows, .. } => rows.begin_episode(),
        }
    }

    fn cache_stats(&self) -> EvalCacheStats {
        self.table_stats().0
    }

    fn input_cache_stats(&self) -> EvalCacheStats {
        self.table_stats().1
    }

    fn inference_skips(&self) -> u64 {
        self.skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spear_dag::{DagBuilder, ResourceVec, Task, TaskId};
    use spear_rl::FeatureConfig;

    fn setup() -> (Dag, ClusterSpec, GraphFeatures) {
        let mut b = DagBuilder::new(2);
        b.add_task(Task::new(4, ResourceVec::from_slice(&[0.7, 0.2])));
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.2, 0.2])));
        b.add_task(Task::new(3, ResourceVec::from_slice(&[0.1, 0.6])));
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(2);
        let features = GraphFeatures::compute(&dag);
        (dag, spec, features)
    }

    #[test]
    fn random_policy_stays_in_range() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let state = SimState::new(&dag, &spec).unwrap();
        let legal = state.legal_actions(&dag);
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = RandomPolicy;
        for _ in 0..50 {
            let idx = policy.choose_expansion(&ctx, &state, &legal, &mut rng);
            assert!(idx < legal.len());
            let a = policy.choose_rollout(&ctx, &state, &legal, &mut rng);
            assert!(legal.contains(&a));
        }
    }

    #[test]
    fn heuristic_prefers_best_aligned_task() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let state = SimState::new(&dag, &spec).unwrap();
        let legal = state.legal_actions(&dag);
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = HeuristicPolicy;
        // Free = [1,1]: task 0 has the highest dot product (0.9).
        let a = policy.choose_rollout(&ctx, &state, &legal, &mut rng);
        assert_eq!(a, Action::Place(TaskId::new(0), 0));
    }

    #[test]
    fn heuristic_prefers_any_task_over_process() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let mut state = SimState::new(&dag, &spec).unwrap();
        state.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        // Legal now: schedule 1 or 2 (both fit), or process.
        let legal = state.legal_actions(&dag);
        assert!(legal.contains(&Action::Process));
        let mut rng = StdRng::seed_from_u64(0);
        let a = HeuristicPolicy.choose_rollout(&ctx, &state, &legal, &mut rng);
        assert_ne!(a, Action::Process);
    }

    #[test]
    fn drl_policy_produces_legal_choices() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[12], &mut rng);
        let mut policy = DrlPolicy::with_cache_precision(net, true, Precision::Exact);
        let mut state = SimState::new(&dag, &spec).unwrap();
        while !state.is_terminal(&dag) {
            let legal = state.legal_actions(&dag);
            let idx = policy.choose_expansion(&ctx, &state, &legal, &mut rng);
            assert!(idx < legal.len());
            let a = policy.choose_rollout(&ctx, &state, &legal, &mut rng);
            assert!(legal.contains(&a));
            state.apply(&dag, a).unwrap();
        }
    }

    #[test]
    fn policy_names() {
        let (_, _, _) = setup();
        assert_eq!(RandomPolicy.name(), "random");
        assert_eq!(HeuristicPolicy.name(), "heuristic");
    }

    /// Cached and uncached policies must make identical choices from
    /// identical RNG streams — revisiting states repeatedly so the cache
    /// actually serves hits (asserted), not just misses.
    #[test]
    fn cached_policy_choices_match_uncached_bitwise() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[12], &mut rng);
        let mut cached = DrlPolicy::with_cache_precision(net.clone(), true, Precision::Exact);
        let mut uncached = DrlPolicy::with_cache_precision(net, false, Precision::Exact);
        let state = SimState::new(&dag, &spec).unwrap();
        let legal = state.legal_actions(&dag);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let ia = cached.choose_expansion(&ctx, &state, &legal, &mut rng_a);
            let ib = uncached.choose_expansion(&ctx, &state, &legal, &mut rng_b);
            assert_eq!(ia, ib);
            let aa = cached.choose_rollout(&ctx, &state, &legal, &mut rng_a);
            let ab = uncached.choose_rollout(&ctx, &state, &legal, &mut rng_b);
            assert_eq!(aa, ab);
        }
        assert!(cached.cache_stats().hits > 0, "repeat visits must hit");
        assert_eq!(cached.cache_stats().misses, 1);
        assert_eq!(uncached.cache_stats(), EvalCacheStats::default());
        assert!(uncached.inferences() > cached.inferences());
        // An episode boundary invalidates the cache: next probe misses.
        // (Decision boundaries within an episode do NOT invalidate —
        // retention across decisions is where most hits come from.)
        cached.on_episode_start();
        let mut rng_c = StdRng::seed_from_u64(3);
        let _ = cached.choose_rollout(&ctx, &state, &legal, &mut rng_c);
        assert_eq!(cached.cache_stats().misses, 2);
    }

    /// The fast-mode transparency contract: within `Precision::Fast`,
    /// cached and uncached policies make bit-identical choices (the
    /// `f32` softmax round-trips exactly through the `f32` cache).
    #[test]
    fn fast_cached_policy_choices_match_fast_uncached_bitwise() {
        let (dag, spec, features) = setup();
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let net = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[12], &mut rng);
        let mut cached = DrlPolicy::with_cache_precision(net.clone(), true, Precision::Fast);
        let mut uncached = DrlPolicy::with_cache_precision(net, false, Precision::Fast);
        assert_eq!(cached.precision(), Precision::Fast);
        let state = SimState::new(&dag, &spec).unwrap();
        let legal = state.legal_actions(&dag);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let ia = cached.choose_expansion(&ctx, &state, &legal, &mut rng_a);
            let ib = uncached.choose_expansion(&ctx, &state, &legal, &mut rng_b);
            assert_eq!(ia, ib);
            let aa = cached.choose_rollout(&ctx, &state, &legal, &mut rng_a);
            let ab = uncached.choose_rollout(&ctx, &state, &legal, &mut rng_b);
            assert_eq!(aa, ab);
        }
        assert!(cached.cache_stats().hits > 0, "repeat visits must hit");
        assert_eq!(cached.cache_stats().misses, 1);
        assert!(uncached.inferences() > cached.inferences());
    }
}
