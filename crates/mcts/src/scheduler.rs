//! The MCTS scheduler: budgeted decision loop around [`MctsSearch`].

use serde::{Deserialize, Serialize};
use spear_cluster::env::SimEnv;
use spear_cluster::{ClusterSpec, JobQueue, Schedule, SimState, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;
use spear_obs::{Counter, Histogram, Obs};
use spear_rl::PolicyNetwork;
use spear_sched::Scheduler;

use crate::{BudgetSchedule, DrlPolicy, HeuristicPolicy, MctsSearch, RandomPolicy, SearchPolicy};

/// Configuration of the MCTS scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MctsConfig {
    /// Iteration budget at the first decision (paper: 1000 for pure MCTS,
    /// 100 for Spear).
    pub initial_budget: u64,
    /// Budget floor at deep decisions (paper: 100 / 50).
    pub min_budget: u64,
    /// Exploration coefficient; the effective UCB constant is this value
    /// times a greedy (Tetris) makespan estimate of the job, matching the
    /// paper's "same order as the makespan of the DAG" guidance.
    pub exploration_coeff: f64,
    /// Use the budget decay of Eq. 4; `false` keeps the initial budget at
    /// every depth (ablation).
    pub decay_budget: bool,
    /// Exploit the *maximum* rollout return per node (paper Eq. 5);
    /// `false` falls back to classic mean-value UCB (ablation).
    pub max_value_backprop: bool,
    /// Cache policy inferences (by frontier fingerprint, then by network
    /// input) within each scheduling episode. Hits are bit-identical to
    /// recomputation, so this is on by default; disable
    /// (`--no-eval-cache` on the CLI) for differential testing.
    /// (Deserializing a config serialized before this field existed
    /// yields `false` — the safe, slower setting.)
    #[serde(default)]
    pub eval_cache: bool,
    /// RNG seed for rollouts and tie-breaking.
    pub seed: u64,
    /// Numeric precision of policy inference during search.
    /// `Exact` (the default, and what configs serialized before this
    /// field existed deserialize to) runs the training-grade `f64`
    /// forward pass and stays bit-identical to earlier releases; `Fast`
    /// snapshots the weights into the lane-padded `f32`
    /// [`InferenceEngine`](spear_nn::InferenceEngine) and doubles the
    /// eval-cache capacity at the same memory budget. Training is never
    /// affected — only inference inside the search loop.
    #[serde(default)]
    pub nn_precision: spear_nn::Precision,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            initial_budget: 1000,
            min_budget: 100,
            exploration_coeff: 0.06,
            decay_budget: true,
            max_value_backprop: true,
            eval_cache: true,
            seed: 0,
            nn_precision: spear_nn::Precision::default(),
        }
    }
}

impl MctsConfig {
    /// The budget schedule implied by this config.
    pub fn budget(&self) -> BudgetSchedule {
        if self.decay_budget {
            BudgetSchedule::new(self.initial_budget, self.min_budget)
        } else {
            BudgetSchedule::flat(self.initial_budget)
        }
    }
}

/// Statistics of one scheduling run, reported by
/// [`MctsScheduler::schedule_with_stats`] (feeds Table I and the
/// ablations).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Total MCTS iterations across all decisions.
    pub iterations: u64,
    /// Total simulated rollout steps.
    pub rollout_steps: u64,
    /// Total tree nodes allocated.
    pub tree_nodes: usize,
    /// Number of decisions (tree re-rootings) taken.
    pub decisions: u64,
    /// Policy-network forward passes actually run (zero for non-DRL
    /// policies): a hit in either policy table runs none.
    #[serde(default)]
    pub policy_inferences: u64,
    /// Inferences served from the policy's fingerprint-keyed frontier
    /// table.
    #[serde(default)]
    pub cache_hits: u64,
    /// Cache probes that found nothing and fell through: for the policy,
    /// to featurization and its input table
    /// ([`SearchPolicy::input_cache_stats`]).
    #[serde(default)]
    pub cache_misses: u64,
    /// Live cache entries displaced by inserts under capacity pressure.
    #[serde(default)]
    pub cache_evictions: u64,
    /// Inferences skipped outright because the decision was forced (a
    /// single untried/legal action) — distinct from cache hits, which
    /// still consult a stored distribution.
    #[serde(default)]
    pub inference_skips: u64,
    /// Wall-clock seconds spent searching.
    pub elapsed_seconds: f64,
}

impl SearchStats {
    /// Combines the stats of two searches that ran concurrently on the
    /// same job (root-parallel workers): every counter is
    /// summed, while `elapsed_seconds` takes the maximum because the
    /// workers' wall-clock intervals overlap — summing them would
    /// double-count real time and make derived rates (iterations per
    /// second) meaningless.
    #[must_use]
    pub fn merged(self, other: SearchStats) -> SearchStats {
        SearchStats {
            iterations: self.iterations + other.iterations,
            rollout_steps: self.rollout_steps + other.rollout_steps,
            tree_nodes: self.tree_nodes + other.tree_nodes,
            decisions: self.decisions + other.decisions,
            policy_inferences: self.policy_inferences + other.policy_inferences,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            inference_skips: self.inference_skips + other.inference_skips,
            elapsed_seconds: self.elapsed_seconds.max(other.elapsed_seconds),
        }
    }
}

/// The scheduler's search instruments: per-episode totals mirrored from
/// [`SearchStats`] plus the per-decision distributions only the registry
/// sees (wall time, lookahead depth). Built lazily once an enabled sink
/// is attached.
#[derive(Debug, Clone)]
struct SearchObs {
    episodes: Counter,
    decisions: Counter,
    iterations: Counter,
    rollout_steps: Counter,
    policy_inferences: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    inference_skips: Counter,
    decision_ns: Histogram,
    tree_depth: Histogram,
    tree_nodes: Histogram,
    schedule_ns: Histogram,
}

impl SearchObs {
    fn new(obs: &Obs) -> Self {
        SearchObs {
            episodes: obs.counter("mcts.episodes"),
            decisions: obs.counter("mcts.decisions"),
            iterations: obs.counter("mcts.iterations"),
            rollout_steps: obs.counter("mcts.rollout_steps"),
            policy_inferences: obs.counter("mcts.policy_inferences"),
            cache_hits: obs.counter("mcts.cache_hits"),
            cache_misses: obs.counter("mcts.cache_misses"),
            cache_evictions: obs.counter("mcts.cache_evictions"),
            inference_skips: obs.counter("mcts.inference_skips"),
            decision_ns: obs.histogram("mcts.decision_ns"),
            tree_depth: obs.histogram("mcts.tree_depth"),
            tree_nodes: obs.histogram("mcts.tree_nodes"),
            schedule_ns: obs.histogram("mcts.schedule_ns"),
        }
    }

    fn record_stats(&self, stats: &SearchStats) {
        self.episodes.incr();
        self.decisions.add(stats.decisions);
        self.iterations.add(stats.iterations);
        self.rollout_steps.add(stats.rollout_steps);
        self.policy_inferences.add(stats.policy_inferences);
        self.cache_hits.add(stats.cache_hits);
        self.cache_misses.add(stats.cache_misses);
        self.cache_evictions.add(stats.cache_evictions);
        self.inference_skips.add(stats.inference_skips);
        self.tree_nodes.record(stats.tree_nodes as u64);
        self.schedule_ns
            .record((stats.elapsed_seconds * 1e9) as u64);
    }
}

/// A scheduler that runs budgeted MCTS for every decision.
///
/// * [`MctsScheduler::pure`] — classic MCTS with random expansion/rollout
///   (the paper's "MCTS" baseline);
/// * [`MctsScheduler::heuristic`] — greedy Tetris-scored guidance
///   (ablation);
/// * [`MctsScheduler::drl`] — guided by a trained policy network: this is
///   **Spear**.
///
/// An [`Obs`] sink attached via [`MctsScheduler::with_obs`] records the
/// `mcts.*` metric family: the [`SearchStats`] totals as counters plus the
/// per-decision wall-time and tree-depth distributions that the ad-hoc
/// stats struct cannot carry. Instrumentation never influences the
/// search; without the `obs` feature it compiles to nothing.
pub struct MctsScheduler {
    config: MctsConfig,
    policy: Box<dyn SearchPolicy + Send>,
    name: String,
    obs: Obs,
    search_obs: Option<SearchObs>,
}

impl std::fmt::Debug for MctsScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MctsScheduler")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl MctsScheduler {
    /// Classic MCTS: random expansion and (work-conserving) random
    /// rollout — see [`RandomPolicy`].
    pub fn pure(config: MctsConfig) -> Self {
        MctsScheduler {
            config,
            policy: Box::new(RandomPolicy),
            name: "mcts".to_owned(),
            obs: Obs::noop(),
            search_obs: None,
        }
    }

    /// MCTS guided by the greedy packing heuristic.
    pub fn heuristic(config: MctsConfig) -> Self {
        MctsScheduler {
            config,
            policy: Box::new(HeuristicPolicy),
            name: "mcts-heuristic".to_owned(),
            obs: Obs::noop(),
            search_obs: None,
        }
    }

    /// MCTS guided by a trained DRL policy — the full Spear scheduler.
    pub fn drl(config: MctsConfig, policy: PolicyNetwork) -> Self {
        let policy = Box::new(DrlPolicy::with_cache_precision(
            policy,
            config.eval_cache,
            config.nn_precision,
        ));
        MctsScheduler {
            config,
            policy,
            name: "spear".to_owned(),
            obs: Obs::noop(),
            search_obs: None,
        }
    }

    /// Builds with any custom search policy under a custom name.
    pub fn with_policy(
        config: MctsConfig,
        policy: Box<dyn SearchPolicy + Send>,
        name: impl Into<String>,
    ) -> Self {
        MctsScheduler {
            config,
            policy,
            name: name.into(),
            obs: Obs::noop(),
            search_obs: None,
        }
    }

    /// The search policy, for its lifetime counters (such as
    /// [`SearchPolicy::input_cache_stats`], which [`SearchStats`] does
    /// not carry).
    pub fn policy(&self) -> &(dyn SearchPolicy + Send) {
        self.policy.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &MctsConfig {
        &self.config
    }

    /// Attaches a metric sink recording the `mcts.*` family (see the
    /// type-level docs). Pass [`Obs::noop`] to detach.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// In-place variant of [`MctsScheduler::with_obs`].
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.search_obs = None;
    }

    /// Builds the instrument handles on first use; constant-folded away
    /// without the `obs` feature.
    fn prepare_obs(&mut self) {
        if spear_obs::compiled() && self.search_obs.is_none() && self.obs.is_enabled() {
            self.search_obs = Some(SearchObs::new(&self.obs));
        }
    }

    /// Schedules `dag` — the one-job queue that arrives at time 0 — and
    /// reports search statistics alongside.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if the DAG cannot run on the cluster.
    pub fn schedule_with_stats(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, SearchStats), SpearError> {
        self.schedule_multi_with_stats(&JobQueue::single(dag.clone())?, spec)
    }

    /// Schedules a job stream and reports search statistics alongside.
    /// The search tree spans the union DAG; every rollout inherits the
    /// arrival gating through state cloning, so the optimized makespan is
    /// the stream's completion time.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if any job cannot run on the cluster.
    pub fn schedule_multi_with_stats(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<(Schedule, SearchStats), SpearError> {
        // Scale exploration to the makespan magnitude (paper §IV).
        let estimate = spear_sched::greedy_makespan_estimate_multi(queue, spec)? as f64;
        let dag = queue.union_dag();
        let root = SimState::new_multi(queue, spec)?;
        let start = std::time::Instant::now();
        self.prepare_obs();
        let features = GraphFeatures::compute(dag);
        let exploration = self.config.exploration_coeff * estimate.max(1.0);
        let budget = self.config.budget();
        let inferences_before = self.policy.inferences();
        let skips_before = self.policy.inference_skips();
        let cache_before = self.policy.cache_stats();

        let mut search = MctsSearch::from_root_state(
            dag,
            spec,
            &features,
            self.policy.as_mut(),
            exploration,
            self.config.seed,
            root,
        )?;
        search.set_max_value_mode(self.config.max_value_backprop);
        let mut decisions = 0u64;
        while !search.is_terminal() {
            decisions += 1;
            let span = if spear_obs::compiled() {
                self.search_obs
                    .as_ref()
                    .map(|so| so.decision_ns.start_span())
            } else {
                None
            };
            for _ in 0..budget.at_depth(decisions) {
                search.run_iteration();
            }
            let action = search.best_action();
            if spear_obs::compiled() {
                if let Some(so) = &self.search_obs {
                    so.tree_depth.record(search.max_depth());
                }
            }
            search.advance(action)?;
            drop(span);
        }
        let cache = search.policy_cache_stats();
        let stats = SearchStats {
            iterations: search.iterations(),
            rollout_steps: search.rollout_steps(),
            tree_nodes: search.tree_size(),
            decisions,
            policy_inferences: search.policy_inferences() - inferences_before,
            cache_hits: cache.hits - cache_before.hits,
            cache_misses: cache.misses - cache_before.misses,
            cache_evictions: cache.evictions - cache_before.evictions,
            inference_skips: search.policy_inference_skips() - skips_before,
            elapsed_seconds: start.elapsed().as_secs_f64(),
        };
        if spear_obs::compiled() {
            if let Some(so) = &self.search_obs {
                so.record_stats(&stats);
            }
        }
        let schedule =
            SimEnv::from_state(dag, spec, search.root_state().clone()).into_schedule()?;
        Ok((schedule, stats))
    }
}

impl Scheduler for MctsScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        Ok(self.schedule_multi_with_stats(queue, spec)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_rl::FeatureConfig;
    use spear_sched::RandomScheduler;

    fn small_config() -> MctsConfig {
        MctsConfig {
            initial_budget: 40,
            min_budget: 8,
            ..MctsConfig::default()
        }
    }

    fn small_dag(seed: u64) -> Dag {
        LayeredDagSpec {
            num_tasks: 15,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn pure_mcts_schedules_validly() {
        let dag = small_dag(1);
        let spec = ClusterSpec::unit(2);
        let (schedule, stats) = MctsScheduler::pure(small_config())
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        schedule.validate(&dag, &spec).unwrap();
        assert!(stats.iterations > 0);
        assert!(stats.tree_nodes > 1);
        assert!(stats.decisions >= dag.len() as u64);
        assert!(stats.elapsed_seconds >= 0.0);
    }

    #[test]
    fn mcts_beats_random_scheduling() {
        let spec = ClusterSpec::unit(2);
        let mut mcts_total = 0u64;
        let mut random_total = 0u64;
        for seed in 0..3 {
            let dag = small_dag(seed);
            let m = MctsScheduler::pure(MctsConfig {
                initial_budget: 120,
                min_budget: 20,
                seed,
                ..MctsConfig::default()
            })
            .schedule(&dag, &spec)
            .unwrap();
            let r = RandomScheduler::seeded(seed).schedule(&dag, &spec).unwrap();
            mcts_total += m.makespan();
            random_total += r.makespan();
        }
        assert!(
            mcts_total <= random_total,
            "mcts {mcts_total} vs random {random_total}"
        );
    }

    #[test]
    fn mcts_is_deterministic_per_seed() {
        let dag = small_dag(2);
        let spec = ClusterSpec::unit(2);
        let a = MctsScheduler::pure(small_config())
            .schedule(&dag, &spec)
            .unwrap();
        let b = MctsScheduler::pure(small_config())
            .schedule(&dag, &spec)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heuristic_guidance_works() {
        let dag = small_dag(3);
        let spec = ClusterSpec::unit(2);
        let s = MctsScheduler::heuristic(small_config())
            .schedule(&dag, &spec)
            .unwrap();
        s.validate(&dag, &spec).unwrap();
    }

    #[test]
    fn drl_guidance_works_untrained() {
        let dag = small_dag(4);
        let spec = ClusterSpec::unit(2);
        let mut rng = StdRng::seed_from_u64(0);
        let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16], &mut rng);
        let mut spear = MctsScheduler::drl(small_config(), policy);
        assert_eq!(spear.name(), "spear");
        let s = spear.schedule(&dag, &spec).unwrap();
        s.validate(&dag, &spec).unwrap();
    }

    /// The eval cache must be invisible in the schedule (bit-identical
    /// output) and visible in the stats (hits counted, inferences saved,
    /// skips attributed identically either way).
    #[test]
    fn drl_cache_is_transparent_and_counted() {
        let dag = small_dag(4);
        let spec = ClusterSpec::unit(2);
        let mut rng = StdRng::seed_from_u64(0);
        let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16], &mut rng);
        let mut scheduler = MctsScheduler::drl(small_config(), policy.clone());
        let (cached, cs) = scheduler.schedule_with_stats(&dag, &spec).unwrap();
        let input = scheduler.policy().input_cache_stats();
        let no_cache = MctsConfig {
            eval_cache: false,
            ..small_config()
        };
        let (uncached, us) = MctsScheduler::drl(no_cache, policy)
            .schedule_with_stats(&dag, &spec)
            .unwrap();
        assert_eq!(cached, uncached, "cache changed the schedule");
        assert!(cs.cache_hits > 0, "search never revisits a state?");
        assert_eq!(us.cache_hits + us.cache_misses, 0);
        assert!(cs.policy_inferences < us.policy_inferences);
        assert_eq!(cs.inference_skips, us.inference_skips);
        assert_eq!(
            cs.cache_hits + cs.cache_misses,
            us.policy_inferences,
            "every frontier-table probe stands for one uncached inference"
        );
        assert_eq!(
            cs.policy_inferences + input.hits,
            cs.cache_misses,
            "every frontier miss is an input-table hit or one inference"
        );
        assert_eq!(input.hits + input.misses, cs.cache_misses);
    }

    #[test]
    fn flat_budget_runs_more_iterations() {
        let dag = small_dag(5);
        let spec = ClusterSpec::unit(2);
        let (_, decayed) = MctsScheduler::pure(MctsConfig {
            initial_budget: 30,
            min_budget: 2,
            decay_budget: true,
            ..MctsConfig::default()
        })
        .schedule_with_stats(&dag, &spec)
        .unwrap();
        let (_, flat) = MctsScheduler::pure(MctsConfig {
            initial_budget: 30,
            min_budget: 2,
            decay_budget: false,
            ..MctsConfig::default()
        })
        .schedule_with_stats(&dag, &spec)
        .unwrap();
        assert!(flat.iterations > decayed.iterations);
    }

    #[test]
    fn multi_job_mcts_respects_arrivals_and_is_deterministic() {
        let jobs = vec![(0u64, small_dag(7)), (10, small_dag(8))];
        let queue = JobQueue::new(jobs).unwrap();
        let spec = ClusterSpec::unit(2);
        let (a, stats) = MctsScheduler::pure(small_config())
            .schedule_multi_with_stats(&queue, &spec)
            .unwrap();
        a.validate(queue.union_dag(), &spec).unwrap();
        for span in queue.spans() {
            for i in span.first_task..span.first_task + span.tasks {
                let start = a.placement_of(spear_dag::TaskId::new(i)).unwrap().start;
                assert!(start >= span.arrival, "task {i} started before arrival");
            }
        }
        assert!(stats.iterations > 0);
        assert_eq!(queue.jct_report(&a).completions().len(), 2);
        let b = MctsScheduler::pure(small_config())
            .schedule_multi(&queue, &spec)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn makespan_respects_bounds() {
        let dag = small_dag(6);
        let spec = ClusterSpec::unit(2);
        let s = MctsScheduler::pure(small_config())
            .schedule(&dag, &spec)
            .unwrap();
        assert!(s.makespan() >= dag.makespan_lower_bound(spec.capacity()));
        assert!(s.makespan() <= dag.total_work());
    }
}
