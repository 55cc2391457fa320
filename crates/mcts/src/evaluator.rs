//! State evaluators for truncated rollouts (extension beyond the paper).
//!
//! Spear's wall-clock on a fast substrate is dominated by full-length
//! DRL rollouts (every step is an MLP forward pass). A
//! [`StateEvaluator`] lets the search cut a rollout off after a bounded
//! number of steps and bootstrap the rest of the makespan from a learned
//! value function — the AlphaZero-style middle ground measured by the
//! `value_extension` experiment.

use spear_cluster::SimState;
use spear_nn::{InferScratch, InferenceEngine, Precision};
use spear_rl::{EvalCacheStats, ValueCache, ValueCacheF32, ValueNetwork};

use crate::PolicyContext;

/// Entries in the value-estimate cache; matches the policy cache size
/// (sized for one episode's distinct states, cleared per episode). The
/// `f32` fast-precision cache doubles this — each entry is half the
/// footprint, so the same memory budget holds twice the states.
const VALUE_CACHE_CAPACITY: usize = 32_768;

/// Estimates the *final* makespan of the schedule from a partial state.
pub trait StateEvaluator {
    /// The estimate, in time slots; must be ≥ `state.max_finish()`.
    fn estimate_final_makespan(&mut self, ctx: &PolicyContext<'_>, state: &SimState) -> f64;

    /// Evaluator name for reports.
    fn name(&self) -> &str;

    /// Notifies the evaluator that a new scheduling episode is starting.
    /// Cached evaluators clear their transposition tables here; entries
    /// stay valid across decisions within one episode (fixed DAG, spec,
    /// and weights) but not across episodes.
    fn on_episode_start(&mut self) {}

    /// Hit/miss/evict counters of the evaluator's cache. Uncached
    /// evaluators report zeros.
    fn cache_stats(&self) -> EvalCacheStats {
        EvalCacheStats::default()
    }
}

/// A trained [`ValueNetwork`] as a rollout evaluator. The normalization
/// scale is the job's serial total work, matching
/// [`spear_rl::train_value_network`]'s training targets.
#[derive(Debug, Clone)]
pub struct ValueEvaluator {
    value: ValueNetwork,
    // Fingerprint-keyed estimate cache, generation-cleared per episode;
    // `None` when disabled for differential testing. The estimate is a
    // pure function of fingerprint-covered state (features, clock and
    // max_finish all derive from placements/running/used), so a hit is
    // bit-identical to recomputation.
    cache: Option<ValueCache>,
    // Fast-precision state: the `f32` weight snapshot, its scratch, and
    // the half-footprint `f32` estimate cache. Estimates are rounded to
    // `f32` *before* they are returned or stored, so cached and uncached
    // fast runs stay bit-identical.
    precision: Precision,
    engine: Option<InferenceEngine>,
    scratch: InferScratch,
    cache_f32: Option<ValueCacheF32>,
}

impl ValueEvaluator {
    /// Wraps a trained value network, with the estimate cache enabled.
    pub fn new(value: ValueNetwork) -> Self {
        Self::with_cache(value, true)
    }

    /// Wraps a trained value network, caching estimates by state
    /// fingerprint iff `eval_cache` is set.
    pub fn with_cache(value: ValueNetwork, eval_cache: bool) -> Self {
        Self::with_cache_precision(value, eval_cache, Precision::Exact)
    }

    /// [`ValueEvaluator::with_cache`] with an explicit inference
    /// precision. `Fast` snapshots the weights into an `f32`
    /// [`InferenceEngine`] once, and sizes the estimate cache at double
    /// capacity (entries are half the width).
    pub fn with_cache_precision(
        value: ValueNetwork,
        eval_cache: bool,
        precision: Precision,
    ) -> Self {
        let (cache, engine, cache_f32) = match precision {
            Precision::Exact => (
                eval_cache.then(|| ValueCache::new(VALUE_CACHE_CAPACITY)),
                None,
                None,
            ),
            Precision::Fast => (
                None,
                Some(value.inference_engine()),
                eval_cache.then(|| ValueCacheF32::new(2 * VALUE_CACHE_CAPACITY)),
            ),
        };
        ValueEvaluator {
            value,
            cache,
            precision,
            engine,
            scratch: InferScratch::new(),
            cache_f32,
        }
    }

    /// The wrapped network.
    pub fn value(&self) -> &ValueNetwork {
        &self.value
    }

    /// The evaluator's inference precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    fn estimate_fast(&mut self, ctx: &PolicyContext<'_>, state: &SimState) -> f64 {
        let key = self.cache_f32.is_some().then(|| state.fingerprint());
        if let (Some(cache), Some(key)) = (self.cache_f32.as_mut(), key) {
            if let Some(v) = cache.get(key) {
                return f64::from(v);
            }
        }
        let scale = ctx.dag.total_work().max(1) as f64;
        let engine = self
            .engine
            .as_ref()
            .expect("fast mode always has an engine");
        let estimate = self.value.predict_final_fast(
            engine,
            &mut self.scratch,
            ctx.dag,
            ctx.spec,
            state,
            ctx.features,
            scale,
        ) as f32;
        if let (Some(cache), Some(key)) = (self.cache_f32.as_mut(), key) {
            cache.insert(key, estimate);
        }
        f64::from(estimate)
    }
}

impl StateEvaluator for ValueEvaluator {
    fn estimate_final_makespan(&mut self, ctx: &PolicyContext<'_>, state: &SimState) -> f64 {
        if self.precision == Precision::Fast {
            return self.estimate_fast(ctx, state);
        }
        let key = self.cache.is_some().then(|| state.fingerprint());
        if let (Some(cache), Some(key)) = (self.cache.as_mut(), key) {
            if let Some(v) = cache.get(key) {
                return v;
            }
        }
        let scale = ctx.dag.total_work().max(1) as f64;
        let estimate = self
            .value
            .predict_final(ctx.dag, ctx.spec, state, ctx.features, scale);
        if let (Some(cache), Some(key)) = (self.cache.as_mut(), key) {
            cache.insert(key, estimate);
        }
        estimate
    }

    fn name(&self) -> &str {
        match self.precision {
            Precision::Exact => "value-network",
            Precision::Fast => "value-network-fast",
        }
    }

    fn on_episode_start(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.begin_generation();
        }
        if let Some(cache) = self.cache_f32.as_mut() {
            cache.begin_generation();
        }
    }

    fn cache_stats(&self) -> EvalCacheStats {
        let exact = self
            .cache
            .as_ref()
            .map(ValueCache::stats)
            .unwrap_or_default();
        let fast = self
            .cache_f32
            .as_ref()
            .map(ValueCacheF32::stats)
            .unwrap_or_default();
        exact.merged(fast)
    }
}

/// A cheap analytic evaluator: the maximum of the committed finish times
/// and the critical-path bound over unfinished work. Used as the
/// ablation's no-learning reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundEvaluator;

impl StateEvaluator for BoundEvaluator {
    fn estimate_final_makespan(&mut self, ctx: &PolicyContext<'_>, state: &SimState) -> f64 {
        let mut estimate = state.max_finish() as f64;
        for &t in state.ready() {
            let bl = ctx.features.task(t).b_level;
            estimate = estimate.max((state.clock() + bl) as f64);
        }
        for run in state.running() {
            for &c in ctx.dag.children(run.task) {
                if state.start_of(c).is_none() {
                    let bl = ctx.features.task(c).b_level;
                    estimate = estimate.max((run.finish + bl) as f64);
                }
            }
        }
        estimate
    }

    fn name(&self) -> &str {
        "bound"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_cluster::{Action, ClusterSpec};
    use spear_dag::analysis::GraphFeatures;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    /// The estimate cache must (a) hit on a repeated state with a
    /// bit-identical value, and (b) be invalidated by
    /// `on_episode_start`, so stale estimates never leak across
    /// episodes.
    #[test]
    fn value_evaluator_cache_hits_and_clears_per_episode() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spear_dag::generator::LayeredDagSpec;
        use spear_rl::FeatureConfig;

        let dag = LayeredDagSpec {
            num_tasks: 10,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(11));
        let spec = ClusterSpec::unit(2);
        let features = GraphFeatures::compute(&dag);
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let state = spear_cluster::SimState::new(&dag, &spec).unwrap();

        let value = ValueNetwork::new(
            FeatureConfig::small(spec.dims()),
            &[8],
            &mut StdRng::seed_from_u64(5),
        );
        let mut uncached = ValueEvaluator::with_cache(value.clone(), false);
        let mut cached = ValueEvaluator::with_cache(value, true);

        let reference = uncached.estimate_final_makespan(&ctx, &state);
        assert_eq!(uncached.cache_stats(), EvalCacheStats::default());

        let miss = cached.estimate_final_makespan(&ctx, &state);
        let hit = cached.estimate_final_makespan(&ctx, &state);
        assert_eq!(miss.to_bits(), reference.to_bits());
        assert_eq!(hit.to_bits(), reference.to_bits());
        let stats = cached.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));

        // A new episode invalidates the table: the same state misses
        // again (re-inserted under the new generation), then hits.
        cached.on_episode_start();
        let refreshed = cached.estimate_final_makespan(&ctx, &state);
        assert_eq!(refreshed.to_bits(), reference.to_bits());
        let stats = cached.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 1));
        let _ = cached.estimate_final_makespan(&ctx, &state);
        assert_eq!(cached.cache_stats().hits, 2);
    }

    /// Fast-precision estimates must (a) be bit-identical between the
    /// cached and uncached evaluators (the `f32` rounding happens before
    /// the cache, not because of it), (b) hit the `f32` cache on a
    /// repeat, and (c) track the exact `f64` estimate within `f32`
    /// forward-pass tolerance.
    #[test]
    fn fast_value_evaluator_is_cache_invariant_and_tracks_exact() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spear_dag::generator::LayeredDagSpec;
        use spear_nn::Precision;
        use spear_rl::FeatureConfig;

        let dag = LayeredDagSpec {
            num_tasks: 12,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(13));
        let spec = ClusterSpec::unit(2);
        let features = GraphFeatures::compute(&dag);
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let state = spear_cluster::SimState::new(&dag, &spec).unwrap();

        let value = ValueNetwork::new(
            FeatureConfig::small(spec.dims()),
            &[16],
            &mut StdRng::seed_from_u64(9),
        );
        let mut exact = ValueEvaluator::with_cache(value.clone(), false);
        let mut fast_uncached =
            ValueEvaluator::with_cache_precision(value.clone(), false, Precision::Fast);
        let mut fast_cached = ValueEvaluator::with_cache_precision(value, true, Precision::Fast);
        assert_eq!(fast_cached.name(), "value-network-fast");
        assert_eq!(fast_cached.precision(), Precision::Fast);

        let reference = fast_uncached.estimate_final_makespan(&ctx, &state);
        let miss = fast_cached.estimate_final_makespan(&ctx, &state);
        let hit = fast_cached.estimate_final_makespan(&ctx, &state);
        assert_eq!(miss.to_bits(), reference.to_bits());
        assert_eq!(hit.to_bits(), reference.to_bits());
        let stats = fast_cached.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));

        let truth = exact.estimate_final_makespan(&ctx, &state);
        let scale = dag.total_work().max(1) as f64;
        assert!(
            (truth - reference).abs() <= 1e-3 * scale,
            "fast {reference} drifted from exact {truth} (scale {scale})"
        );
        assert!(reference >= state.max_finish() as f64);
    }

    #[test]
    fn bound_evaluator_respects_commitments() {
        let mut b = DagBuilder::new(1);
        let a = b.add_task(Task::new(5, ResourceVec::from_slice(&[0.5])));
        let c = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5])));
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let ctx = PolicyContext {
            dag: &dag,
            spec: &spec,
            features: &features,
        };
        let mut state = spear_cluster::SimState::new(&dag, &spec).unwrap();
        let mut ev = BoundEvaluator;
        // Initially: clock 0 + b-level(a)=8.
        assert_eq!(ev.estimate_final_makespan(&ctx, &state), 8.0);
        state.apply(&dag, Action::Place(a, 0)).unwrap();
        // a finishes at 5, its unscheduled child adds b-level 3.
        assert_eq!(ev.estimate_final_makespan(&ctx, &state), 8.0);
        assert_eq!(ev.name(), "bound");
    }
}
