//! The policy network: featurizer + MLP + masked softmax sampling.

use rand::Rng;
use spear_cluster::{ClusterSpec, SimState};
use spear_dag::analysis::GraphFeatures;
use spear_dag::{Dag, TaskId};
use spear_nn::{softmax_masked_into, ForwardScratch, InferenceEngine, Mlp, MlpConfig, ShapeError};

use crate::{FeatureConfig, Featurizer, StateView};

/// The DRL scheduling policy: maps a [`SimState`] to a distribution over
/// `{schedule visible slot i, process}`. [`StateView::action`] turns the
/// chosen index back into a simulator [`Action`](spear_cluster::Action).
///
/// The policy owns the scratch buffers of its inference path (featurizer
/// ready-ordering and MLP activations), so repeated
/// [`PolicyNetwork::action_distribution`] calls allocate only the
/// distribution and view they return once the buffers reach their
/// steady-state sizes.
#[derive(Debug, Clone)]
pub struct PolicyNetwork {
    featurizer: Featurizer,
    net: Mlp,
    ready_scratch: Vec<TaskId>,
    forward_scratch: ForwardScratch,
}

impl PolicyNetwork {
    /// Creates a policy with the paper's MLP architecture (256/32/32 ReLU)
    /// over the given feature configuration.
    pub fn new<R: Rng + ?Sized>(config: FeatureConfig, rng: &mut R) -> Self {
        let net = Mlp::new(
            MlpConfig::paper(config.input_dim(), config.action_dim()),
            rng,
        );
        Self::from_parts_unchecked(config, net)
    }

    /// Creates a policy with a custom network architecture (hidden widths),
    /// used for fast tests and the feature-ablation experiments.
    pub fn with_hidden<R: Rng + ?Sized>(
        config: FeatureConfig,
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        let net = Mlp::new(
            MlpConfig::new(config.input_dim(), hidden, config.action_dim()),
            rng,
        );
        Self::from_parts_unchecked(config, net)
    }

    /// Wraps an existing network (e.g. loaded from disk).
    ///
    /// # Panics
    ///
    /// Panics if the network shape disagrees with the feature config.
    pub fn from_parts(config: FeatureConfig, net: Mlp) -> Self {
        Self::try_from_parts(config, net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PolicyNetwork::from_parts`] for a network from outside the
    /// program, such as a `--policy` file.
    ///
    /// # Errors
    ///
    /// A [`ShapeError`] if the network's layers are malformed
    /// ([`Mlp::validate`]) or its input or output width disagrees with
    /// the feature config.
    pub fn try_from_parts(config: FeatureConfig, net: Mlp) -> Result<Self, ShapeError> {
        net.validate()?;
        ShapeError::check(
            "policy network input width",
            config.input_dim(),
            net.config().input,
        )?;
        ShapeError::check(
            "policy network output width",
            config.action_dim(),
            net.config().output,
        )?;
        Ok(Self::from_parts_unchecked(config, net))
    }

    fn from_parts_unchecked(config: FeatureConfig, net: Mlp) -> Self {
        PolicyNetwork {
            featurizer: Featurizer::new(config),
            net,
            ready_scratch: Vec::new(),
            forward_scratch: ForwardScratch::default(),
        }
    }

    /// The feature configuration.
    pub fn feature_config(&self) -> &FeatureConfig {
        self.featurizer.config()
    }

    /// The featurizer.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access to the underlying network (training).
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Featurizes `state` and returns the masked action distribution
    /// together with the view (slot mapping + mask).
    pub fn action_distribution(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
        state: &SimState,
        features: &GraphFeatures,
    ) -> (Vec<f64>, StateView) {
        let (mut probs, mut view) = (Vec::new(), StateView::default());
        let ready = &mut self.ready_scratch;
        self.featurizer
            .featurize_into(dag, spec, state, features, ready, &mut view);
        let logits = self
            .net
            .forward_one_into(&view.features, &mut self.forward_scratch);
        softmax_masked_into(logits, &view.mask, &mut probs);
        (probs, view)
    }

    /// Snapshots the current weights into an `f32`
    /// [`InferenceEngine`] for the fast-precision path. The snapshot
    /// does not track later training updates — re-snapshot after an
    /// optimizer step.
    #[must_use]
    pub fn inference_engine(&self) -> InferenceEngine {
        InferenceEngine::from_mlp(&self.net)
    }

    /// Picks a network action: samples from the masked distribution, or
    /// takes the argmax when `greedy`.
    pub fn choose_action_index<R: Rng + ?Sized>(
        &mut self,
        dag: &Dag,
        spec: &ClusterSpec,
        state: &SimState,
        features: &GraphFeatures,
        greedy: bool,
        rng: &mut R,
    ) -> (usize, StateView) {
        let (probs, view) = self.action_distribution(dag, spec, state, features);
        let idx = if greedy {
            argmax(&probs)
        } else {
            sample_index(&probs, rng)
        };
        (idx, view)
    }
}

/// Index of the largest probability (first on ties).
fn argmax(probs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &p) in probs.iter().enumerate() {
        if p > probs[best] {
            best = i;
        }
    }
    best
}

/// Samples an index from a probability vector.
pub(crate) fn sample_index<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if x < acc {
            return i;
        }
    }
    // Floating-point slack: return the last positive-probability index.
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("distribution has positive mass")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;

    fn setup() -> (Dag, ClusterSpec, GraphFeatures, PolicyNetwork) {
        let mut rng = StdRng::seed_from_u64(1);
        let dag = LayeredDagSpec {
            num_tasks: 10,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut rng);
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16, 8], &mut rng);
        (dag, spec, gf, policy)
    }

    #[test]
    fn distribution_is_masked_and_normalized() {
        let (dag, spec, gf, mut policy) = setup();
        let state = SimState::new(&dag, &spec).unwrap();
        let (probs, view) = policy.action_distribution(&dag, &spec, &state, &gf);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (p, &legal) in probs.iter().zip(&view.mask) {
            if !legal {
                assert_eq!(*p, 0.0);
            }
        }
    }

    /// Reusing the scratch buffers is invisible: at every state of an
    /// episode, a long-lived policy answers like one built fresh from the
    /// same network.
    #[test]
    fn reused_scratch_buffers_match_a_fresh_policy() {
        let (dag, spec, gf, mut policy) = setup();
        let mut state = SimState::new(&dag, &spec).unwrap();
        while !state.is_terminal(&dag) {
            let reused = policy.action_distribution(&dag, &spec, &state, &gf);
            let mut fresh =
                PolicyNetwork::from_parts(policy.feature_config().clone(), policy.net().clone());
            assert_eq!(reused, fresh.action_distribution(&dag, &spec, &state, &gf));
            let view = reused.1;
            let idx = view.mask.iter().position(|&m| m).expect("a legal action");
            let action = view.action(idx, &dag, &state);
            state.apply(&dag, action).unwrap();
        }
    }

    #[test]
    fn chosen_actions_are_always_legal() {
        let (dag, spec, gf, mut policy) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = SimState::new(&dag, &spec).unwrap();
        while !state.is_terminal(&dag) {
            let (idx, view) = policy.choose_action_index(&dag, &spec, &state, &gf, false, &mut rng);
            assert!(view.mask[idx], "sampled an illegal action");
            let action = view.action(idx, &dag, &state);
            state.apply(&dag, action).unwrap();
        }
        assert!(state.makespan().is_some());
    }

    #[test]
    fn greedy_mode_is_deterministic() {
        let (dag, spec, gf, mut policy) = setup();
        let run = |policy: &mut PolicyNetwork, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = SimState::new(&dag, &spec).unwrap();
            while !state.is_terminal(&dag) {
                let (idx, view) =
                    policy.choose_action_index(&dag, &spec, &state, &gf, true, &mut rng);
                let action = view.action(idx, &dag, &state);
                state.apply(&dag, action).unwrap();
            }
            state.makespan().unwrap()
        };
        // Greedy ignores the RNG: different seeds, same makespan.
        assert_eq!(run(&mut policy, 1), run(&mut policy, 999));
    }

    #[test]
    fn paper_architecture_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let policy = PolicyNetwork::new(FeatureConfig::paper(2), &mut rng);
        assert_eq!(policy.net().config().input, 163);
        assert_eq!(policy.net().config().output, 16);
        assert_eq!(policy.net().config().hidden, vec![256, 32, 32]);
    }

    #[test]
    fn from_parts_roundtrip() {
        let (_, _, _, policy) = setup();
        let cfg = policy.feature_config().clone();
        let net = policy.net().clone();
        let rebuilt = PolicyNetwork::from_parts(cfg, net);
        assert_eq!(
            rebuilt.net().parameter_count(),
            policy.net().parameter_count()
        );
    }

    #[test]
    fn try_from_parts_rejects_a_network_for_another_layout() {
        let (_, _, _, policy) = setup();
        let err = PolicyNetwork::try_from_parts(FeatureConfig::paper(2), policy.net().clone())
            .expect_err("a small-config network does not fit the paper layout");
        assert_eq!(err.what, "policy network input width");
        assert_eq!(err.expected, FeatureConfig::paper(2).input_dim());
    }

    #[test]
    fn sample_index_distribution() {
        let mut rng = StdRng::seed_from_u64(4);
        let probs = [0.0, 0.25, 0.75];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[sample_index(&probs, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac = counts[2] as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.4, 0.4, 0.2]), 0);
        assert_eq!(argmax(&[0.1, 0.5, 0.4]), 1);
    }
}
