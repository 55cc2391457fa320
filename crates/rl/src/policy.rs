//! The policy network: featurizer + MLP, and the index choices over its
//! masked distribution.

use rand::Rng;
use spear_nn::{InferenceEngine, Mlp, MlpConfig, ShapeError};

use crate::{FeatureConfig, Featurizer};

/// The DRL scheduling policy: maps a [`SimState`](spear_cluster::SimState)
/// to a distribution over `{schedule visible slot i, process}`.
/// [`StateView::action`](crate::StateView::action) turns the chosen index
/// back into a simulator [`Action`](spear_cluster::Action).
///
/// The policy is its featurizer and its network and nothing else: a
/// rollout ([`run_episode`](crate::run_episode), the REINFORCE trainer)
/// or a search policy featurizes and runs the network through scratch
/// buffers of its own.
#[derive(Debug, Clone)]
pub struct PolicyNetwork {
    featurizer: Featurizer,
    net: Mlp,
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

    /// Snapshots the current weights into an `f32`
    /// [`InferenceEngine`] for the fast-precision path. The snapshot
    /// does not track later training updates — re-snapshot after an
    /// optimizer step.
    #[must_use]
    pub fn inference_engine(&self) -> InferenceEngine {
        InferenceEngine::from_mlp(&self.net)
    }
}

/// Index of the largest probability (first on ties).
pub(crate) fn argmax(probs: &[f64]) -> usize {
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

    fn setup() -> PolicyNetwork {
        let mut rng = StdRng::seed_from_u64(1);
        PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16, 8], &mut rng)
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
        let policy = setup();
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
        let policy = setup();
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
