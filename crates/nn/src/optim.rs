//! The optimizer: RMSProp, the paper's choice.

use serde::{Deserialize, Serialize};

use crate::{Matrix, Mlp};

/// Applies accumulated gradients to an [`Mlp`]'s parameters.
pub trait Optimizer {
    /// Performs one update step from the network's accumulated gradients
    /// (descending the loss; gradients are *not* cleared — call
    /// [`Mlp::zero_grad`] afterwards).
    fn step(&mut self, net: &mut Mlp);
}

/// RMSProp with the paper's hyper-parameters (§IV): learning rate
/// `α = 1e-4`, decay `ρ = 0.9`, `ε = 1e-9`.
///
/// Per-parameter cache: `c ← ρ·c + (1−ρ)·g²`, update
/// `w ← w − α·g / (√c + ε)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RmsProp {
    alpha: f64,
    rho: f64,
    epsilon: f64,
    cache_weights: Vec<Matrix>,
    cache_bias: Vec<Vec<f64>>,
}

impl RmsProp {
    /// Creates RMSProp with custom hyper-parameters.
    pub fn new(alpha: f64, rho: f64, epsilon: f64) -> Self {
        RmsProp {
            alpha,
            rho,
            epsilon,
            cache_weights: Vec::new(),
            cache_bias: Vec::new(),
        }
    }

    /// The paper's exact setting: `α=1e-4, ρ=0.9, ε=1e-9`.
    pub fn default_paper() -> Self {
        Self::new(1e-4, 0.9, 1e-9)
    }

    /// Learning rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Overrides the learning rate (e.g. a faster supervised phase).
    pub fn set_alpha(&mut self, alpha: f64) {
        self.alpha = alpha;
    }

    fn ensure_cache(&mut self, net: &Mlp) {
        if self.cache_weights.len() == net.layers().len() {
            return;
        }
        self.cache_weights = net
            .layers()
            .iter()
            .map(|l| Matrix::zeros(l.input_dim(), l.output_dim()))
            .collect();
        self.cache_bias = net
            .layers()
            .iter()
            .map(|l| vec![0.0; l.output_dim()])
            .collect();
    }
}

impl Optimizer for RmsProp {
    /// Updates every parameter in place, reading its gradient beside it
    /// (no copy of the gradients).
    fn step(&mut self, net: &mut Mlp) {
        self.ensure_cache(net);
        let (alpha, rho, epsilon) = (self.alpha, self.rho, self.epsilon);
        let caches = self.cache_weights.iter_mut().zip(&mut self.cache_bias);
        for (layer, (cache_w, cache_b)) in net.layers_mut().iter_mut().zip(caches) {
            let (weights, grad_w, bias, grad_b) = layer.params_and_grads_mut();
            for ((w, &g), c) in weights.iter_mut().zip(grad_w).zip(cache_w.as_mut_slice()) {
                *c = rho * *c + (1.0 - rho) * g * g;
                *w -= alpha * g / (c.sqrt() + epsilon);
            }
            for ((b, &g), c) in bias.iter_mut().zip(grad_b).zip(cache_b.iter_mut()) {
                *c = rho * *c + (1.0 - rho) * g * g;
                *b -= alpha * g / (c.sqrt() + epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loss, Matrix, MlpConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn train_xor<O: Optimizer>(opt: &mut O, steps: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(MlpConfig::new(2, &[16], 2), &mut rng);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = [0usize, 1, 1, 0];
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let logits = net.forward(&x);
            let (l, d) = loss::softmax_cross_entropy(&logits, &y, None);
            net.zero_grad();
            net.backward(&d);
            net.scale_grad(1.0 / 4.0);
            opt.step(&mut net);
            last = l;
        }
        last
    }

    #[test]
    fn rmsprop_learns_xor() {
        let mut opt = RmsProp::new(1e-2, 0.9, 1e-9);
        let final_loss = train_xor(&mut opt, 500);
        assert!(final_loss < 0.1, "final loss {final_loss}");
    }

    #[test]
    fn paper_hyperparameters() {
        let opt = RmsProp::default_paper();
        assert_eq!(opt.alpha(), 1e-4);
    }

    #[test]
    fn rmsprop_step_changes_weights_only_with_grad() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Mlp::new(MlpConfig::new(2, &[3], 2), &mut rng);
        let snapshot = net.layers()[0].weights().clone();
        let mut opt = RmsProp::default_paper();
        // No gradient: step is a no-op on weights (cache of zeros).
        opt.step(&mut net);
        assert_eq!(net.layers()[0].weights(), &snapshot);
        // With gradient: parameters move. The final layer's bias always
        // receives d_logits directly, so it must change when logits do.
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let mut logits = net.forward(&x);
        logits.map_inplace(|_| 1.0); // force a non-zero gradient
        let bias_before = net.layers().last().unwrap().bias().to_vec();
        net.backward(&logits);
        opt.step(&mut net);
        assert_ne!(net.layers().last().unwrap().bias(), &bias_before[..]);
    }
}
