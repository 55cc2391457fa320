//! Activations and the (masked) softmax.

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// Element-wise activation function of a hidden layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)` — the paper's hidden activation.
    Relu,
    /// Pass-through (used for the logits layer).
    Identity,
    /// Hyperbolic tangent, kept for ablations.
    Tanh,
}

impl Activation {
    /// Applies the activation to a single value.
    ///
    /// This is the scalar kernel behind the fused bias+activation passes
    /// in `Dense`: every layer applies its activation through it, in
    /// training and in inference alike.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
            Activation::Tanh => v.tanh(),
        }
    }

    /// [`Activation::apply`] in `f32` — the scalar kernel of the
    /// fast-precision inference engine's fused epilogue.
    #[inline]
    pub fn apply_f32(self, v: f32) -> f32 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
            Activation::Tanh => v.tanh(),
        }
    }

    /// Multiplies `dz` by the activation derivative evaluated at the
    /// *post-activation* values `a` (valid for ReLU/tanh/identity, which
    /// are all recoverable from their outputs).
    pub fn backward_inplace(self, a: &Matrix, dz: &mut Matrix) {
        match self {
            Activation::Relu => {
                for (d, &out) in dz.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    if out <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            Activation::Identity => {}
            Activation::Tanh => {
                for (d, &out) in dz.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *d *= 1.0 - out * out;
                }
            }
        }
    }
}

/// Numerically stable softmax of one logit row.
///
/// ```
/// use spear_nn::softmax;
/// let p = softmax(&[1.0, 2.0, 3.0]);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax restricted to the legal actions: illegal entries get probability
/// zero and the rest renormalize. This is how the policy network respects
/// the simulator's legality filter.
///
/// # Panics
///
/// Panics if `mask` has a different length than `logits` or no entry is
/// legal.
///
/// ```
/// use spear_nn::softmax_masked;
/// let p = softmax_masked(&[5.0, 1.0, 1.0], &[false, true, true]);
/// assert_eq!(p[0], 0.0);
/// assert!((p[1] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax_masked(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    let mut out = Vec::new();
    softmax_masked_into(logits, mask, &mut out);
    out
}

/// [`softmax_masked`] into a caller-owned buffer (cleared first), for hot
/// loops that must not allocate per call. Performs the exact same
/// floating-point operations in the same order as [`softmax_masked`].
///
/// # Panics
///
/// Panics if `mask` has a different length than `logits` or no entry is
/// legal.
pub fn softmax_masked_into(logits: &[f64], mask: &[bool], out: &mut Vec<f64>) {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(mask.iter().any(|&m| m), "at least one action must be legal");
    let max = logits
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    out.clear();
    out.extend(
        logits
            .iter()
            .zip(mask)
            .map(|(&l, &m)| if m { (l - max).exp() } else { 0.0 }),
    );
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` with `act` applied to every element, as a one-row matrix.
    fn activated(act: Activation, v: &[f64]) -> Matrix {
        let row: Vec<f64> = v.iter().map(|&x| act.apply(x)).collect();
        Matrix::from_rows(&[row.as_slice()])
    }

    #[test]
    fn relu_forward_backward() {
        let z = activated(Activation::Relu, &[-1.0, 0.0, 2.0]);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 2.0]);
        let mut dz = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        Activation::Relu.backward_inplace(&z, &mut dz);
        assert_eq!(dz.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_forward_backward() {
        let z = activated(Activation::Tanh, &[0.0]);
        assert_eq!(z.as_slice(), &[0.0]);
        let mut dz = Matrix::from_rows(&[&[1.0]]);
        Activation::Tanh.backward_inplace(&z, &mut dz);
        assert_eq!(dz.as_slice(), &[1.0]); // derivative at 0 is 1
    }

    #[test]
    fn identity_is_noop() {
        let z = activated(Activation::Identity, &[-3.0, 5.0]);
        assert_eq!(z.as_slice(), &[-3.0, 5.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[-100.0, 0.0, 100.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > 0.999);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1e308f64.ln(), 0.0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn masked_softmax_zeroes_illegal() {
        let p = softmax_masked(&[10.0, 0.0, 0.0, 0.0], &[false, true, true, false]);
        assert_eq!(p[0], 0.0);
        assert_eq!(p[3], 0.0);
        assert!((p[1] + p[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one action must be legal")]
    fn masked_softmax_rejects_empty_mask() {
        let _ = softmax_masked(&[1.0], &[false]);
    }

    #[test]
    fn masked_softmax_into_matches_allocating_version() {
        let logits = [0.3, -1.2, 2.0, 0.7];
        let mask = [true, false, true, true];
        let mut out = vec![99.0; 2]; // stale contents must be discarded
        softmax_masked_into(&logits, &mask, &mut out);
        assert_eq!(out, softmax_masked(&logits, &mask));
    }

    #[test]
    fn masked_softmax_single_legal_action() {
        let p = softmax_masked(&[-50.0, 3.0], &[true, false]);
        assert_eq!(p, vec![1.0, 0.0]);
    }
}
