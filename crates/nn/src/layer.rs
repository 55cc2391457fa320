//! Dense (fully connected) layers with manual backprop.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix};

/// A dense layer `a = act(x · W + b)` with gradient accumulators.
///
/// `W` has shape `in × out`; inputs are batches of shape `batch × in`.
/// The layer caches its last input and post-activation output during
/// [`Dense::forward`] so [`Dense::backward`] can compute exact gradients.
/// Gradients *accumulate* across backward calls until [`Dense::zero_grad`],
/// which is what mini-batch REINFORCE needs (many trajectories contribute
/// to one update).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_output: Option<Matrix>,
}

impl Dense {
    /// Creates a layer with He-style initialization (`N(0, 2/fan_in)`),
    /// appropriate for the ReLU networks the paper uses. Biases start at
    /// zero.
    pub fn new<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let std = (2.0 / input as f64).sqrt();
        let weights = Matrix::from_fn(input, output, |_, _| {
            // Box–Muller normal sample.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        });
        Dense {
            grad_weights: Matrix::zeros(input, output),
            grad_bias: vec![0.0; output],
            weights,
            bias: vec![0.0; output],
            activation,
            cache_input: None,
            cache_output: None,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable view of the weights (used by the optimizer and tests).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Immutable view of the bias.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutable view of the bias.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// Accumulated weight gradient.
    pub fn grad_weights(&self) -> &Matrix {
        &self.grad_weights
    }

    /// Accumulated bias gradient.
    pub fn grad_bias(&self) -> &[f64] {
        &self.grad_bias
    }

    /// Fused bias+activation epilogue: one pass over the matmul output
    /// computing `act(z + b)` per element, instead of a bias walk followed
    /// by an activation walk. Per element this performs the same `f64`
    /// add then the same activation op in the same order, so it is
    /// bit-identical to `add_row_broadcast` + `forward_inplace`.
    fn bias_activate(&self, z: &mut Matrix) {
        let n = self.weights.cols();
        for row in z.as_mut_slice().chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(&self.bias) {
                *v = self.activation.apply(*v + b);
            }
        }
    }

    /// Forward pass for a batch; caches activations for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim()`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.weights);
        self.bias_activate(&mut z);
        self.cache_input = Some(x.clone());
        self.cache_output = Some(z.clone());
        z
    }

    /// Inference-only forward pass: no activation caching (so no `backward`
    /// afterwards), no clones. Same floating-point operations as
    /// [`Dense::forward`], hence bit-identical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim()`.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.weights);
        self.bias_activate(&mut z);
        z
    }

    /// Single-example inference into a caller-owned buffer: computes
    /// `act(x · W + b)` without touching the heap. The accumulation order
    /// (k ascending per output, zero inputs skipped, bias added after the
    /// products) matches [`Matrix::matmul`] + bias broadcast exactly, so
    /// the result is bit-identical to [`Dense::forward`] on a 1-row batch.
    ///
    /// Two kernels, selected by output width (both memory-bound on the
    /// weight stream, so the goal is to touch as few weight rows as
    /// possible and keep each touched row a single contiguous sweep):
    ///
    /// * **Wide outputs** (`n > 16`, the hidden layers): the *nonzero*
    ///   inputs select which weight rows are touched, and the touched
    ///   rows are folded four per pass over the accumulator row (adds
    ///   k-ascending, so identical to one pass per row). The featurized
    ///   input is sparse (empty slots,
    ///   unoccupied image pixels) and so are ReLU hidden activations, so
    ///   most weight rows are never loaded at all. The nonzeros are first
    ///   compacted **branchlessly** into a stack block (unconditional
    ///   write, conditional increment): a per-input `if a == 0.0` branch
    ///   would be near-random on real activations and every mispredict
    ///   costs more than a compaction step — a tax invisible in
    ///   microbenchmarks that replay one input (the predictor memorizes
    ///   the pattern) but dominant in situ where each call sees a fresh
    ///   pattern. Skipping a zero input is bit-identical to folding it
    ///   in: with finite weights, `0.0 * w` is `±0.0`, and adding `±0.0`
    ///   to an accumulator that is never `-0.0` (an ascending chain
    ///   seeded with `+0.0` cannot produce `-0.0`) returns the
    ///   accumulator unchanged.
    /// * **Narrow outputs** (`n <= 16`, the logit layer): per-row loop
    ///   overhead would dominate a 2-vector-wide sweep, so the input is
    ///   consumed in unconditional quads — one pass over the output row
    ///   folds in four weight rows, with the adds still in k-ascending
    ///   order, bit-identical to four separate passes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward_one_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input width mismatch");
        let n = self.output_dim();
        out.clear();
        out.resize(n, 0.0);
        let w = self.weights.as_slice();
        if n > 16 {
            // Blocked so the compaction buffers stay small and on the
            // stack regardless of input width; processing blocks in
            // order keeps the accumulation k-ascending.
            const BLOCK: usize = 512;
            let mut idx = [0u32; BLOCK];
            let mut val = [0.0f64; BLOCK];
            for (block, chunk) in x.chunks(BLOCK).enumerate() {
                let base = block * BLOCK;
                let mut nnz = 0usize;
                for (k, &a) in chunk.iter().enumerate() {
                    idx[nnz] = (base + k) as u32;
                    val[nnz] = a;
                    nnz += usize::from(a != 0.0);
                }
                // Fold four compacted rows per pass over `out`: the
                // read-modify-write traffic on the accumulator row drops
                // 4x, and the per-output add chain stays k-ascending —
                // bit-identical to four separate single-row passes.
                let mut i = 0usize;
                while i + 4 <= nnz {
                    let (k0, k1, k2, k3) = (
                        idx[i] as usize,
                        idx[i + 1] as usize,
                        idx[i + 2] as usize,
                        idx[i + 3] as usize,
                    );
                    let (a0, a1, a2, a3) = (val[i], val[i + 1], val[i + 2], val[i + 3]);
                    let r0 = &w[k0 * n..k0 * n + n];
                    let r1 = &w[k1 * n..k1 * n + n];
                    let r2 = &w[k2 * n..k2 * n + n];
                    let r3 = &w[k3 * n..k3 * n + n];
                    for (j, cv) in out.iter_mut().enumerate() {
                        let mut acc = *cv;
                        acc += a0 * r0[j];
                        acc += a1 * r1[j];
                        acc += a2 * r2[j];
                        acc += a3 * r3[j];
                        *cv = acc;
                    }
                    i += 4;
                }
                for (&k, &a) in idx[i..nnz].iter().zip(&val[i..nnz]) {
                    let k = k as usize;
                    for (cv, &wv) in out.iter_mut().zip(&w[k * n..(k + 1) * n]) {
                        *cv += a * wv;
                    }
                }
            }
        } else {
            let mut k = 0;
            while k + 4 <= x.len() {
                let (a0, a1, a2, a3) = (x[k], x[k + 1], x[k + 2], x[k + 3]);
                let (r0, rest) = w[k * n..(k + 4) * n].split_at(n);
                let (r1, rest) = rest.split_at(n);
                let (r2, r3) = rest.split_at(n);
                for (j, cv) in out.iter_mut().enumerate() {
                    let mut acc = *cv;
                    acc += a0 * r0[j];
                    acc += a1 * r1[j];
                    acc += a2 * r2[j];
                    acc += a3 * r3[j];
                    *cv = acc;
                }
                k += 4;
            }
            for (kk, &a) in x.iter().enumerate().skip(k) {
                if a == 0.0 {
                    continue;
                }
                for (cv, &wv) in out.iter_mut().zip(&w[kk * n..(kk + 1) * n]) {
                    *cv += a * wv;
                }
            }
        }
        // Fused epilogue: act(z + b) in one walk, same per-element ops as
        // the separate bias and activation passes.
        for (cv, &b) in out.iter_mut().zip(&self.bias) {
            *cv = self.activation.apply(*cv + b);
        }
    }

    /// Backward pass: given `d_out = ∂L/∂a`, accumulates `∂L/∂W`, `∂L/∂b`
    /// and returns `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::forward`].
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let x = self
            .cache_input
            .as_ref()
            .expect("backward requires a prior forward pass");
        let a = self
            .cache_output
            .as_ref()
            .expect("backward requires a prior forward pass");
        let mut dz = d_out.clone();
        self.activation.backward_inplace(a, &mut dz);
        // dW = x^T · dz ; db = column sums of dz ; dx = dz · W^T.
        self.grad_weights.add_scaled(&x.transpose_matmul(&dz), 1.0);
        for (g, s) in self.grad_bias.iter_mut().zip(dz.column_sums()) {
            *g += s;
        }
        dz.matmul_transpose(&self.weights)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights.fill_zero();
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Scales accumulated gradients (e.g. dividing by batch size).
    pub fn scale_grad(&mut self, factor: f64) {
        self.grad_weights.map_inplace(|v| v * factor);
        self.grad_bias.iter_mut().for_each(|g| *g *= factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng);
        layer.bias_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Matrix::zeros(4, 3);
        let out = layer.forward(&x);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 2);
        // Zero input ⇒ output equals bias.
        for r in 0..4 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let d = Matrix::from_rows(&[&[1.0, 1.0]]);
        layer.forward(&x);
        layer.backward(&d);
        let g1 = layer.grad_weights().clone();
        layer.forward(&x);
        layer.backward(&d);
        let g2 = layer.grad_weights().clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
        layer.zero_grad();
        assert!(layer.grad_weights().as_slice().iter().all(|&v| v == 0.0));
        assert!(layer.grad_bias().iter().all(|&v| v == 0.0));
    }

    /// Finite-difference check of dW, db, dx for a single dense layer with
    /// ReLU, using loss L = sum(a).
    #[test]
    fn finite_difference_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[1.0, 0.2, -0.7]]);
        let eps = 1e-6;

        let loss =
            |layer: &mut Dense, x: &Matrix| -> f64 { layer.forward(x).as_slice().iter().sum() };

        let base = loss(&mut layer, &x);
        let _ = base;
        // Analytic gradients with dL/da = 1 everywhere.
        layer.forward(&x);
        let ones = Matrix::from_fn(2, 2, |_, _| 1.0);
        let dx = layer.backward(&ones);

        // dW check.
        for idx in 0..6 {
            let mut plus = layer.clone();
            plus.weights_mut().as_mut_slice()[idx] += eps;
            let mut minus = layer.clone();
            minus.weights_mut().as_mut_slice()[idx] -= eps;
            let numeric = (loss(&mut plus, &x) - loss(&mut minus, &x)) / (2.0 * eps);
            let analytic = layer.grad_weights().as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "dW[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // db check.
        for idx in 0..2 {
            let mut plus = layer.clone();
            plus.bias_mut()[idx] += eps;
            let mut minus = layer.clone();
            minus.bias_mut()[idx] -= eps;
            let numeric = (loss(&mut plus, &x) - loss(&mut minus, &x)) / (2.0 * eps);
            let analytic = layer.grad_bias()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "db[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // dx check.
        for idx in 0..6 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let mut l = layer.clone();
            let numeric = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "dx[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// The single-example kernels must stay bit-identical to the batch
    /// path across unroll boundaries (lengths not divisible by 4), sparse
    /// inputs (zeros inside and outside full quads — exercising both the
    /// zero-skip and the fold-the-zero-through paths), and both output
    /// widths (narrow quad kernel and wide row-pass kernel).
    #[test]
    fn forward_one_into_unroll_matches_batch_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for input in [1usize, 3, 4, 5, 7, 8, 11, 16] {
            for output in [3usize, 16, 17, 33] {
                for act in [Activation::Relu, Activation::Identity, Activation::Tanh] {
                    let layer = Dense::new(input, output, act, &mut rng);
                    let x: Vec<f64> = (0..input)
                        .map(|i| {
                            // Scatter exact zeros through the input so the
                            // sparse handling of both kernels runs.
                            if i % 3 == 0 {
                                0.0
                            } else {
                                (i as f64) * 0.37 - 1.0
                            }
                        })
                        .collect();
                    let batch = layer.infer(&Matrix::from_rows(&[&x]));
                    let mut one = Vec::new();
                    layer.forward_one_into(&x, &mut one);
                    for (a, b) in one.iter().zip(batch.row(0)) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "input={input} output={output} act={act:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward requires a prior forward pass")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn scale_grad_divides_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        layer.forward(&x);
        layer.backward(&Matrix::from_rows(&[&[2.0]]));
        let before = layer.grad_bias()[0];
        layer.scale_grad(0.5);
        assert!((layer.grad_bias()[0] - before / 2.0).abs() < 1e-12);
    }
}
