//! Dense (fully connected) layers with manual backprop.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix};

/// Inputs compacted per pass of [`Dense::forward_one_into`]: small
/// enough that the compaction block stays a few cache lines of stack.
const CHUNK: usize = 64;

/// Folds the compacted rows into outputs `j..j + B`: the `B` partial
/// sums are loaded once, take `vals[i] * w[rows[i] + j..]` for each row
/// in order, and are stored once. Per output that is the same add
/// sequence as [`Matrix::matmul`]'s row loop.
#[inline(always)]
fn fold_block<const B: usize>(w: &[f64], rows: &[usize], vals: &[f64], j: usize, out: &mut [f64]) {
    let dst: &mut [f64; B] = (&mut out[j..j + B]).try_into().expect("block width");
    let mut acc = *dst;
    for (&row, &a) in rows.iter().zip(vals) {
        let wr: &[f64; B] = w[row + j..row + j + B].try_into().expect("block width");
        for (c, &wv) in acc.iter_mut().zip(wr) {
            *c += a * wv;
        }
    }
    *dst = acc;
}

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
    /// One kernel serves every layer width. The input is read in chunks
    /// of 64; each chunk's *nonzero* entries are compacted into a
    /// stack block, and the outputs are then swept in column blocks of
    /// 32, 8 and finally 1, each block's partial sums held in registers
    /// while every compacted row of the chunk is folded in (k ascending)
    /// and stored back once. The featurized input is sparse (empty
    /// slots, unoccupied image pixels) and so are ReLU activations, so
    /// most weight rows are never loaded at all.
    ///
    /// The compaction is **branchless** (unconditional write, conditional
    /// increment): a per-input `if a == 0.0` branch would be near-random
    /// on real activations, a tax invisible in microbenchmarks that
    /// replay one input but dominant in situ. Skipping a zero input is
    /// bit-identical to folding it in: with finite weights (which
    /// [`Mlp::validate`](crate::Mlp::validate) enforces on load),
    /// `0.0 * w` is `±0.0`, and adding `±0.0` to an accumulator that is
    /// never `-0.0` (an ascending chain seeded with `+0.0` cannot produce
    /// `-0.0`) returns the accumulator unchanged.
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
        // Offsets of the chunk's nonzero weight rows, and their inputs.
        let mut rows = [0usize; CHUNK];
        let mut vals = [0.0f64; CHUNK];
        for (c, chunk) in x.chunks(CHUNK).enumerate() {
            let mut nnz = 0usize;
            for (k, &a) in chunk.iter().enumerate() {
                rows[nnz] = (c * CHUNK + k) * n;
                vals[nnz] = a;
                nnz += usize::from(a != 0.0);
            }
            let (rows, vals) = (&rows[..nnz], &vals[..nnz]);
            let mut j = 0;
            while j + 32 <= n {
                fold_block::<32>(w, rows, vals, j, out);
                j += 32;
            }
            while j + 8 <= n {
                fold_block::<8>(w, rows, vals, j, out);
                j += 8;
            }
            while j < n {
                fold_block::<1>(w, rows, vals, j, out);
                j += 1;
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

    /// The single-example kernel must stay bit-identical to the batch
    /// path on every column-block remainder (outputs covering each mix of
    /// 32-, 8- and 1-wide blocks), on one and several compaction chunks
    /// (inputs below, at and past multiples of [`CHUNK`]), and on sparse
    /// inputs: zeros scattered through the input, at both edges of every
    /// chunk, and one all-zero chunk.
    #[test]
    fn forward_one_into_unroll_matches_batch_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for input in [1usize, 3, 4, 5, 7, 8, 11, 16, 63, 64, 65, 163, 600] {
            for output in [1usize, 3, 7, 8, 9, 16, 17, 31, 32, 33, 40, 128, 130] {
                for act in [Activation::Relu, Activation::Identity, Activation::Tanh] {
                    let layer = Dense::new(input, output, act, &mut rng);
                    let x: Vec<f64> = (0..input)
                        .map(|i| {
                            let edge = i % CHUNK == 0 || i % CHUNK == CHUNK - 1;
                            let empty_chunk = (2 * CHUNK..3 * CHUNK).contains(&i);
                            if i % 3 == 0 || edge || empty_chunk {
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
