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

/// [`fold_block`] over every output of `out`: column blocks of 32, then
/// 8, then 1, each output's partial sum taking the rows in order.
#[inline(always)]
fn fold_row(w: &[f64], rows: &[usize], vals: &[f64], out: &mut [f64]) {
    let n = out.len();
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

/// Adds `xᵀ · dz` to `grad` (`in × out`) with no temporary matrix. For
/// each input `k`, the batch rows whose `x[i][k]` is nonzero are
/// compacted (ascending `i`), folded into a row of partial sums that
/// starts at `0.0`, and the finished row is added to `grad`'s row `k`
/// once. Per element that is `grad + ((0.0 + x₀·dz₀) + x₁·dz₁ …)`, rows
/// ascending and zero `x` skipped: the bits of building `xᵀ · dz` with
/// the i-k-j loop and adding it scaled by `1.0`, the reference the tests
/// compare against.
fn add_weight_gradient(x: &Matrix, dz: &Matrix, grad: &mut Matrix) {
    let (batch, input, n) = (x.rows(), x.cols(), dz.cols());
    let (xs, d) = (x.as_slice(), dz.as_slice());
    let mut rows = vec![0usize; batch];
    let mut vals = vec![0.0f64; batch];
    let mut sums = vec![0.0f64; n];
    for (k, g) in grad.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let mut nnz = 0usize;
        for i in 0..batch {
            let a = xs[i * input + k];
            rows[nnz] = i * n;
            vals[nnz] = a;
            nnz += usize::from(a != 0.0);
        }
        sums.fill(0.0);
        fold_row(d, &rows[..nnz], &vals[..nnz], &mut sums);
        for (g, &s) in g.iter_mut().zip(&sums) {
            *g += s;
        }
    }
}

/// `dz · Wᵀ` (`batch × in`), swept i-j-k over a transposed copy of `W`
/// so each row's outputs sit in registers in blocks of 32, 8 and 1.
/// Every output is the chain `0.0 + dz[i][0]·W[k][0] + dz[i][1]·W[k][1]
/// …`, `j` ascending, the plain dot product's, with no term skipped: a
/// zero `dz` times a non-finite weight still reaches the sum.
fn input_gradient(dz: &Matrix, w: &Matrix) -> Matrix {
    let (input, n) = (w.rows(), w.cols());
    let wt = Matrix::from_fn(n, input, |j, k| w.get(k, j));
    let rows: Vec<usize> = (0..n).map(|j| j * input).collect();
    let mut dx = Matrix::zeros(dz.rows(), input);
    for (out, d) in dx
        .as_mut_slice()
        .chunks_exact_mut(input)
        .zip(dz.as_slice().chunks_exact(n))
    {
        fold_row(wt.as_slice(), &rows, d, out);
    }
    dx
}

/// A dense layer `a = act(x · W + b)` with gradient accumulators.
///
/// `W` has shape `in × out`; inputs are batches of shape `batch × in`.
/// The layer caches its last input and post-activation output during
/// [`Dense::forward`] so [`Dense::backward_params`] can compute exact
/// gradients; [`Dense::backward_input`] needs only the weights.
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

    /// Forward pass for a batch; caches activations for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim()`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let z = self.infer(x);
        self.cache_input = Some(x.clone());
        self.cache_output = Some(z.clone());
        z
    }

    /// Inference-only forward pass: no activation caching (so no `backward`
    /// afterwards). Each row goes through [`Dense::forward_one_into`], so a
    /// batch row's outputs carry the same bits as that row alone, and the
    /// same as [`Matrix::matmul`] followed by `act(z + b)`: per output, k
    /// ascending from `0.0` with zero inputs skipped.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim()`.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let n = self.output_dim();
        let mut z = Matrix::zeros(x.rows(), n);
        let mut row = Vec::with_capacity(n);
        for (i, out) in z.as_mut_slice().chunks_exact_mut(n).enumerate() {
            self.forward_one_into(x.row(i), &mut row);
            out.copy_from_slice(&row);
        }
        z
    }

    /// Single-example inference into a caller-owned buffer: computes
    /// `act(x · W + b)` without touching the heap. The accumulation order
    /// (k ascending per output, zero inputs skipped, bias added after the
    /// products) matches [`Matrix::matmul`] + bias broadcast exactly. The
    /// batched [`Dense::forward`] and [`Dense::infer`] run every row
    /// through this kernel.
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

    /// The parameter half of the backward pass: given `d_out = ∂L/∂a`,
    /// turns it into `dz = ∂L/∂z` in place, accumulates `∂L/∂W = xᵀ·dz`
    /// and `∂L/∂b` (the column sums of `dz`), and returns `dz` for
    /// [`Dense::backward_input`]. The first layer of a network stops
    /// here: nothing reads the gradient of the network's input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::forward`].
    pub fn backward_params(&mut self, d_out: Matrix) -> Matrix {
        let x = self
            .cache_input
            .as_ref()
            .expect("backward requires a prior forward pass");
        let a = self
            .cache_output
            .as_ref()
            .expect("backward requires a prior forward pass");
        let mut dz = d_out;
        self.activation.backward_inplace(a, &mut dz);
        add_weight_gradient(x, &dz, &mut self.grad_weights);
        for (g, s) in self.grad_bias.iter_mut().zip(dz.column_sums()) {
            *g += s;
        }
        dz
    }

    /// The input half of the backward pass: `∂L/∂x = dz · Wᵀ` from the
    /// `dz` that [`Dense::backward_params`] returned, which the layer
    /// below takes as its `d_out`.
    pub fn backward_input(&self, dz: &Matrix) -> Matrix {
        input_gradient(dz, &self.weights)
    }

    /// The parameters beside their accumulated gradients, borrowed apart
    /// so an optimizer updates in place: `(weights, weight gradients,
    /// bias, bias gradients)`, the weights flat and row-major.
    pub(crate) fn params_and_grads_mut(&mut self) -> (&mut [f64], &[f64], &mut [f64], &[f64]) {
        (
            self.weights.as_mut_slice(),
            self.grad_weights.as_slice(),
            &mut self.bias,
            &self.grad_bias,
        )
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
    use crate::{Mlp, MlpConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`Matrix::matmul`] and `act(z + b)`, the bits every batched
    /// forward pass must reproduce.
    fn reference_infer(layer: &Dense, x: &Matrix) -> Matrix {
        let mut z = x.matmul(layer.weights());
        for row in z.as_mut_slice().chunks_exact_mut(layer.output_dim()) {
            for (v, &b) in row.iter_mut().zip(layer.bias()) {
                *v = layer.activation().apply(*v + b);
            }
        }
        z
    }

    /// The i-k-j `xᵀ · dz` [`add_weight_gradient`] must reproduce: zero
    /// entries of `x` skipped, the product built in a temporary and added
    /// to `grad` scaled by `1.0`.
    fn reference_weight_gradient(x: &Matrix, dz: &Matrix, grad: &mut Matrix) {
        let mut t = Matrix::zeros(x.cols(), dz.cols());
        for i in 0..x.rows() {
            for k in 0..x.cols() {
                let a = x.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..dz.cols() {
                    t.set(k, j, t.get(k, j) + a * dz.get(i, j));
                }
            }
        }
        for (g, &v) in grad.as_mut_slice().iter_mut().zip(t.as_slice()) {
            *g += 1.0 * v;
        }
    }

    /// The one-accumulator dot products of `dz · Wᵀ` [`input_gradient`]
    /// must reproduce.
    fn reference_input_gradient(dz: &Matrix, w: &Matrix) -> Matrix {
        Matrix::from_fn(dz.rows(), w.rows(), |i, k| {
            let mut acc = 0.0;
            for (&a, &b) in dz.row(i).iter().zip(w.row(k)) {
                acc += a * b;
            }
            acc
        })
    }

    /// The backward pass through the reference loops, every layer's
    /// input gradient included.
    fn reference_backward(net: &mut Mlp, d_logits: &Matrix) {
        let mut d = d_logits.clone();
        for layer in net.layers_mut().iter_mut().rev() {
            let x = layer.cache_input.as_ref().expect("a prior forward");
            let a = layer.cache_output.as_ref().expect("a prior forward");
            let mut dz = d;
            layer.activation.backward_inplace(a, &mut dz);
            reference_weight_gradient(x, &dz, &mut layer.grad_weights);
            for (g, s) in layer.grad_bias.iter_mut().zip(dz.column_sums()) {
                *g += s;
            }
            d = reference_input_gradient(&dz, &layer.weights);
        }
    }

    /// Widths on every remainder of the 32-, 8- and 1-wide column blocks,
    /// and the committed policy's 128 and 163.
    const WIDTHS: [usize; 9] = [1, 7, 8, 9, 31, 32, 33, 128, 163];

    fn width() -> impl Strategy<Value = usize> {
        (0..WIDTHS.len()).prop_map(|i| WIDTHS[i])
    }

    /// A `rows × cols` matrix shaped like training data: every fifth row
    /// all zeros, one column in `zero_col_every` all zeros, half of the
    /// remaining entries zero (some `-0.0`), the rest in `[-2, 2)`.
    fn sparse(rng: &mut StdRng, rows: usize, cols: usize, zero_col_every: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v: f64 = rng.gen_range(-2.0..2.0);
            if r % 5 == 4 || c % zero_col_every == 0 {
                0.0
            } else if v.abs() < 0.1 {
                -0.0
            } else if v < 0.0 && rng.gen::<bool>() {
                0.0
            } else {
                v
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both kernels equal their reference loops bit for bit, on 1–70
        /// batch rows, every block remainder, sparse rows, all-zero
        /// columns and a gradient that already holds values (some `-0.0`).
        #[test]
        fn backward_kernels_match_the_reference_loops(
            seed in any::<u64>(),
            batch in 1usize..71,
            input in width(),
            output in width(),
            zero_col_every in 2usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = sparse(&mut rng, batch, input, zero_col_every);
            let dz = sparse(&mut rng, batch, output, zero_col_every + 1);
            let w = Matrix::from_fn(input, output, |_, _| rng.gen_range(-1.0..1.0));
            let prefilled = Matrix::from_fn(input, output, |r, c| {
                if (r + c) % 7 == 0 { -0.0 } else { rng.gen_range(-1.0..1.0) }
            });
            let (mut fused, mut reference) = (prefilled.clone(), prefilled);
            add_weight_gradient(&x, &dz, &mut fused);
            reference_weight_gradient(&x, &dz, &mut reference);
            prop_assert_eq!(bits(&fused), bits(&reference));
            prop_assert_eq!(
                bits(&input_gradient(&dz, &w)),
                bits(&reference_input_gradient(&dz, &w))
            );
        }

        /// A batch through the row kernel equals the matrix product bit
        /// for bit.
        #[test]
        fn batched_forward_matches_the_reference_product(
            seed in any::<u64>(),
            batch in 1usize..71,
            input in width(),
            output in width(),
            zero_col_every in 2usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let act = [Activation::Relu, Activation::Identity, Activation::Tanh][(seed % 3) as usize];
            let mut layer = Dense::new(input, output, act, &mut rng);
            for b in layer.bias_mut() {
                *b = rng.gen_range(-0.5..0.5);
            }
            let x = sparse(&mut rng, batch, input, zero_col_every);
            prop_assert_eq!(bits(&layer.infer(&x)), bits(&reference_infer(&layer, &x)));
        }

        /// `Mlp::backward` leaves every layer's gradients with the bits
        /// of the reference backward, accumulated onto earlier gradients.
        #[test]
        fn mlp_backward_matches_the_reference_backward(
            seed in any::<u64>(),
            batch in 1usize..71,
            input in width(),
            hidden in width(),
            output in width(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = Mlp::new(MlpConfig::new(input, &[hidden, 9], output), &mut rng);
            for round in 0..2 {
                let x = sparse(&mut rng, batch, input, 2 + round);
                let logits = net.forward(&x);
                let d = Matrix::from_fn(batch, output, |r, c| {
                    logits.get(r, c) * rng.gen_range(-1.0..1.0)
                });
                let mut reference = net.clone();
                net.backward(&d);
                reference_backward(&mut reference, &d);
                for (a, b) in net.layers().iter().zip(reference.layers()) {
                    prop_assert_eq!(bits(a.grad_weights()), bits(b.grad_weights()));
                    let bias_bits = |l: &Dense| l.grad_bias().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bias_bits(a), bias_bits(b));
                }
            }
        }
    }

    /// A zero `dz` times an infinite weight is NaN, and the input
    /// gradient folds it in as the plain dot product does.
    #[test]
    fn input_gradient_folds_zero_terms_against_infinite_weights() {
        let mut w = Matrix::from_fn(33, 9, |r, c| (r * 9 + c) as f64 * 0.01 - 1.0);
        w.set(3, 0, f64::INFINITY);
        w.set(20, 8, f64::NEG_INFINITY);
        let dz = Matrix::from_fn(4, 9, |r, c| if (r + c) % 2 == 0 { 0.0 } else { 0.5 });
        let fused = input_gradient(&dz, &w);
        assert_eq!(bits(&fused), bits(&reference_input_gradient(&dz, &w)));
        assert!(fused.get(0, 3).is_nan(), "0 × ∞ must reach the sum");
    }

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
        layer.backward_params(d.clone());
        let g1 = layer.grad_weights().clone();
        layer.forward(&x);
        layer.backward_params(d);
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
        let dz = layer.backward_params(ones);
        let dx = layer.backward_input(&dz);

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
    /// matrix product on every column-block remainder (outputs covering
    /// each mix of 32-, 8- and 1-wide blocks), on one and several
    /// compaction chunks (inputs below, at and past multiples of
    /// [`CHUNK`]), and on sparse inputs: zeros scattered through the
    /// input, at both edges of every chunk, and one all-zero chunk.
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
                    let batch = reference_infer(&layer, &Matrix::from_rows(&[&x]));
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
        let _ = layer.backward_params(Matrix::zeros(1, 2));
    }

    #[test]
    fn scale_grad_divides_batch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        layer.forward(&x);
        layer.backward_params(Matrix::from_rows(&[&[2.0]]));
        let before = layer.grad_bias()[0];
        layer.scale_grad(0.5);
        assert!((layer.grad_bias()[0] - before / 2.0).abs() < 1e-12);
    }
}
