//! Fast-precision (`f32`) inference engine.
//!
//! Training stays in `f64`: REINFORCE's advantage estimates are tiny
//! differences of large returns, RMSProp's second-moment accumulators
//! shrink quadratically, and the golden determinism tables pin the exact
//! `f64` forward pass bit-for-bit. Inference inside the search loop has
//! neither constraint — a policy *distribution* only needs enough
//! precision to preserve the action ranking — so the hot path can trade
//! half the weight-stream bandwidth for throughput.
//!
//! [`InferenceEngine`] snapshots an [`Mlp`] into an `f32` layout built
//! for the single-example case the search loop actually runs:
//!
//! * **Input-major, like training**: weights stay `in × out` so row `k`
//!   is "what input `k` contributes to every output". A zero feature —
//!   and the featurized states are mostly zeros (empty ready slots,
//!   sparse cluster image) — skips its whole row. The exact `f64`
//!   kernel in [`Dense::forward_one_into`](crate::Dense::forward_one_into)
//!   skips zeros too, compacting 64 inputs at a time and sweeping
//!   register-held column blocks over them; this engine compacts the
//!   whole input once and streams half the weight bytes.
//! * **Lane-padded outputs**: every weight row, the bias, and the
//!   activation scratch are padded with zeros to a multiple of
//!   [`LANES`], so the vectorized sweep over outputs has no scalar
//!   remainder. Padding lanes only ever hold exact `+0.0` terms and
//!   cannot change the logical outputs.
//! * **Safe Rust only**: compacted input rows fold four at a time into
//!   the output row — long independent accumulator chains across the
//!   output dimension that the autovectorizer maps onto SIMD lanes
//!   without any `unsafe` (`#![forbid(unsafe_code)]` stays). Layers
//!   whose padded output row fits in registers take a fixed-width
//!   kernel whose accumulators never round-trip through memory.
//!
//! The engine is a *snapshot*: it borrows nothing and does not track
//! later training updates. Snapshotting is deterministic — the same
//! `Mlp` always yields bit-identical tables — and `f64 → f32` rounding
//! is the only precision loss (validated by the tolerance proptests here
//! and the diffcheck judges downstream).

use serde::{Deserialize, Serialize};

use crate::{Activation, Mlp};

/// `f32` lanes per accumulator block: 8 × 4 bytes = one 256-bit vector.
pub const LANES: usize = 8;

/// Numeric mode of the policy/value forward passes.
///
/// `Exact` is the default and is golden-checked bit-for-bit; `Fast` runs
/// the `f32` [`InferenceEngine`] and is validated by tolerance bounds and
/// the differential judges instead of bit-identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Precision {
    /// The exact `f64` path — bit-identical to training-time forward
    /// passes and to every pinned golden table.
    #[default]
    Exact,
    /// The `f32` [`InferenceEngine`] path — faster, validated by
    /// tolerance and differential checks rather than bit-identity.
    Fast,
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Precision::Exact),
            "fast" => Ok(Precision::Fast),
            other => Err(format!("unknown precision `{other}` (use exact|fast)")),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::Exact => "exact",
            Precision::Fast => "fast",
        })
    }
}

/// One snapshotted layer: input-major, lane-padded `f32` tables.
#[derive(Debug, Clone, PartialEq)]
struct InferLayer {
    /// `in_dim` rows of `padded_out` weights each (training layout with
    /// zero tail lanes): row `k` holds input `k`'s contribution to every
    /// output.
    weights: Vec<f32>,
    /// Bias per output, lane-padded with zeros, applied in the epilogue.
    bias: Vec<f32>,
    /// Logical (unpadded) input width.
    in_dim: usize,
    /// Logical (unpadded) output width.
    out_dim: usize,
    /// Row stride: `out_dim` rounded up to a multiple of [`LANES`].
    padded_out: usize,
    activation: Activation,
}

/// Reusable buffers for [`InferenceEngine`] forward passes.
///
/// Activations travel between layers as a *compacted* sparse list
/// (`idx`/`val` pairs holding only the nonzero entries) — produced for
/// free by the previous layer's activation epilogue — plus one dense
/// row buffer that holds the current layer's raw outputs (and, after
/// the last layer, the logits the caller reads).
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    front_idx: Vec<u32>,
    front_val: Vec<f32>,
    back_idx: Vec<u32>,
    back_val: Vec<f32>,
    row: Vec<f32>,
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Round `n` up to a multiple of [`LANES`].
#[inline]
fn pad(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// An `f32` snapshot of an [`Mlp`] in an input-major, lane-padded
/// layout, with sparsity-aware, autovectorization-friendly forward
/// kernels.
///
/// ```
/// use rand::SeedableRng;
/// use spear_nn::{InferScratch, InferenceEngine, Mlp, MlpConfig};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Mlp::new(MlpConfig::new(4, &[8], 3), &mut rng);
/// let engine = InferenceEngine::from_mlp(&net);
/// let mut scratch = InferScratch::new();
/// let out = engine.forward_one(&[0.1, -0.2, 0.3, 0.4], &mut scratch);
/// assert_eq!(out.len(), 3);
/// let exact = net.forward_one(&[0.1, -0.2, 0.3, 0.4]);
/// for (f, e) in out.iter().zip(&exact) {
///     assert!((f64::from(*f) - e).abs() < 1e-4);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceEngine {
    layers: Vec<InferLayer>,
    input_dim: usize,
    output_dim: usize,
}

impl InferenceEngine {
    /// Snapshots `net` into the `f32` inference layout. Deterministic:
    /// the same network always produces bit-identical tables.
    #[must_use]
    pub fn from_mlp(net: &Mlp) -> Self {
        let layers: Vec<InferLayer> = net
            .layers()
            .iter()
            .map(|layer| {
                let in_dim = layer.input_dim();
                let out_dim = layer.output_dim();
                let padded_out = pad(out_dim);
                let w = layer.weights().as_slice();
                // Keep the `in × out` training layout, widening each row
                // to `padded_out` with a zero tail.
                let mut weights = vec![0.0f32; in_dim * padded_out];
                for k in 0..in_dim {
                    for j in 0..out_dim {
                        weights[k * padded_out + j] = w[k * out_dim + j] as f32;
                    }
                }
                let mut bias = vec![0.0f32; padded_out];
                for (dst, &b) in bias.iter_mut().zip(layer.bias()) {
                    *dst = b as f32;
                }
                InferLayer {
                    weights,
                    bias,
                    in_dim,
                    out_dim,
                    padded_out,
                    activation: layer.activation(),
                }
            })
            .collect();
        let input_dim = net.config().input;
        let output_dim = net.config().output;
        InferenceEngine {
            layers,
            input_dim,
            output_dim,
        }
    }

    /// Input width the engine expects.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width the engine produces.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// One dense layer over a compacted single example: `idx`/`val`
    /// hold the nonzero inputs (zero features — the common case in the
    /// sparse featurization and after every ReLU — skip their entire
    /// weight row). Four compacted rows fold into the output row per
    /// pass: the sweep over `padded_out` outputs is the vector axis
    /// (every `out[j]` an independent accumulator chain, no cross-lane
    /// reduction), and the fold amortizes the read-modify-write traffic
    /// on the accumulator row 4x. The per-output add chain stays
    /// k-ascending, so the result is deterministic. `out` is resized to
    /// `padded_out` with an exact-zero tail.
    fn layer_forward(
        layer: &InferLayer,
        idx: &[u32],
        val: &[f32],
        out: &mut Vec<f32>,
        out_idx: &mut Vec<u32>,
        out_val: &mut Vec<f32>,
    ) {
        let n = layer.padded_out;
        out.clear();
        out.resize(n, 0.0);
        let w = &layer.weights[..];
        let nnz = idx.len();
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
            // Zip chains instead of `r[j]` indexing: every operand
            // iterator has length `n`, so no bounds checks survive to
            // perturb the vectorized loop body.
            for ((((cv, &w0), &w1), &w2), &w3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                let mut acc = *cv;
                acc += a0 * w0;
                acc += a1 * w1;
                acc += a2 * w2;
                acc += a3 * w3;
                *cv = acc;
            }
            i += 4;
        }
        for (&k, &a) in idx[i..].iter().zip(&val[i..]) {
            let k = k as usize;
            for (cv, &wv) in out.iter_mut().zip(&w[k * n..(k + 1) * n]) {
                *cv += a * wv;
            }
        }
        Self::epilogue(layer, &mut out[..layer.out_dim], out_idx, out_val);
    }

    /// Fixed-width variant of [`InferenceEngine::layer_forward`] for
    /// layers whose padded output row fits in registers (`padded_out ==
    /// N`). Four independent `[f32; N]` accumulators stay live across
    /// *all* compacted input rows — the row is loaded and stored exactly
    /// once instead of once per fold group — and are combined in a fixed
    /// order at the end, so the result is still deterministic.
    fn layer_forward_fixed<const N: usize>(
        layer: &InferLayer,
        idx: &[u32],
        val: &[f32],
        out: &mut Vec<f32>,
        out_idx: &mut Vec<u32>,
        out_val: &mut Vec<f32>,
    ) {
        debug_assert_eq!(layer.padded_out, N);
        let w = &layer.weights[..];
        let mut acc0 = [0.0f32; N];
        let mut acc1 = [0.0f32; N];
        let mut acc2 = [0.0f32; N];
        let mut acc3 = [0.0f32; N];
        let nnz = idx.len();
        let mut i = 0usize;
        while i + 4 <= nnz {
            let (k0, k1, k2, k3) = (
                idx[i] as usize,
                idx[i + 1] as usize,
                idx[i + 2] as usize,
                idx[i + 3] as usize,
            );
            let (a0, a1, a2, a3) = (val[i], val[i + 1], val[i + 2], val[i + 3]);
            let r0: &[f32; N] = w[k0 * N..k0 * N + N].try_into().expect("row width");
            let r1: &[f32; N] = w[k1 * N..k1 * N + N].try_into().expect("row width");
            let r2: &[f32; N] = w[k2 * N..k2 * N + N].try_into().expect("row width");
            let r3: &[f32; N] = w[k3 * N..k3 * N + N].try_into().expect("row width");
            for j in 0..N {
                acc0[j] += a0 * r0[j];
                acc1[j] += a1 * r1[j];
                acc2[j] += a2 * r2[j];
                acc3[j] += a3 * r3[j];
            }
            i += 4;
        }
        for (&k, &a) in idx[i..].iter().zip(&val[i..]) {
            let k = k as usize;
            let r: &[f32; N] = w[k * N..k * N + N].try_into().expect("row width");
            for j in 0..N {
                acc0[j] += a * r[j];
            }
        }
        out.clear();
        out.resize(N, 0.0);
        for (j, cv) in out.iter_mut().enumerate() {
            *cv = (acc0[j] + acc1[j]) + (acc2[j] + acc3[j]);
        }
        Self::epilogue(layer, &mut out[..layer.out_dim], out_idx, out_val);
    }

    /// Fused layer epilogue: applies `act(z + b)` in place over the
    /// logical output row *and* emits the next layer's compacted
    /// `(idx, val)` input list in the same sweep (branchlessly, via a
    /// conditionally-bumped cursor), so no separate zero-scan pass
    /// exists anywhere on the inference path.
    #[inline]
    fn epilogue(
        layer: &InferLayer,
        row: &mut [f32],
        out_idx: &mut Vec<u32>,
        out_val: &mut Vec<f32>,
    ) {
        out_idx.clear();
        out_idx.resize(layer.out_dim, 0);
        out_val.clear();
        out_val.resize(layer.out_dim, 0.0);
        let mut m = 0usize;
        for (j, (cv, &b)) in row.iter_mut().zip(&layer.bias).enumerate() {
            let v = layer.activation.apply_f32(*cv + b);
            *cv = v;
            out_idx[m] = j as u32;
            out_val[m] = v;
            m += usize::from(v != 0.0);
        }
        out_idx.truncate(m);
        out_val.truncate(m);
    }

    /// Forward pass of one example. Converts the `f64` features to `f32`
    /// at the boundary, then runs every layer in `f32`. Returns the
    /// logical (unpadded) output row, valid until the next call on the
    /// same scratch.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != input_dim()`.
    pub fn forward_one<'s>(&self, features: &[f64], scratch: &'s mut InferScratch) -> &'s [f32] {
        assert_eq!(features.len(), self.input_dim, "input width mismatch");
        // Compact the f64 input straight into (idx, val) — the dense
        // f32 copy of the features is never materialized. A tiny f64
        // that rounds to 0.0f32 stays in the list; it only adds exact
        // zeros downstream.
        scratch.front_idx.clear();
        scratch.front_idx.resize(features.len(), 0);
        scratch.front_val.clear();
        scratch.front_val.resize(features.len(), 0.0);
        let mut m = 0usize;
        for (k, &x) in features.iter().enumerate() {
            scratch.front_idx[m] = k as u32;
            scratch.front_val[m] = x as f32;
            m += usize::from(x != 0.0);
        }
        scratch.front_idx.truncate(m);
        scratch.front_val.truncate(m);
        for layer in &self.layers {
            // Dispatch narrow layers to the register-resident kernel.
            // The choice depends only on the layer shape, so every call
            // takes the same path and stays deterministic.
            let kernel = match layer.padded_out {
                8 => Self::layer_forward_fixed::<8>,
                16 => Self::layer_forward_fixed::<16>,
                24 => Self::layer_forward_fixed::<24>,
                32 => Self::layer_forward_fixed::<32>,
                _ => Self::layer_forward,
            };
            kernel(
                layer,
                &scratch.front_idx,
                &scratch.front_val,
                &mut scratch.row,
                &mut scratch.back_idx,
                &mut scratch.back_val,
            );
            std::mem::swap(&mut scratch.front_idx, &mut scratch.back_idx);
            std::mem::swap(&mut scratch.front_val, &mut scratch.back_val);
        }
        &scratch.row[..self.output_dim]
    }
}

/// [`softmax_masked_into`](crate::softmax_masked_into) in `f32`: the
/// same stable algorithm (legal max, shifted exp, renormalize) over the
/// fast path's logits, kept entirely in `f32` so a cached probability
/// row replays bit-identically to the miss that produced it.
///
/// # Panics
///
/// Panics if `mask` has a different length than `logits` or no entry is
/// legal.
pub fn softmax_masked_f32_into(logits: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(mask.iter().any(|&m| m), "at least one action must be legal");
    let max = logits
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f32::NEG_INFINITY, f32::max);
    out.clear();
    out.extend(
        logits
            .iter()
            .zip(mask)
            .map(|(&l, &m)| if m { (l - max).exp() } else { 0.0 }),
    );
    let sum: f32 = out.iter().sum();
    for p in out.iter_mut() {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{softmax_masked_into, MlpConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paperish(seed: u64, input: usize, hidden: &[usize], output: usize) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(MlpConfig::new(input, hidden, output), &mut rng)
    }

    /// Snapshotting the same network twice yields bit-identical tables —
    /// the exact≡exact regression for the snapshot/rebuild path.
    #[test]
    fn snapshot_is_deterministic() {
        let net = paperish(3, 19, &[33, 8], 5);
        let a = InferenceEngine::from_mlp(&net);
        let b = InferenceEngine::from_mlp(&net);
        assert_eq!(a.layers.len(), b.layers.len());
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            let wa: Vec<u32> = la.weights.iter().map(|w| w.to_bits()).collect();
            let wb: Vec<u32> = lb.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(wa, wb);
            let ba: Vec<u32> = la.bias.iter().map(|b| b.to_bits()).collect();
            let bb: Vec<u32> = lb.bias.iter().map(|b| b.to_bits()).collect();
            assert_eq!(ba, bb);
            assert_eq!(la.padded_out % LANES, 0);
        }
        assert_eq!(a, b);
    }

    /// Padding tail lanes hold exact zeros at every width.
    #[test]
    fn padding_lanes_are_zero() {
        for input in [1usize, 7, 8, 9, 16, 163] {
            let net = paperish(11, input, &[17], 3);
            let engine = InferenceEngine::from_mlp(&net);
            for layer in &engine.layers {
                assert_eq!(layer.weights.len(), layer.in_dim * layer.padded_out);
                for row in layer.weights.chunks_exact(layer.padded_out) {
                    for &w in &row[layer.out_dim..] {
                        assert_eq!(w.to_bits(), 0.0f32.to_bits());
                    }
                }
                for &b in &layer.bias[layer.out_dim..] {
                    assert_eq!(b.to_bits(), 0.0f32.to_bits());
                }
            }
        }
    }

    /// The `f32` forward pass tracks the exact `f64` one within a tight
    /// absolute tolerance across layer widths (including non-multiples
    /// of the lane count) and activations.
    #[test]
    fn forward_one_tracks_f64_within_tolerance() {
        for (seed, input, hidden, output) in [
            (0u64, 4usize, vec![8usize], 3usize),
            (1, 7, vec![9, 5], 4),
            (2, 163, vec![256, 32, 32], 16),
        ] {
            let mut net = paperish(seed, input, &hidden, output);
            let engine = InferenceEngine::from_mlp(&net);
            let mut scratch = InferScratch::new();
            let x: Vec<f64> = (0..input)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i as f64) * 0.29 - 1.3
                    }
                })
                .collect();
            let exact = net.forward_one(&x);
            let fast = engine.forward_one(&x, &mut scratch);
            assert_eq!(fast.len(), exact.len());
            for (f, e) in fast.iter().zip(&exact) {
                assert!((f64::from(*f) - e).abs() < 1e-3, "seed {seed}: {f} vs {e}");
            }
        }
    }

    /// The `f32` masked softmax mirrors the `f64` one: zero on illegal
    /// entries, sums to one, close probabilities.
    #[test]
    fn masked_softmax_f32_matches_f64() {
        let logits64 = [1.5f64, -0.25, 3.0, 0.0, -2.0];
        let logits32: Vec<f32> = logits64.iter().map(|&l| l as f32).collect();
        let mask = [true, false, true, true, false];
        let mut p64 = Vec::new();
        softmax_masked_into(&logits64, &mask, &mut p64);
        let mut p32 = Vec::new();
        softmax_masked_f32_into(&logits32, &mask, &mut p32);
        assert!((p32.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        for (a, b) in p32.iter().zip(&p64) {
            assert!((f64::from(*a) - b).abs() < 1e-5);
        }
        assert_eq!(p32[1], 0.0);
        assert_eq!(p32[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one action must be legal")]
    fn masked_softmax_f32_rejects_all_illegal() {
        let mut out = Vec::new();
        softmax_masked_f32_into(&[1.0, 2.0], &[false, false], &mut out);
    }

    proptest! {
        /// Logits-tolerance bound: over random paper-shaped networks and
        /// inputs, the fast logits stay within an absolute bound of the
        /// exact ones, and the argmax agrees unless the exact top two
        /// logits are closer than twice that bound (where either answer
        /// is within tolerance by construction).
        #[test]
        fn fast_logits_within_bound_and_argmax_agrees(
            seed in 0u64..500,
            xseed in 0u64..500,
        ) {
            const BOUND: f64 = 1e-3;
            let mut net = paperish(seed, 24, &[48, 16], 8);
            let engine = InferenceEngine::from_mlp(&net);
            let mut scratch = InferScratch::new();
            let mut xrng = StdRng::seed_from_u64(xseed);
            let x: Vec<f64> = (0..24)
                .map(|_| {
                    use rand::Rng;
                    if xrng.gen::<f64>() < 0.4 { 0.0 } else { xrng.gen::<f64>() * 2.0 - 1.0 }
                })
                .collect();
            let exact = net.forward_one(&x);
            let fast = engine.forward_one(&x, &mut scratch);
            let mut max_diff = 0.0f64;
            for (f, e) in fast.iter().zip(&exact) {
                max_diff = max_diff.max((f64::from(*f) - e).abs());
            }
            prop_assert!(max_diff < BOUND, "max |f64 - f32| = {max_diff}");

            let argmax = |v: &[f64]| {
                v.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            };
            let exact_top = argmax(&exact);
            let fast64: Vec<f64> = fast.iter().map(|&f| f64::from(f)).collect();
            let fast_top = argmax(&fast64);
            if fast_top != exact_top {
                // Disagreement is only acceptable inside the tolerance
                // band: the exact runner-up must be within 2·BOUND of
                // the exact winner.
                let mut sorted = exact.clone();
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                prop_assert!(
                    sorted[0] - sorted[1] < 2.0 * BOUND,
                    "argmax flipped outside the tolerance band: {sorted:?}"
                );
            }
        }
    }
}
