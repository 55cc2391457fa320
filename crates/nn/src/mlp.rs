//! The multi-layer perceptron.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, Dense, Matrix};

/// Architecture of an [`Mlp`]: input width, hidden widths and output width.
///
/// The paper's policy network is `MlpConfig::new(input, &[256, 32, 32],
/// actions)` with ReLU hidden activations and raw logits out (softmax is
/// applied by the loss / the policy sampler, which keeps masking exact).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature count.
    pub input: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output (logit) count.
    pub output: usize,
    /// Hidden activation (ReLU by default).
    pub activation: Activation,
}

impl MlpConfig {
    /// Creates a config with ReLU hidden layers.
    pub fn new(input: usize, hidden: &[usize], output: usize) -> Self {
        MlpConfig {
            input,
            hidden: hidden.to_vec(),
            output,
            activation: Activation::Relu,
        }
    }

    /// The paper's 3-hidden-layer architecture (256/32/32).
    pub fn paper(input: usize, output: usize) -> Self {
        Self::new(input, &[256, 32, 32], output)
    }
}

/// Reusable buffers for [`Mlp::forward_one_into`]: two layer-activation
/// vectors swapped between layers. One scratch per inference site keeps the
/// hot path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    front: Vec<f64>,
    back: Vec<f64>,
}

/// A network whose stored shapes disagree with each other or with its
/// config: a truncated or hand-edited weights file, or a network built
/// for another feature layout. A parameter that is not finite counts
/// too: its layer's non-finite count must be 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The quantity that disagrees, e.g. `layer 0 weights data length`.
    pub what: String,
    /// The value the rest of the network requires.
    pub expected: usize,
    /// The value stored.
    pub found: usize,
}

impl ShapeError {
    /// Returns `Ok` iff `found == expected`, else the mismatch of `what`.
    ///
    /// # Errors
    /// The mismatch.
    pub fn check(what: impl fmt::Display, expected: usize, found: usize) -> Result<(), Self> {
        if found == expected {
            Ok(())
        } else {
            Err(ShapeError {
                what: what.to_string(),
                expected,
                found,
            })
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed network: {} is {}, expected {}",
            self.what, self.found, self.expected
        )
    }
}

impl std::error::Error for ShapeError {}

/// A fully connected network: hidden layers with a shared activation and a
/// linear logits layer. See the [crate docs](crate) for a training example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds a randomly initialized network.
    ///
    /// # Panics
    ///
    /// Panics if any width in the config is zero.
    pub fn new<R: Rng + ?Sized>(config: MlpConfig, rng: &mut R) -> Self {
        assert!(config.input > 0 && config.output > 0, "zero-width layer");
        assert!(
            config.hidden.iter().all(|&h| h > 0),
            "zero-width hidden layer"
        );
        let mut layers = Vec::with_capacity(config.hidden.len() + 1);
        let mut prev = config.input;
        for &h in &config.hidden {
            layers.push(Dense::new(prev, h, config.activation, rng));
            prev = h;
        }
        layers.push(Dense::new(prev, config.output, Activation::Identity, rng));
        Mlp { config, layers }
    }

    /// The architecture.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The layers, input-first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Checks every stored shape against the config: each layer's input
    /// and output widths (which also chains adjacent layers), its weight
    /// and weight-gradient matrices' dimensions and data lengths, and its
    /// bias and bias-gradient lengths. It also checks that every weight
    /// and bias is finite: the inference kernels skip zero inputs, which
    /// equals folding them in only when `0 × w` is `±0` (DESIGN.md §9).
    /// Every constructor keeps these; deserialization alone cannot, so
    /// [`Mlp::load`] checks them.
    ///
    /// # Errors
    /// The first mismatch found.
    pub fn validate(&self) -> Result<(), ShapeError> {
        let widths: Vec<usize> = std::iter::once(self.config.input)
            .chain(self.config.hidden.iter().copied())
            .chain(std::iter::once(self.config.output))
            .collect();
        ShapeError::check("layer count", widths.len() - 1, self.layers.len())?;
        for (i, (layer, io)) in self.layers.iter().zip(widths.windows(2)).enumerate() {
            let (input, output) = (io[0], io[1]);
            for (name, m) in [
                ("weights", layer.weights()),
                ("weight gradients", layer.grad_weights()),
            ] {
                ShapeError::check(format_args!("layer {i} {name} rows"), input, m.rows())?;
                ShapeError::check(format_args!("layer {i} {name} columns"), output, m.cols())?;
                ShapeError::check(
                    format_args!("layer {i} {name} data length"),
                    input.saturating_mul(output),
                    m.as_slice().len(),
                )?;
            }
            ShapeError::check(
                format_args!("layer {i} bias length"),
                output,
                layer.bias().len(),
            )?;
            ShapeError::check(
                format_args!("layer {i} bias gradient length"),
                output,
                layer.grad_bias().len(),
            )?;
            for (name, values) in [
                ("weight", layer.weights().as_slice()),
                ("bias", layer.bias()),
            ] {
                ShapeError::check(
                    format_args!("layer {i} non-finite {name} count"),
                    0,
                    values.iter().filter(|v| !v.is_finite()).count(),
                )?;
            }
        }
        Ok(())
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input_dim() * l.output_dim() + l.output_dim())
            .sum()
    }

    /// Forward pass for a batch (`batch × input`), returning logits
    /// (`batch × output`). Caches activations for [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the input width disagrees with the config.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.config.input, "input width mismatch");
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("an MLP always has a logits layer");
        let mut a = first.forward(x);
        for layer in rest {
            a = layer.forward(&a);
        }
        a
    }

    /// Convenience forward for one example.
    pub fn forward_one(&mut self, features: &[f64]) -> Vec<f64> {
        let logits = self.forward(&Matrix::row_vector(features));
        logits.row(0).to_vec()
    }

    /// Inference-only batch forward: one [`Dense::infer`] pass per layer
    /// with no activation caching (and so no [`Mlp::backward`] afterwards)
    /// and no cache clones. Logits are bit-identical to [`Mlp::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the input width disagrees with the config.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.config.input, "input width mismatch");
        let mut a = self.layers[0].infer(x);
        for layer in &self.layers[1..] {
            a = layer.infer(&a);
        }
        a
    }

    /// Single-example inference through reusable ping-pong buffers: zero
    /// heap allocations in steady state (the scratch grows to the widest
    /// layer once and is reused). Returns the logits as a slice borrowed
    /// from the scratch. Bit-identical to [`Mlp::forward_one`].
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` disagrees with the config.
    pub fn forward_one_into<'s>(
        &self,
        features: &[f64],
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        assert_eq!(features.len(), self.config.input, "input width mismatch");
        let (first, rest) = self
            .layers
            .split_first()
            .expect("an MLP always has a logits layer");
        first.forward_one_into(features, &mut scratch.front);
        for layer in rest {
            layer.forward_one_into(&scratch.front, &mut scratch.back);
            std::mem::swap(&mut scratch.front, &mut scratch.back);
        }
        &scratch.front
    }

    /// Backward pass from `d_logits = ∂L/∂logits`, accumulating gradients
    /// in every layer. Each layer takes its parameter half
    /// ([`Dense::backward_params`]); every layer but the first also hands
    /// `dz · Wᵀ` ([`Dense::backward_input`]) down to the layer below. The
    /// first layer's input gradient would be `∂L/∂x` of the features,
    /// which nothing reads, so it is never computed.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward`].
    pub fn backward(&mut self, d_logits: &Matrix) {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("an MLP always has a logits layer");
        let mut d = d_logits.clone();
        for layer in rest.iter_mut().rev() {
            let dz = layer.backward_params(d);
            d = layer.backward_input(&dz);
        }
        first.backward_params(d);
    }

    /// Clears every layer's gradient accumulator.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Scales every accumulated gradient (e.g. `1/batch`).
    pub fn scale_grad(&mut self, factor: f64) {
        for layer in &mut self.layers {
            layer.scale_grad(factor);
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                l.grad_weights().frobenius_norm().powi(2)
                    + l.grad_bias().iter().map(|g| g * g).sum::<f64>()
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Clips gradients to a maximum global norm; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale_grad(max_norm / norm);
        }
        norm
    }

    /// Serializes the network (architecture + weights) as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), Box<dyn std::error::Error>> {
        serde_json::to_writer(writer, self)?;
        Ok(())
    }

    /// Deserializes a network saved with [`Mlp::save`] and checks its
    /// shapes ([`Mlp::validate`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors, and a [`ShapeError`]
    /// for a network whose shapes disagree.
    pub fn load<R: Read>(reader: R) -> Result<Self, Box<dyn std::error::Error>> {
        let net: Mlp = serde_json::from_reader(reader)?;
        net.validate()?;
        Ok(net)
    }

    /// Saves to a file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), Box<dyn std::error::Error>> {
        let file = std::fs::File::create(path)?;
        self.save(std::io::BufWriter::new(file))
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, Box<dyn std::error::Error>> {
        let file = std::fs::File::open(path)?;
        Self::load(std::io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Mlp {
        Mlp::new(
            MlpConfig::new(3, &[5, 4], 2),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn forward_shapes() {
        let mut net = small_net(0);
        let x = Matrix::zeros(7, 3);
        let y = net.forward(&x);
        assert_eq!(y.rows(), 7);
        assert_eq!(y.cols(), 2);
        assert_eq!(net.forward_one(&[0.0, 0.0, 0.0]).len(), 2);
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        let mut net = small_net(4);
        let x = Matrix::from_rows(&[
            &[0.4, -0.2, 0.9],
            &[-0.5, 0.3, 0.1],
            &[0.0, 1.0, -1.0],
            &[2.0, -2.0, 0.5],
            &[0.7, 0.0, 0.0],
        ]);
        let cached = net.forward(&x);
        let uncached = net.forward_batch(&x);
        assert_eq!(cached, uncached);
    }

    /// `forward_one_into` equals the batch path bit for bit, on a small
    /// net and on the committed policy's shape (163 → 128/32/32 → 16) with
    /// a sparse, featurization-like input.
    #[test]
    fn forward_one_into_is_bit_identical_to_forward_one() {
        let paper = Mlp::new(
            MlpConfig::new(163, &[128, 32, 32], 16),
            &mut StdRng::seed_from_u64(6),
        );
        let sparse: Vec<f64> = (0..163)
            .map(|i| {
                if i % 5 < 2 {
                    0.0
                } else {
                    (f64::from(i) * 0.113).sin()
                }
            })
            .collect();
        let small_inputs = vec![
            vec![0.4, -0.2, 0.9],
            vec![0.0, 0.0, 0.0],
            vec![-1.5, 2.5, 0.0],
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = ForwardScratch::default();
        for (mut net, inputs) in [(small_net(5), small_inputs), (paper, vec![sparse])] {
            for features in inputs {
                let boxed = net.forward_one(&features);
                let scratched = net.forward_one_into(&features, &mut scratch);
                assert_eq!(bits(&boxed), bits(scratched));
            }
        }
    }

    #[test]
    fn parameter_count() {
        let net = small_net(0);
        // 3*5+5 + 5*4+4 + 4*2+2 = 20 + 24 + 10 = 54.
        assert_eq!(net.parameter_count(), 54);
    }

    #[test]
    fn paper_architecture() {
        let cfg = MlpConfig::paper(162, 16);
        assert_eq!(cfg.hidden, vec![256, 32, 32]);
        assert_eq!(cfg.activation, Activation::Relu);
    }

    /// Full-network finite-difference check with loss L = Σ logits².
    #[test]
    fn finite_difference_check_whole_network() {
        let mut net = small_net(1);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-0.5, 0.3, 0.1]]);

        let loss =
            |net: &mut Mlp| -> f64 { net.forward(&x).as_slice().iter().map(|v| v * v).sum() };

        // Analytic: dL/dlogits = 2·logits.
        let logits = net.forward(&x);
        let mut d = logits.clone();
        d.map_inplace(|v| 2.0 * v);
        net.zero_grad();
        net.backward(&d);

        let eps = 1e-6;
        for li in 0..net.layers().len() {
            let n_w = net.layers()[li].weights().as_slice().len();
            for idx in (0..n_w).step_by(3) {
                let mut plus = net.clone();
                plus.layers_mut()[li].weights_mut().as_mut_slice()[idx] += eps;
                let mut minus = net.clone();
                minus.layers_mut()[li].weights_mut().as_mut_slice()[idx] -= eps;
                let numeric = (loss(&mut plus) - loss(&mut minus)) / (2.0 * eps);
                let analytic = net.layers()[li].grad_weights().as_slice()[idx];
                assert!(
                    (numeric - analytic).abs() < 1e-4 * (1.0 + analytic.abs()),
                    "layer {li} dW[{idx}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut net = small_net(2);
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let logits = net.forward(&x);
        let mut d = logits;
        d.map_inplace(|_| 10.0);
        net.backward(&d);
        let norm = net.grad_norm();
        assert!(norm > 0.0);
        let pre = net.clip_grad_norm(norm / 2.0);
        assert!((pre - norm).abs() < 1e-9);
        assert!((net.grad_norm() - norm / 2.0).abs() < 1e-6);
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let mut net = small_net(3);
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let mut loaded = Mlp::load(buf.as_slice()).unwrap();
        let x = [0.1, 0.2, 0.3];
        let a = net.forward_one(&x);
        let b = loaded.forward_one(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(net.config(), loaded.config());
    }

    /// A weights file whose shapes disagree loads as a [`ShapeError`],
    /// never as a network that panics on its first forward pass.
    #[test]
    fn load_rejects_malformed_shapes() {
        use serde_json::Value;
        fn field<'v>(v: &'v mut Value, name: &str) -> &'v mut Value {
            match v {
                Value::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == name).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        fn array(v: &mut Value) -> &mut Vec<Value> {
            match v {
                Value::Arr(items) => items,
                _ => panic!("not an array"),
            }
        }
        let saved = serde_json::to_value(&small_net(3));
        let load = |v: &Value| -> ShapeError {
            let text = serde_json::to_string(v).unwrap();
            *Mlp::load(text.as_bytes())
                .unwrap_err()
                .downcast::<ShapeError>()
                .expect("a shape error")
        };

        let mut truncated = saved.clone();
        let layer0 = &mut array(field(&mut truncated, "layers"))[0];
        array(field(field(layer0, "weights"), "data")).truncate(2);
        let err = load(&truncated);
        assert_eq!(err.what, "layer 0 weights data length");
        assert_eq!((err.expected, err.found), (15, 2));

        let mut short_bias = saved.clone();
        let layer1 = &mut array(field(&mut short_bias, "layers"))[1];
        array(field(layer1, "bias")).pop();
        assert_eq!(load(&short_bias).what, "layer 1 bias length");

        let mut short_grads = saved.clone();
        let layer2 = &mut array(field(&mut short_grads, "layers"))[2];
        array(field(field(layer2, "grad_weights"), "data")).pop();
        assert_eq!(
            load(&short_grads).what,
            "layer 2 weight gradients data length"
        );

        let mut wrong_config = saved.clone();
        *field(field(&mut wrong_config, "config"), "input") = Value::Num(4.0);
        assert_eq!(load(&wrong_config).what, "layer 0 weights rows");

        let mut missing_layer = saved.clone();
        array(field(&mut missing_layer, "layers")).pop();
        assert_eq!(load(&missing_layer).what, "layer count");

        // JSON has no infinity, but `1e999` parses as one. A sentinel
        // marks where the overflowing literal goes.
        let mut infinite = saved;
        let layer1 = &mut array(field(&mut infinite, "layers"))[1];
        array(field(field(layer1, "weights"), "data"))[0] = Value::Num(123_456_789.0);
        let text = serde_json::to_string(&infinite)
            .unwrap()
            .replacen("[123456789,", "[1e999,", 1);
        let err = *Mlp::load(text.as_bytes())
            .unwrap_err()
            .downcast::<ShapeError>()
            .expect("a shape error");
        assert_eq!(err.what, "layer 1 non-finite weight count");
        assert_eq!((err.expected, err.found), (0, 1));
    }

    #[test]
    fn deterministic_init_per_seed() {
        let a = small_net(9);
        let b = small_net(9);
        assert_eq!(a.layers()[0].weights(), b.layers()[0].weights());
        let c = small_net(10);
        assert_ne!(a.layers()[0].weights(), c.layers()[0].weights());
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut net = small_net(0);
        let _ = net.forward(&Matrix::zeros(1, 4));
    }

    #[test]
    #[should_panic(expected = "zero-width hidden layer")]
    fn rejects_zero_width() {
        let _ = Mlp::new(MlpConfig::new(3, &[0], 2), &mut StdRng::seed_from_u64(0));
    }
}
