//! A minimal, dependency-free dense neural-network library.
//!
//! The Spear paper approximates its scheduling policy with a small MLP
//! (three hidden layers of 256/32/32 ReLU units and a softmax output)
//! trained with RMSProp (α=1e-4, ρ=0.9, ε=1e-9) in Theano. The Rust deep
//! learning ecosystem offers no equally self-contained substitute, so this
//! crate implements exactly what the paper needs from scratch:
//!
//! * [`Matrix`] — a row-major `f64` matrix with the required BLAS-like ops;
//! * [`Dense`] layers with manual, exact backpropagation;
//! * ReLU activation ([`Activation`]) and a stable [`softmax`] with
//!   optional action masking;
//! * [`Mlp`] — the full network with forward/backward passes, gradient
//!   accumulation and serde save/load;
//! * the [`RmsProp`] optimizer;
//! * cross-entropy and policy-gradient losses ([`loss`]).
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use spear_nn::{Mlp, MlpConfig, RmsProp, Optimizer, Matrix, loss};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(MlpConfig::new(4, &[8], 3), &mut rng);
//! let mut opt = RmsProp::new(1e-2, 0.9, 1e-9);
//!
//! // One supervised step toward class 2 for a single example.
//! let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3, 0.4]]);
//! let logits = net.forward(&x);
//! let (l0, dlogits) = loss::softmax_cross_entropy(&logits, &[2], None);
//! net.backward(&dlogits);
//! opt.step(&mut net);
//! net.zero_grad();
//!
//! let logits = net.forward(&x);
//! let (l1, _) = loss::softmax_cross_entropy(&logits, &[2], None);
//! assert!(l1 < l0, "loss must decrease after one step");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod infer;
mod layer;
pub mod loss;
mod matrix;
mod mlp;
mod optim;

pub use activation::{softmax, softmax_masked, softmax_masked_into, Activation};
pub use infer::{softmax_masked_f32_into, InferScratch, InferenceEngine, Precision, LANES};
pub use layer::Dense;
pub use matrix::Matrix;
pub use mlp::{ForwardScratch, Mlp, MlpConfig, ShapeError};
pub use optim::{Optimizer, RmsProp};
