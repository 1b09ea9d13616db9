//! # mtat-nn — a minimal dense neural-network library
//!
//! MTAT's Partition Policy Maker trains a Soft Actor-Critic agent whose
//! actor and critics are small multi-layer perceptrons (3-dimensional
//! state, 1-dimensional action). Rather than pulling in an ML framework,
//! this crate implements the required pieces from scratch:
//!
//! * [`linear::Linear`] — a fully-connected layer with gradient
//!   accumulation and per-parameter Adam moments.
//! * [`activation::Activation`] — ReLU / tanh / identity.
//! * [`mlp::Mlp`] — a feed-forward stack whose forward pass caches every
//!   layer in an [`mlp::MlpWork`], so gradients can flow back to the
//!   parameters and to the *inputs* (SAC's actor update needs
//!   ∂Q/∂action).
//! * [`optim::Adam`] — the Adam optimizer.
//! * [`loss`] — mean-squared error.
//!
//! Every pass runs over a whole minibatch at once: row-major `n × dim`
//! buffers in a reusable workspace, one row per sample, so a training
//! step at a steady batch size does no heap allocation. Everything is
//! `f64`, deterministic under a seeded RNG, and unit-tested against
//! finite-difference gradients. Each dot product and each gradient sum
//! adds its terms in a fixed order, so a batched pass is bit-identical
//! to running its samples one at a time (DESIGN.md §4l).
//!
//! ## Example
//!
//! ```
//! use mtat_nn::mlp::{Mlp, MlpWork};
//! use mtat_nn::activation::Activation;
//! use mtat_nn::optim::Adam;
//!
//! // Learn y = 2x on a tiny net, ten samples per batch.
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, 42);
//! let mut adam = Adam::new(1e-2);
//! let mut ws = MlpWork::new(&net);
//! let xs: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
//! ws.input_mut(xs.len()).copy_from_slice(&xs);
//! for _ in 0..400 {
//!     let y = net.forward_batch(&mut ws).to_vec();
//!     for ((g, y), x) in ws.grad_output_mut().iter_mut().zip(&y).zip(&xs) {
//!         *g = 2.0 * (y - 2.0 * x); // d(y − 2x)²/dy
//!     }
//!     net.zero_grad();
//!     net.backward_batch(&mut ws, true, false);
//!     net.adam_step_batch(&mut adam, xs.len());
//! }
//! let y = net.forward(&[0.35]);
//! assert!((y[0] - 0.7).abs() < 0.1, "got {}", y[0]);
//! ```

pub mod activation;
mod kernel;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use activation::Activation;
pub use linear::Linear;
pub use mlp::{Mlp, MlpWork};
pub use optim::Adam;
