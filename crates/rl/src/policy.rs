//! Tanh-squashed Gaussian policy with exact reparameterized gradients.
//!
//! The actor outputs, per action dimension, a mean `μ` and a raw log
//! standard deviation (clamped to `[LOG_STD_MIN, LOG_STD_MAX]`). An
//! action is sampled by the reparameterization trick
//! `a = tanh(μ + σ·ε)`, `ε ~ N(0, 1)`, and its log-density includes the
//! tanh change-of-variables correction:
//!
//! ```text
//! log π(a|s) = Σ_k [ −ε_k²/2 − log σ_k − log√(2π) − log(1 − a_k² + ϵ) ]
//! ```
//!
//! The gradients of the SAC actor loss with respect to `μ` and `log σ`
//! are derived by hand here and validated against finite differences in
//! the tests.

use mtat_nn::activation::Activation;
use mtat_nn::mlp::{Mlp, MlpWork};
use mtat_nn::optim::Adam;
use rand::rngs::StdRng;
use rand::Rng;

/// Lower clamp for the log standard deviation.
pub const LOG_STD_MIN: f64 = -5.0;
/// Upper clamp for the log standard deviation.
pub const LOG_STD_MAX: f64 = 2.0;
const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_7;
const SQUASH_EPS: f64 = 1e-6;

/// A batch of sampled actions, row-major `n × action_dim`, with the
/// network workspace and everything else the actor's backward pass
/// needs. Reused across batches, so sampling at a steady batch size does
/// no heap allocation. The buffers are scratch: a clone starts empty.
#[derive(Debug)]
pub struct PolicyBatch {
    work: MlpWork,
    action_dim: usize,
    /// Squashed actions `tanh(u)`, componentwise in `(-1, 1)`.
    action: Vec<f64>,
    /// The standard-normal noise used (reparameterization).
    eps: Vec<f64>,
    /// Clamped log standard deviations.
    log_std: Vec<f64>,
    /// Whether each raw log-std hit the clamp (gradient gate).
    log_std_clamped: Vec<bool>,
    /// Total log-density of each row's squashed action.
    log_prob: Vec<f64>,
}

impl Clone for PolicyBatch {
    fn clone(&self) -> Self {
        Self::with_work(self.work.clone(), self.action_dim)
    }
}

impl PolicyBatch {
    /// Empty buffers shaped for `policy`; they grow on first use.
    pub fn new(policy: &GaussianPolicy) -> Self {
        Self::with_work(MlpWork::new(&policy.net), policy.action_dim)
    }

    fn with_work(work: MlpWork, action_dim: usize) -> Self {
        Self {
            work,
            action_dim,
            action: Vec::new(),
            eps: Vec::new(),
            log_std: Vec::new(),
            log_std_clamped: Vec::new(),
            log_prob: Vec::new(),
        }
    }

    /// Starts a batch of `rows` states and returns the `rows × state_dim`
    /// buffer for the caller to fill.
    pub fn states_mut(&mut self, rows: usize) -> &mut [f64] {
        self.work.input_mut(rows)
    }

    /// Rows in the current batch.
    pub fn rows(&self) -> usize {
        self.work.rows()
    }

    /// Sampled actions, `rows × action_dim`.
    pub fn action(&self) -> &[f64] {
        &self.action
    }

    /// Log-density of each row's sampled action.
    pub fn log_prob(&self) -> &[f64] {
        &self.log_prob
    }
}

/// The SAC actor network.
#[derive(Debug, Clone)]
pub struct GaussianPolicy {
    net: Mlp,
    action_dim: usize,
}

impl GaussianPolicy {
    /// Builds a policy with hidden layers `hidden` mapping `state_dim`
    /// inputs to `2·action_dim` outputs (means then raw log-stds).
    pub fn new(state_dim: usize, action_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(action_dim > 0, "action_dim must be nonzero");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(state_dim);
        dims.extend_from_slice(hidden);
        dims.push(2 * action_dim);
        Self {
            net: Mlp::new(&dims, Activation::Relu, seed),
            action_dim,
        }
    }

    /// Number of action dimensions.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// L2 norm of the actor network's parameters — the health sentinel's
    /// cheapest poison detector: any NaN weight makes the whole norm NaN
    /// immediately, without waiting for a decision boundary.
    pub fn param_l2(&self) -> f64 {
        self.net.param_l2()
    }

    /// Overwrites every actor parameter with `v`. Fault-injection
    /// support (see [`mtat_nn::mlp::Mlp::fill_params`]).
    pub fn fill_params(&mut self, v: f64) {
        self.net.fill_params(v);
    }

    /// Samples one squashed action per state in `batch` with the
    /// reparameterization trick, drawing ε row by row and dimension by
    /// dimension, so the RNG stream matches sampling the rows one at a
    /// time. The forward pass stays cached in `batch` for
    /// [`Self::backward_batch`].
    pub fn sample_batch(&self, batch: &mut PolicyBatch, rng: &mut StdRng) {
        let ad = self.action_dim;
        let n = batch.rows();
        for buf in [&mut batch.action, &mut batch.eps, &mut batch.log_std] {
            buf.resize(n * ad, 0.0);
        }
        batch.log_std_clamped.resize(n * ad, false);
        batch.log_prob.resize(n, 0.0);
        let raw = self.net.forward_batch(&mut batch.work);
        for (r, raw) in raw.chunks_exact(2 * ad).enumerate() {
            let mut log_prob = 0.0;
            for k in 0..ad {
                let j = r * ad + k;
                let v = raw[ad + k];
                let log_std = v.clamp(LOG_STD_MIN, LOG_STD_MAX);
                let e = standard_normal(rng);
                let u = raw[k] + log_std.exp() * e;
                let a = u.tanh();
                log_prob += -0.5 * e * e - log_std - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln();
                batch.action[j] = a;
                batch.eps[j] = e;
                batch.log_std[j] = log_std;
                batch.log_std_clamped[j] = !(LOG_STD_MIN..=LOG_STD_MAX).contains(&v);
            }
            batch.log_prob[r] = log_prob;
        }
    }

    /// Deterministic (evaluation) action: `tanh(μ)`.
    pub fn deterministic(&self, state: &[f64]) -> Vec<f64> {
        let raw = self.net.forward(state);
        raw[..self.action_dim].iter().map(|&m| m.tanh()).collect()
    }

    /// Accumulates actor-loss gradients into the policy network, sample
    /// by sample in row order, for the batch last drawn by
    /// [`Self::sample_batch`].
    ///
    /// `dl_du` (`rows × action_dim`) must be the total derivative of the
    /// scalar loss with respect to each pre-squash sample `u` *holding ε
    /// fixed*, and `dl_dlogstd_direct` any additional direct dependence
    /// of the loss on every `log σ` (for the SAC actor loss this is `−α`
    /// from the `−log σ` term of the entropy). The chain rules
    /// `∂u/∂μ = 1` and `∂u/∂log σ = σ·ε` are applied here, and the clamp
    /// gates gradients on saturated log-std dimensions.
    pub fn backward_batch(
        &mut self,
        batch: &mut PolicyBatch,
        dl_du: &[f64],
        dl_dlogstd_direct: f64,
    ) {
        let ad = self.action_dim;
        assert_eq!(dl_du.len(), batch.rows() * ad, "dl_du shape mismatch");
        let grad_out = batch.work.grad_output_mut();
        for (r, g) in grad_out.chunks_exact_mut(2 * ad).enumerate() {
            for k in 0..ad {
                let j = r * ad + k;
                g[k] = dl_du[j]; // dL/dμ = dL/du
                g[ad + k] = if batch.log_std_clamped[j] {
                    0.0
                } else {
                    let sigma = batch.log_std[j].exp();
                    dl_du[j] * sigma * batch.eps[j] + dl_dlogstd_direct
                };
            }
        }
        self.net.backward_batch(&mut batch.work, true, false);
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Adam step over the policy parameters (batch-averaged).
    pub fn adam_step_batch(&mut self, adam: &mut Adam, batch: usize) {
        self.net.adam_step_batch(adam, batch);
    }
}

impl mtat_snapshot::Snap for GaussianPolicy {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.net.snap(w);
        self.action_dim.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let net = Mlp::unsnap(r)?;
        let action_dim = usize::unsnap(r)?;
        if action_dim == 0 || net.out_dim() != 2 * action_dim {
            return Err(SnapError::Malformed(
                "policy head does not match action_dim",
            ));
        }
        Ok(Self { net, action_dim })
    }
}

/// Standard normal via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Derivative helper: `∂log π/∂u_k` for the squash-correction term,
/// `D_k = 2·a·(1−a²)/(1−a²+ϵ)` with `a = tanh(u)`.
pub fn squash_correction_grad(a: f64) -> f64 {
    2.0 * a * (1.0 - a * a) / (1.0 - a * a + SQUASH_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Samples one action for `state` through a one-row batch.
    fn sample_one(p: &GaussianPolicy, state: &[f64], rng: &mut StdRng) -> PolicyBatch {
        let mut batch = PolicyBatch::new(p);
        batch.states_mut(1).copy_from_slice(state);
        p.sample_batch(&mut batch, rng);
        batch
    }

    #[test]
    fn actions_are_squashed() {
        let p = GaussianPolicy::new(3, 2, &[16], 0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = sample_one(&p, &[0.1, -0.5, 2.0], &mut rng);
            for &a in s.action() {
                assert!((-1.0..=1.0).contains(&a));
            }
            assert!(s.log_prob()[0].is_finite());
        }
        let d = p.deterministic(&[0.1, -0.5, 2.0]);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|a| (-1.0..=1.0).contains(a)));
    }

    #[test]
    fn batch_sampling_matches_row_by_row_sampling() {
        let p = GaussianPolicy::new(2, 2, &[8], 5);
        let states = [0.1, 0.2, -0.4, 0.9, 0.6, -0.3];
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = PolicyBatch::new(&p);
        batch.states_mut(3).copy_from_slice(&states);
        p.sample_batch(&mut batch, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        for (r, s) in states.chunks(2).enumerate() {
            let one = sample_one(&p, s, &mut rng);
            assert_eq!(one.action(), &batch.action()[2 * r..2 * r + 2]);
            assert_eq!(one.log_prob()[0].to_bits(), batch.log_prob()[r].to_bits());
        }
    }

    #[test]
    fn log_prob_matches_manual_computation() {
        let p = GaussianPolicy::new(2, 1, &[8], 3);
        let mut rng = StdRng::seed_from_u64(9);
        let s = sample_one(&p, &[0.3, 0.3], &mut rng);
        let sigma = s.log_std[0].exp();
        let e = s.eps[0];
        let a = s.action()[0];
        let manual = -0.5 * e * e - sigma.ln() - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln();
        assert!((manual - s.log_prob()[0]).abs() < 1e-12);
        // The action is tanh(mu + sigma * eps).
        let mu = s.work.output()[0];
        assert!((a - (mu + sigma * e).tanh()).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Finite-difference check of the hand-derived chain rule for the
    /// entropy part of the SAC loss (α·log π), whose `dl_du` is `α·D_k`
    /// and whose direct log-std term is `−α`: with the noise frozen, the
    /// analytic derivatives with respect to `μ` and `log σ` must match
    /// numeric ones.
    #[test]
    fn entropy_gradient_matches_finite_difference() {
        let alpha = 0.7;
        let mut rng = StdRng::seed_from_u64(12);
        let p = GaussianPolicy::new(2, 1, &[8], 21);
        let s = sample_one(&p, &[0.25, -0.4], &mut rng);
        let (mu, log_std, eps) = (s.work.output()[0], s.log_std[0], s.eps[0]);
        let sigma = log_std.exp();
        let a = s.action()[0];
        let dl_du = alpha * squash_correction_grad(a);
        let dl_dlogstd = -alpha;

        let loss = |mu: f64, ls: f64| {
            let a = (mu + ls.exp() * eps).tanh();
            alpha * (-0.5 * eps * eps - ls - LOG_SQRT_2PI - (1.0 - a * a + SQUASH_EPS).ln())
        };
        let h = 1e-6;
        let numeric_dmu = (loss(mu + h, log_std) - loss(mu - h, log_std)) / (2.0 * h);
        assert!(
            (numeric_dmu - dl_du).abs() < 1e-5,
            "dmu: numeric {numeric_dmu} vs analytic {dl_du}"
        );
        let numeric_dlogstd = (loss(mu, log_std + h) - loss(mu, log_std - h)) / (2.0 * h);
        let analytic_dlogstd = dl_du * sigma * eps + dl_dlogstd;
        assert!(
            (numeric_dlogstd - analytic_dlogstd).abs() < 1e-5,
            "dlogstd: numeric {numeric_dlogstd} vs analytic {analytic_dlogstd}"
        );
    }

    #[test]
    fn squash_correction_grad_signs() {
        assert!(squash_correction_grad(0.5) > 0.0);
        assert!(squash_correction_grad(-0.5) < 0.0);
        assert_eq!(squash_correction_grad(0.0), 0.0);
    }
}
