//! Fully-connected layer with gradient accumulation and Adam moments.
//!
//! Every pass is batched: inputs, outputs and gradients are row-major
//! `n × dim` buffers, one row per sample, and each pass is one call of
//! the tiled kernel in [`crate::kernel`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernel::{gemm, Init, Lhs};
use crate::optim::Adam;

/// A dense layer `y = W·x + b` with `W ∈ R^{out×in}` stored row-major.
///
/// The layer owns its gradient accumulators and Adam first/second
/// moments, so a whole network can be stepped by iterating its layers.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f64>,
    /// `Wᵀ` (`in×out`), so the forward kernel reads a tile's outputs
    /// contiguously. Rebuilt by [`Self::sync_wt`] after every write to `w`.
    wt: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Linear {
    /// Creates a layer with He-uniform initialization (suitable for ReLU
    /// and tanh hidden layers at these scales) and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be nonzero"
        );
        let bound = (6.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        let mut layer = Self {
            in_dim,
            out_dim,
            w,
            wt: Vec::new(),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
        };
        layer.sync_wt();
        layer
    }

    /// Convenience constructor seeding its own RNG.
    pub fn with_seed(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(in_dim, out_dim, &mut rng)
    }

    /// Input dimension.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn sync_wt(&mut self) {
        self.wt.resize(self.w.len(), 0.0);
        for (o, row) in self.w.chunks_exact(self.in_dim).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                self.wt[i * self.out_dim + o] = w;
            }
        }
    }

    /// Computes `y = x·Wᵀ + b` for `n` samples: `x` is `n × in`, `y` is
    /// `n × out`. Each output is `b + Σ_i w·x`, the sum taken in input
    /// order from `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `n` and the layer shape.
    // `*yo = bo + *yo` keeps the `b + acc` operand order of the rules.
    #[allow(clippy::assign_op_pattern)]
    pub fn forward_batch(&self, x: &[f64], n: usize, y: &mut [f64]) {
        assert_eq!(x.len(), n * self.in_dim, "input dimension mismatch");
        assert_eq!(y.len(), n * self.out_dim, "output dimension mismatch");
        gemm(
            Lhs::Rows(x, self.in_dim),
            &self.wt,
            n,
            self.in_dim,
            self.out_dim,
            y,
            Init::Value(-0.0),
        );
        for row in y.chunks_exact_mut(self.out_dim) {
            for (yo, &bo) in row.iter_mut().zip(&self.b) {
                *yo = bo + *yo;
            }
        }
    }

    /// Accumulates the parameter gradients of `n` samples, in sample
    /// order: `x` is the `n × in` input of the matching forward pass and
    /// `grad_y` the `n × out` gradient of the loss with respect to its
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `n` and the layer shape.
    pub fn accumulate_grads(&mut self, x: &[f64], grad_y: &[f64], n: usize) {
        assert_eq!(x.len(), n * self.in_dim, "input dimension mismatch");
        assert_eq!(grad_y.len(), n * self.out_dim, "output dimension mismatch");
        gemm(
            Lhs::Cols(grad_y, self.out_dim),
            x,
            self.out_dim,
            n,
            self.in_dim,
            &mut self.gw,
            Init::Accumulate,
        );
        for row in grad_y.chunks_exact(self.out_dim) {
            for (g, &gy) in self.gb.iter_mut().zip(row) {
                *g += gy;
            }
        }
    }

    /// Writes the `n × in` gradient with respect to the input,
    /// `grad_x = grad_y·W`, each entry summed over outputs in order from
    /// `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `n` and the layer shape.
    pub fn input_grad(&self, grad_y: &[f64], n: usize, grad_x: &mut [f64]) {
        assert_eq!(grad_y.len(), n * self.out_dim, "output dimension mismatch");
        assert_eq!(grad_x.len(), n * self.in_dim, "input dimension mismatch");
        gemm(
            Lhs::Rows(grad_y, self.out_dim),
            &self.w,
            n,
            self.out_dim,
            self.in_dim,
            grad_x,
            Init::Value(0.0),
        );
    }

    /// Zeroes the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Applies one Adam update with the currently accumulated gradients,
    /// scaled by `1/batch` (pass `batch = 1` for per-sample updates).
    pub fn adam_step(&mut self, adam: &Adam, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        adam.update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, scale);
        adam.update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, scale);
        self.sync_wt();
    }

    /// Soft-updates this layer's parameters toward `source`:
    /// `θ ← τ·θ_src + (1−τ)·θ`. Used for SAC target networks.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn soft_update_from(&mut self, source: &Linear, tau: f64) {
        assert_eq!(self.in_dim, source.in_dim);
        assert_eq!(self.out_dim, source.out_dim);
        for (t, &s) in self.w.iter_mut().zip(&source.w) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, &s) in self.b.iter_mut().zip(&source.b) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        self.sync_wt();
    }

    /// Immutable view of the weight matrix (row-major, `out×in`). For
    /// tests and diagnostics.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Immutable view of the bias vector.
    pub fn biases(&self) -> &[f64] {
        &self.b
    }

    /// Accumulated weight gradients (row-major, `out×in`). For tests and
    /// diagnostics.
    pub fn weight_grads(&self) -> &[f64] {
        &self.gw
    }

    /// Accumulated bias gradients.
    pub fn bias_grads(&self) -> &[f64] {
        &self.gb
    }

    /// Overwrites every weight and bias with `v`. Fault-injection
    /// support: writing a non-finite value models a corrupted gradient
    /// round or a bad parameter load, the poison the health sentinel
    /// must detect and contain.
    pub fn fill_params(&mut self, v: f64) {
        self.w.fill(v);
        self.wt.fill(v);
        self.b.fill(v);
    }
}

/// Checkpoints the parameters *and* the Adam moments — a resumed update
/// with stale or zeroed moments would diverge from the uninterrupted
/// run on the very next optimizer step. Gradient accumulators are
/// transient (always zeroed before use) and are rebuilt as zeros.
impl mtat_snapshot::Snap for Linear {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.in_dim.snap(w);
        self.out_dim.snap(w);
        self.w.snap(w);
        self.b.snap(w);
        self.mw.snap(w);
        self.vw.snap(w);
        self.mb.snap(w);
        self.vb.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let in_dim = usize::unsnap(r)?;
        let out_dim = usize::unsnap(r)?;
        let w = Vec::<f64>::unsnap(r)?;
        let b = Vec::<f64>::unsnap(r)?;
        let mw = Vec::<f64>::unsnap(r)?;
        let vw = Vec::<f64>::unsnap(r)?;
        let mb = Vec::<f64>::unsnap(r)?;
        let vb = Vec::<f64>::unsnap(r)?;
        let nw = in_dim
            .checked_mul(out_dim)
            .ok_or(SnapError::Malformed("layer shape overflow"))?;
        if in_dim == 0
            || out_dim == 0
            || w.len() != nw
            || mw.len() != nw
            || vw.len() != nw
            || b.len() != out_dim
            || mb.len() != out_dim
            || vb.len() != out_dim
        {
            return Err(SnapError::Malformed("layer shape mismatch"));
        }
        let mut layer = Self {
            in_dim,
            out_dim,
            w,
            wt: Vec::new(),
            b,
            gw: vec![0.0; nw],
            gb: vec![0.0; out_dim],
            mw,
            vw,
            mb,
            vb,
        };
        layer.sync_wt();
        Ok(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(l: &Linear, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; l.out_dim];
        l.forward_batch(x, 1, &mut y);
        y
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::with_seed(2, 2, 0);
        // Overwrite parameters with known values.
        l.w = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        l.b = vec![0.5, -0.5];
        l.sync_wt();
        assert_eq!(forward(&l, &[1.0, 1.0]), vec![3.5, 6.5]);
        // Two samples at once: one row each.
        let mut y = vec![0.0; 4];
        l.forward_batch(&[1.0, 1.0, 0.0, 1.0], 2, &mut y);
        assert_eq!(y, vec![3.5, 6.5, 2.5, 3.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut l = Linear::with_seed(3, 2, 7);
        let x = [0.3, -0.8, 1.2];
        // Scalar loss: sum of outputs.
        let grad_y = [1.0, 1.0];
        l.zero_grad();
        l.accumulate_grads(&x, &grad_y, 1);
        let mut grad_x = [0.0; 3];
        l.input_grad(&grad_y, 1, &mut grad_x);

        let eps = 1e-6;
        // Check input gradient.
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f64 = forward(&l, &xp).iter().sum();
            let fm: f64 = forward(&l, &xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad_x[i]).abs() < 1e-6, "input {i}");
        }
        // Check one weight gradient: dL/dw[0][1] = x[1].
        assert!((l.gw[1] - x[1]).abs() < 1e-12);
        // Bias gradient is 1 for each output.
        assert!((l.gb[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adam_step_reduces_simple_loss() {
        let mut l = Linear::with_seed(1, 1, 3);
        let adam = Adam::new(0.05);
        // Minimize (y - 2)^2 for input 1: w + b -> 2.
        for _ in 0..300 {
            let y = forward(&l, &[1.0])[0];
            let g = 2.0 * (y - 2.0);
            l.zero_grad();
            l.accumulate_grads(&[1.0], &[g], 1);
            l.adam_step(&adam, 1);
        }
        let y = forward(&l, &[1.0])[0];
        assert!((y - 2.0).abs() < 0.05, "{y}");
    }

    #[test]
    fn soft_update_interpolates() {
        let mut a = Linear::with_seed(2, 2, 1);
        let b = Linear::with_seed(2, 2, 2);
        let before = a.w.clone();
        a.soft_update_from(&b, 0.5);
        for (i, &prev) in before.iter().enumerate() {
            let want = 0.5 * b.w[i] + 0.5 * prev;
            assert!((a.w[i] - want).abs() < 1e-12);
        }
        // tau = 1 copies the source exactly, transposed copy included.
        a.soft_update_from(&b, 1.0);
        assert_eq!(a.w, b.w);
        assert_eq!(a.wt, b.wt);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = Linear::with_seed(1, 1, 5);
        l.accumulate_grads(&[1.0], &[1.0], 1);
        l.accumulate_grads(&[1.0, 1.0], &[1.0, 1.0], 2);
        assert!((l.gb[0] - 3.0).abs() < 1e-12);
        l.zero_grad();
        assert_eq!(l.gb[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dim_panics() {
        let _ = Linear::with_seed(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_wrong_dim_panics() {
        let l = Linear::with_seed(2, 1, 0);
        let _ = forward(&l, &[1.0]);
    }
}
