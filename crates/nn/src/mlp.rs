//! Multi-layer perceptron with batched forward and backward passes.
//!
//! SAC needs three things from its networks beyond plain inference:
//! parameter gradients (critic regression), gradients *with respect to
//! inputs* (the actor update differentiates Q(s, a) with respect to a),
//! and soft target-network updates. [`Mlp`] provides all three, over a
//! whole minibatch at a time, through a reusable [`MlpWork`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::activation::Activation;
use crate::linear::Linear;
use crate::optim::Adam;

/// A feed-forward network: `Linear → act → … → Linear` with the hidden
/// activation applied between layers and an identity output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
}

/// Reusable row-major buffers for batched passes through one network
/// shape: the input and pre-activation of every layer, and the gradient
/// with respect to each. One row per sample. The buffers grow to the
/// largest batch seen and are reused after that, so passes at a steady
/// batch size do no heap allocation. The buffers are scratch: a clone
/// has the same shape and starts empty.
#[derive(Debug)]
pub struct MlpWork {
    /// Layer widths, input first.
    dims: Vec<usize>,
    /// Rows (samples) in the current batch.
    rows: usize,
    /// Rows the buffers can hold.
    cap: usize,
    /// `acts[l]`: input to layer `l`; `acts[0]` is the network input.
    acts: Vec<Vec<f64>>,
    /// `pre[l]`: pre-activation output of layer `l`; the last one is the
    /// network output.
    pre: Vec<Vec<f64>>,
    /// `grads[l]`: gradient with respect to `pre[l]`; the caller writes
    /// the last one before a backward pass.
    grads: Vec<Vec<f64>>,
    /// Gradient with respect to the network input.
    grad_in: Vec<f64>,
}

impl Clone for MlpWork {
    fn clone(&self) -> Self {
        Self::with_dims(self.dims.clone())
    }
}

impl MlpWork {
    /// Empty buffers shaped for `net`; they grow on first use.
    pub fn new(net: &Mlp) -> Self {
        Self::with_dims(
            std::iter::once(net.in_dim())
                .chain(net.layers.iter().map(Linear::out_dim))
                .collect(),
        )
    }

    fn with_dims(dims: Vec<usize>) -> Self {
        let depth = dims.len() - 1;
        Self {
            dims,
            rows: 0,
            cap: 0,
            acts: vec![Vec::new(); depth],
            pre: vec![Vec::new(); depth],
            grads: vec![Vec::new(); depth],
            grad_in: Vec::new(),
        }
    }

    /// Rows in the current batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Starts a batch of `rows` samples and returns its `rows × in`
    /// input buffer for the caller to fill.
    pub fn input_mut(&mut self, rows: usize) -> &mut [f64] {
        if rows > self.cap {
            self.cap = rows;
            let depth = self.acts.len();
            for l in 0..depth {
                self.acts[l].resize(rows * self.dims[l], 0.0);
                self.pre[l].resize(rows * self.dims[l + 1], 0.0);
                self.grads[l].resize(rows * self.dims[l + 1], 0.0);
            }
            self.grad_in.resize(rows * self.dims[0], 0.0);
        }
        self.rows = rows;
        &mut self.acts[0][..rows * self.dims[0]]
    }

    /// The `rows × in` network input of the current batch.
    pub fn input(&self) -> &[f64] {
        &self.acts[0][..self.rows * self.dims[0]]
    }

    /// The `rows × out` network output of the last forward pass.
    pub fn output(&self) -> &[f64] {
        let last = self.pre.len() - 1;
        &self.pre[last][..self.rows * self.dims[last + 1]]
    }

    /// The `rows × out` gradient of the loss with respect to the network
    /// output, for the caller to fill before a backward pass.
    pub fn grad_output_mut(&mut self) -> &mut [f64] {
        let last = self.grads.len() - 1;
        &mut self.grads[last][..self.rows * self.dims[last + 1]]
    }

    /// The `rows × in` gradient with respect to the network input from
    /// the last backward pass that asked for it.
    pub fn grad_input(&self) -> &[f64] {
        &self.grad_in[..self.rows * self.dims[0]]
    }

    /// Keeps only the rows for which `keep(row)` is true, in their
    /// order, together with everything the forward pass cached for them.
    /// A backward pass then runs over the kept rows alone.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for r in 0..self.rows {
            if !keep(r) {
                continue;
            }
            if kept != r {
                for (l, (act, pre)) in self.acts.iter_mut().zip(&mut self.pre).enumerate() {
                    let (din, dout) = (self.dims[l], self.dims[l + 1]);
                    act.copy_within(r * din..(r + 1) * din, kept * din);
                    pre.copy_within(r * dout..(r + 1) * dout, kept * dout);
                }
            }
            kept += 1;
        }
        self.rows = kept;
    }
}

impl Mlp {
    /// Builds an MLP with the given layer `dims` (at least input and
    /// output) and hidden activation, deterministically initialized from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new(dims: &[usize], hidden_act: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers, hidden_act }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("nonempty").in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The linear layers, input side first. For tests and diagnostics.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// L2 norm of all parameters (weights and biases across layers).
    ///
    /// A cheap divergence diagnostic for telemetry: SAC training that
    /// is blowing up shows as an exploding parameter norm long before
    /// actions saturate, and a healthy run keeps it bounded.
    pub fn param_l2(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                l.weights().iter().map(|w| w * w).sum::<f64>()
                    + l.biases().iter().map(|b| b * b).sum::<f64>()
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Overwrites every parameter in every layer with `v` (see
    /// [`Linear::fill_params`]). Fault-injection support.
    pub fn fill_params(&mut self, v: f64) {
        for layer in &mut self.layers {
            layer.fill_params(v);
        }
    }

    fn check_shape(&self, ws: &MlpWork) {
        assert!(
            ws.dims.len() == self.layers.len() + 1
                && ws.dims[0] == self.in_dim()
                && self
                    .layers
                    .iter()
                    .zip(&ws.dims[1..])
                    .all(|(l, &d)| l.out_dim() == d),
            "workspace shape mismatch"
        );
    }

    /// Runs the batch whose input is in `ws` forward, caching every
    /// layer's input and pre-activation for [`Self::backward_batch`],
    /// and returns the `rows × out` output.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was built for a different network shape.
    pub fn forward_batch<'w>(&self, ws: &'w mut MlpWork) -> &'w [f64] {
        self.check_shape(ws);
        let n = ws.rows;
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let (din, dout) = (ws.dims[l], ws.dims[l + 1]);
            let pre = &mut ws.pre[l][..n * dout];
            layer.forward_batch(&ws.acts[l][..n * din], n, pre);
            if l < last {
                self.hidden_act
                    .forward_into(pre, &mut ws.acts[l + 1][..n * dout]);
            }
        }
        ws.output()
    }

    /// Back-propagates the output gradient the caller wrote to
    /// [`MlpWork::grad_output_mut`] through the last forward pass in
    /// `ws`. With `param_grads` it accumulates every layer's parameter
    /// gradients, sample by sample in row order; with `input_grad` it
    /// leaves the gradient with respect to the network input in
    /// [`MlpWork::grad_input`].
    ///
    /// # Panics
    ///
    /// Panics if `ws` was built for a different network shape.
    pub fn backward_batch(&mut self, ws: &mut MlpWork, param_grads: bool, input_grad: bool) {
        self.check_shape(ws);
        let n = ws.rows;
        for l in (0..self.layers.len()).rev() {
            let (din, dout) = (ws.dims[l], ws.dims[l + 1]);
            let (below, here) = ws.grads.split_at_mut(l);
            let gy = &here[0][..n * dout];
            if param_grads {
                self.layers[l].accumulate_grads(&ws.acts[l][..n * din], gy, n);
            }
            if l > 0 {
                // Gradient w.r.t. this layer's input, then undo the
                // hidden activation that produced it.
                let gx = &mut below[l - 1][..n * din];
                self.layers[l].input_grad(gy, n, gx);
                self.hidden_act
                    .backward_in_place(&ws.pre[l - 1][..n * din], gx);
            } else if input_grad {
                self.layers[0].input_grad(gy, n, &mut ws.grad_in[..n * din]);
            }
        }
    }

    /// Inference on one sample: a one-row batch through a fresh
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut ws = MlpWork::new(self);
        ws.input_mut(1).copy_from_slice(x);
        self.forward_batch(&mut ws).to_vec()
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Applies one Adam step to every layer (gradient scale 1) and
    /// advances the optimizer clock.
    pub fn adam_step(&mut self, adam: &mut Adam) {
        self.adam_step_batch(adam, 1);
    }

    /// Applies one Adam step with gradients averaged over `batch`
    /// samples, then advances the optimizer clock.
    pub fn adam_step_batch(&mut self, adam: &mut Adam, batch: usize) {
        for l in &mut self.layers {
            l.adam_step(adam, batch);
        }
        adam.tick();
    }

    /// Soft-updates all parameters toward `source`
    /// (`θ ← τ·θ_src + (1−τ)·θ`), the SAC target-network rule.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "depth mismatch");
        for (t, s) in self.layers.iter_mut().zip(&source.layers) {
            t.soft_update_from(s, tau);
        }
    }
}

impl mtat_snapshot::Snap for Mlp {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        self.layers.snap(w);
        self.hidden_act.snap(w);
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        use mtat_snapshot::SnapError;
        let layers = Vec::<Linear>::unsnap(r)?;
        let hidden_act = Activation::unsnap(r)?;
        if layers.is_empty() {
            return Err(SnapError::Malformed("MLP with no layers"));
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(SnapError::Malformed("MLP layer dims do not chain"));
            }
        }
        Ok(Self { layers, hidden_act })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;

    /// One-sample backward pass: accumulates parameter gradients and
    /// returns the gradient with respect to the input.
    fn backprop(net: &mut Mlp, x: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let mut ws = MlpWork::new(net);
        ws.input_mut(1).copy_from_slice(x);
        net.forward_batch(&mut ws);
        ws.grad_output_mut().copy_from_slice(grad_out);
        net.backward_batch(&mut ws, true, true);
        ws.grad_input().to_vec()
    }

    /// One MSE regression step on a single sample.
    fn train_step(net: &mut Mlp, adam: &mut Adam, x: &[f64], target: &[f64]) {
        let grad = loss::mse_grad(&net.forward(x), target);
        net.zero_grad();
        backprop(net, x, &grad);
        net.adam_step(adam);
    }

    #[test]
    fn shapes() {
        let net = Mlp::new(&[3, 8, 8, 2], Activation::Relu, 0);
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 2);
        assert_eq!(net.depth(), 3);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn batch_rows_match_single_samples() {
        let net = Mlp::new(&[2, 5, 3], Activation::Tanh, 11);
        let xs = [0.4, -0.9, 0.1, 0.2, -0.7, 0.0];
        let mut ws = MlpWork::new(&net);
        ws.input_mut(3).copy_from_slice(&xs);
        let batch = net.forward_batch(&mut ws).to_vec();
        for (x, y) in xs.chunks(2).zip(batch.chunks(3)) {
            assert_eq!(net.forward(x), y);
        }
    }

    #[test]
    fn retain_rows_keeps_the_cached_pass_of_kept_rows() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, 6);
        let xs = [0.5, -0.5, 0.9, 0.3, -0.2, 0.8];
        let mut ws = MlpWork::new(&net);
        ws.input_mut(3).copy_from_slice(&xs);
        net.forward_batch(&mut ws);
        ws.retain_rows(|r| r != 1);
        assert_eq!(ws.rows(), 2);
        ws.grad_output_mut().fill(1.0);
        net.backward_batch(&mut ws, false, true);
        let got = ws.grad_input().to_vec();
        assert_eq!(&got[..2], &backprop(&mut net, &xs[..2], &[1.0])[..]);
        assert_eq!(&got[2..], &backprop(&mut net, &xs[4..], &[1.0])[..]);
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        // Scalar-output net; loss = output itself.
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, 3);
        let x = [0.7, -0.2];
        net.zero_grad();
        let grad_in = backprop(&mut net, &x, &[1.0]);

        // Finite-difference the *input* gradient.
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "input grad {i}: {numeric} vs {}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn relu_network_input_gradient_check() {
        let mut net = Mlp::new(&[3, 6, 1], Activation::Relu, 17);
        let x = [0.5, 0.25, -0.75];
        net.zero_grad();
        let grad_in = backprop(&mut net, &x, &[1.0]);
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!((numeric - grad_in[i]).abs() < 1e-5, "input grad {i}");
        }
    }

    #[test]
    fn learns_linear_function() {
        let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, 42);
        let mut adam = Adam::new(1e-2);
        for step in 0..600 {
            let x = [((step % 10) as f64) / 10.0];
            train_step(&mut net, &mut adam, &x, &[2.0 * x[0] + 0.5]);
        }
        for x in [0.15, 0.55, 0.85] {
            let y = net.forward(&[x])[0];
            assert!((y - (2.0 * x + 0.5)).abs() < 0.15, "f({x}) = {y}");
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x^2 on [-1, 1] — requires the hidden layers to do real
        // work. Full-batch gradient accumulation keeps training stable.
        let mut net = Mlp::new(&[1, 32, 32, 1], Activation::Tanh, 5);
        let mut adam = Adam::new(1e-2);
        let xs: Vec<f64> = (0..41).map(|i| -1.0 + 2.0 * i as f64 / 40.0).collect();
        let mut ws = MlpWork::new(&net);
        ws.input_mut(xs.len()).copy_from_slice(&xs);
        for _ in 0..800 {
            let y = net.forward_batch(&mut ws).to_vec();
            for ((g, y), &x) in ws.grad_output_mut().iter_mut().zip(&y).zip(&xs) {
                *g = loss::mse_grad(&[*y], &[x * x])[0];
            }
            net.zero_grad();
            net.backward_batch(&mut ws, true, false);
            net.adam_step_batch(&mut adam, xs.len());
        }
        let mut worst: f64 = 0.0;
        for &x in &xs {
            worst = worst.max((net.forward(&[x])[0] - x * x).abs());
        }
        assert!(worst < 0.1, "worst error {worst}");
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut target = Mlp::new(&[2, 4, 1], Activation::Relu, 1);
        let source = Mlp::new(&[2, 4, 1], Activation::Relu, 2);
        for _ in 0..2000 {
            target.soft_update_from(&source, 0.01);
        }
        let x = [0.3, 0.3];
        assert!((target.forward(&x)[0] - source.forward(&x)[0]).abs() < 1e-3);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        assert_eq!(a.forward(&[0.1, 0.9]), b.forward(&[0.1, 0.9]));
        let c = Mlp::new(&[2, 4, 1], Activation::Relu, 78);
        assert_ne!(a.forward(&[0.1, 0.9]), c.forward(&[0.1, 0.9]));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_dims_panics() {
        let _ = Mlp::new(&[3], Activation::Relu, 0);
    }

    #[test]
    fn snapshot_roundtrip_resumes_training_bit_identically() {
        use mtat_snapshot::{Snap, SnapReader, SnapWriter};

        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, 21);
        let mut adam = Adam::new(1e-2);
        let step = |net: &mut Mlp, adam: &mut Adam, x: f64| {
            train_step(net, adam, &[x], &[2.0 * x]);
        };
        for i in 0..50 {
            step(&mut net, &mut adam, (i % 7) as f64 / 7.0);
        }

        let mut w = SnapWriter::new();
        net.snap(&mut w);
        adam.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut net2 = Mlp::unsnap(&mut r).unwrap();
        let mut adam2 = Adam::unsnap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(adam2.step_count(), adam.step_count());

        // Training both copies further must stay bit-identical: the Adam
        // moments and step count travelled with the snapshot.
        for i in 0..50 {
            let x = (i % 7) as f64 / 7.0;
            step(&mut net, &mut adam, x);
            step(&mut net2, &mut adam2, x);
        }
        for (a, b) in net.layers.iter().zip(&net2.layers) {
            assert_eq!(a.weights(), b.weights());
            assert_eq!(a.biases(), b.biases());
        }
    }

    #[test]
    fn snapshot_rejects_malformed_shapes() {
        use mtat_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

        let net = Mlp::new(&[2, 3, 1], Activation::Relu, 4);
        let mut w = SnapWriter::new();
        net.snap(&mut w);
        let mut bytes = w.into_bytes();
        // The first field is the layer count; claim zero layers.
        bytes[0] = 0;
        let got = Mlp::unsnap(&mut SnapReader::new(&bytes[..9]));
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }
}
