//! Bit-exact property tests of the batched kernels against a naive
//! per-sample reference that lives only here.
//!
//! The reference is the textbook one-sample-at-a-time loop: each output
//! is `b + Σ w·x` taken with `Iterator::sum` (which starts from `-0.0`),
//! parameter gradients accumulate sample by sample, and each input
//! gradient sums over outputs in order from `+0.0`. The batched kernels
//! must reproduce every bit of it (compared with `to_bits`) for random
//! shapes, batch sizes that are not multiples of the register tile,
//! batches long enough to span several packed panels, both hidden
//! activations, and with or without parameter gradients.

use proptest::prelude::*;

use mtat_nn::activation::Activation;
use mtat_nn::linear::Linear;
use mtat_nn::mlp::{Mlp, MlpWork};

const IN_DIMS: [usize; 3] = [3, 4, 64];
const OUT_DIMS: [usize; 3] = [1, 2, 64];
const HIDDEN: [usize; 3] = [3, 5, 64];

/// Batch sizes: mostly small (0..=13, every remainder of the 4-row
/// tile), sometimes past one 128-term panel.
fn batch() -> impl Strategy<Value = usize> {
    (0usize..14, 0usize..4).prop_map(|(n, big)| if big == 0 { n + 190 } else { n })
}

/// `len` values in (-1, 1), with some exact `+0.0` and `-0.0` mixed in
/// so signed-zero handling is exercised.
fn values(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 11 {
                0 => 0.0,
                1 => -0.0,
                _ => (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn ref_forward(l: &Linear, x: &[f64]) -> Vec<f64> {
    let w = l.weights();
    (0..l.out_dim())
        .map(|o| {
            let row = &w[o * l.in_dim()..(o + 1) * l.in_dim()];
            l.biases()[o] + row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f64>()
        })
        .collect()
}

/// One sample's backward through `l`: accumulates into `gw`/`gb` and
/// returns the input gradient.
fn ref_backward(l: &Linear, x: &[f64], gy: &[f64], gw: &mut [f64], gb: &mut [f64]) -> Vec<f64> {
    let (n_in, w) = (l.in_dim(), l.weights());
    let mut gx = vec![0.0; n_in];
    for (o, &g) in gy.iter().enumerate() {
        gb[o] += g;
        for i in 0..n_in {
            gw[o * n_in + i] += g * x[i];
            gx[i] += g * w[o * n_in + i];
        }
    }
    gx
}

fn ref_act(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
        Activation::Identity => x,
    }
}

fn ref_act_grad(act: Activation, pre: f64, g: f64) -> f64 {
    match act {
        Activation::Relu => {
            if pre > 0.0 {
                g
            } else {
                0.0
            }
        }
        Activation::Tanh => {
            let t = pre.tanh();
            g * (1.0 - t * t)
        }
        Activation::Identity => g,
    }
}

/// Per-sample reference pass through `net` (hidden activation `act`):
/// returns the output, the input gradient, and the per-layer `(gw, gb)`
/// accumulated over the batch in sample order.
#[allow(clippy::type_complexity)]
fn ref_mlp(
    net: &Mlp,
    act: Activation,
    xs: &[f64],
    gys: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<(Vec<f64>, Vec<f64>)>) {
    let layers = net.layers();
    let last = layers.len() - 1;
    let mut grads: Vec<(Vec<f64>, Vec<f64>)> = layers
        .iter()
        .map(|l| (vec![0.0; l.in_dim() * l.out_dim()], vec![0.0; l.out_dim()]))
        .collect();
    let (mut out, mut grad_in) = (Vec::new(), Vec::new());
    for (x, gy) in xs.chunks(net.in_dim()).zip(gys.chunks(net.out_dim())) {
        let mut inputs = Vec::new();
        let mut pres = Vec::new();
        let mut cur = x.to_vec();
        for (l, layer) in layers.iter().enumerate() {
            inputs.push(cur.clone());
            let pre = ref_forward(layer, &cur);
            cur = if l < last {
                pre.iter().map(|&v| ref_act(act, v)).collect()
            } else {
                pre.clone()
            };
            pres.push(pre);
        }
        out.extend_from_slice(&cur);
        let mut grad = gy.to_vec();
        for l in (0..layers.len()).rev() {
            if l < last {
                grad = pres[l]
                    .iter()
                    .zip(&grad)
                    .map(|(&p, &g)| ref_act_grad(act, p, g))
                    .collect();
            }
            let (gw, gb) = &mut grads[l];
            grad = ref_backward(&layers[l], &inputs[l], &grad, gw, gb);
        }
        grad_in.extend_from_slice(&grad);
    }
    (out, grad_in, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Linear` forward, parameter-gradient and input-gradient kernels
    /// match the per-sample loop bit for bit, including accumulation on
    /// top of gradients already present. Some layers hold only `-0.0`
    /// parameters, where the start value of each sum decides the sign of
    /// a zero output.
    #[test]
    fn linear_kernels_match_per_sample_reference(
        din in (0usize..3).prop_map(|i| IN_DIMS[i]),
        dout in (0usize..3).prop_map(|i| OUT_DIMS[i]),
        n in batch(),
        negative_zero_params in (0usize..5).prop_map(|i| i == 0),
        seed in 0u64..1_000_000,
    ) {
        let mut l = Linear::with_seed(din, dout, seed);
        if negative_zero_params {
            l.fill_params(-0.0);
        }
        let x = values(n * din, seed ^ 0xA);
        let gy = values(n * dout, seed ^ 0xB);

        let mut y = vec![0.0; n * dout];
        l.forward_batch(&x, n, &mut y);
        let want: Vec<f64> = x.chunks(din).flat_map(|xr| ref_forward(&l, xr)).collect();
        prop_assert_eq!(bits(&y), bits(&want));

        let mut gx = vec![0.0; n * din];
        l.input_grad(&gy, n, &mut gx);
        let (mut gw, mut gb) = (vec![0.0; din * dout], vec![0.0; dout]);
        let mut want_gx = Vec::new();
        // Two rounds: the second accumulates onto the first's gradients.
        for _ in 0..2 {
            l.accumulate_grads(&x, &gy, n);
            want_gx.clear();
            for (xr, gr) in x.chunks(din).zip(gy.chunks(dout)) {
                want_gx.extend(ref_backward(&l, xr, gr, &mut gw, &mut gb));
            }
        }
        prop_assert_eq!(bits(&gx), bits(&want_gx));
        prop_assert_eq!(bits(l.weight_grads()), bits(&gw));
        prop_assert_eq!(bits(l.bias_grads()), bits(&gb));
    }

    /// `Mlp` batch forward and backward match the per-sample reference
    /// for random depths and widths, with each combination of the
    /// parameter-gradient and input-gradient flags.
    #[test]
    fn mlp_passes_match_per_sample_reference(
        din in (0usize..3).prop_map(|i| IN_DIMS[i]),
        dout in (0usize..3).prop_map(|i| OUT_DIMS[i]),
        h1 in (0usize..3).prop_map(|i| HIDDEN[i]),
        h2 in (0usize..4).prop_map(|i| HIDDEN.get(i).copied()),
        n in batch(),
        tanh in prop::bool::ANY,
        param_grads in prop::bool::ANY,
        input_grad in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let act = if tanh { Activation::Tanh } else { Activation::Relu };
        let dims: Vec<usize> = [Some(din), Some(h1), h2, Some(dout)].into_iter().flatten().collect();
        let mut net = Mlp::new(&dims, act, seed);
        let xs = values(n * din, seed ^ 0xC);
        let gys = values(n * dout, seed ^ 0xD);
        let (want_out, want_grad_in, want_grads) = ref_mlp(&net, act, &xs, &gys);

        let mut ws = MlpWork::new(&net);
        ws.input_mut(n).copy_from_slice(&xs);
        let out = net.forward_batch(&mut ws).to_vec();
        prop_assert_eq!(bits(&out), bits(&want_out));

        ws.grad_output_mut().copy_from_slice(&gys);
        net.zero_grad();
        net.backward_batch(&mut ws, param_grads, input_grad);
        if input_grad {
            prop_assert_eq!(bits(ws.grad_input()), bits(&want_grad_in));
        }
        for (layer, (gw, gb)) in net.layers().iter().zip(&want_grads) {
            if param_grads {
                prop_assert_eq!(bits(layer.weight_grads()), bits(gw));
                prop_assert_eq!(bits(layer.bias_grads()), bits(gb));
            } else {
                prop_assert!(layer.weight_grads().iter().all(|g| g.to_bits() == 0));
                prop_assert!(layer.bias_grads().iter().all(|g| g.to_bits() == 0));
            }
        }
    }
}
