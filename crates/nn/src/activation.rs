//! Element-wise activation functions.

/// An element-wise activation applied between [`crate::linear::Linear`]
/// layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op (used for output layers).
    Identity,
}

impl Activation {
    /// Writes the activation of each pre-activation value in `pre` to
    /// the same position of `out`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn forward_into(&self, pre: &[f64], out: &mut [f64]) {
        assert_eq!(pre.len(), out.len(), "length mismatch");
        match self {
            Activation::Relu => {
                for (o, &x) in out.iter_mut().zip(pre) {
                    *o = x.max(0.0);
                }
            }
            Activation::Tanh => {
                for (o, &x) in out.iter_mut().zip(pre) {
                    *o = x.tanh();
                }
            }
            Activation::Identity => out.copy_from_slice(pre),
        }
    }

    /// Multiplies each entry of `grad` in place by the activation's
    /// derivative at the matching pre-activation value in `pre`, turning
    /// a gradient with respect to the output into one with respect to
    /// the pre-activation.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn backward_in_place(&self, pre: &[f64], grad: &mut [f64]) {
        assert_eq!(pre.len(), grad.len(), "length mismatch");
        match self {
            Activation::Relu => {
                for (g, &x) in grad.iter_mut().zip(pre) {
                    *g = if x > 0.0 { *g } else { 0.0 };
                }
            }
            Activation::Tanh => {
                for (g, &x) in grad.iter_mut().zip(pre) {
                    let t = x.tanh();
                    *g *= 1.0 - t * t;
                }
            }
            Activation::Identity => {}
        }
    }
}

impl mtat_snapshot::Snap for Activation {
    fn snap(&self, w: &mut mtat_snapshot::SnapWriter) {
        w.put_u8(match self {
            Activation::Relu => 0,
            Activation::Tanh => 1,
            Activation::Identity => 2,
        });
    }

    fn unsnap(r: &mut mtat_snapshot::SnapReader<'_>) -> Result<Self, mtat_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(Activation::Relu),
            1 => Ok(Activation::Tanh),
            2 => Ok(Activation::Identity),
            _ => Err(mtat_snapshot::SnapError::Malformed("activation tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(act: Activation, pre: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; pre.len()];
        act.forward_into(pre, &mut out);
        out
    }

    fn backward(act: Activation, pre: &[f64], grad: &[f64]) -> Vec<f64> {
        let mut g = grad.to_vec();
        act.backward_in_place(pre, &mut g);
        g
    }

    #[test]
    fn relu_forward_backward() {
        let pre = [-1.0, 0.0, 2.0];
        assert_eq!(forward(Activation::Relu, &pre), vec![0.0, 0.0, 2.0]);
        let grad = backward(Activation::Relu, &pre, &[1.0, 1.0, 1.0]);
        assert_eq!(grad, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_forward_backward() {
        let pre = [0.0, 1.0];
        let out = forward(Activation::Tanh, &pre);
        assert!((out[0] - 0.0).abs() < 1e-12);
        assert!((out[1] - 1.0_f64.tanh()).abs() < 1e-12);
        let grad = backward(Activation::Tanh, &pre, &[1.0, 1.0]);
        assert!((grad[0] - 1.0).abs() < 1e-12);
        let t = 1.0_f64.tanh();
        assert!((grad[1] - (1.0 - t * t)).abs() < 1e-12);
    }

    #[test]
    fn identity_passthrough() {
        let pre = [3.0, -4.0];
        assert_eq!(forward(Activation::Identity, &pre), vec![3.0, -4.0]);
        assert_eq!(
            backward(Activation::Identity, &pre, &[0.5, 0.25]),
            vec![0.5, 0.25]
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for &x in &[-0.7, 0.3, 1.5] {
                let f = |v: f64| forward(act, &[v])[0];
                let numeric = (f(x + eps) - f(x - eps)) / (2.0 * eps);
                let analytic = backward(act, &[x], &[1.0])[0];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }
}
