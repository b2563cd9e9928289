//! Activation functions and their derivatives, plus the lookup-table
//! implementations used by the accelerator's activation module.
//!
//! The η-LSTM channel architecture (paper Sec. V-D) computes σ and tanh
//! through lookup tables to avoid complex logic; [`ActivationLut`] models
//! that design and its quantization error so the simulator can execute the
//! exact datapath the hardware would.

/// Logistic sigmoid `1 / (1 + e^(-x))`.
///
/// # Example
///
/// ```
/// assert_eq!(eta_tensor::activation::sigmoid(0.0), 0.5);
/// ```
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Hyperbolic tangent.
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Numerically-stable softmax over a slice, returning the probabilities.
///
/// Returns an empty vector for empty input.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|v| v / sum).collect()
}

/// Which nonlinearity a lookup table implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LutKind {
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// A lookup-table activation unit, as built into each η-LSTM channel's
/// activation module (one sigmoid unit + one tanh unit per 32 PEs).
///
/// The table covers `[-range, range]` with `entries` uniformly-spaced
/// samples and linear interpolation between them; inputs beyond the range
/// clamp to the asymptote, matching typical hardware LUT implementations.
///
/// # Example
///
/// ```
/// use eta_tensor::activation::{ActivationLut, LutKind, sigmoid};
///
/// let lut = ActivationLut::new(LutKind::Sigmoid, 8.0, 1024);
/// let err = (lut.eval(0.37) - sigmoid(0.37)).abs();
/// assert!(err < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct ActivationLut {
    range: f32,
    table: Vec<f32>,
}

impl ActivationLut {
    /// Builds a table for `kind` over `[-range, range]` with `entries`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `range <= 0`.
    pub fn new(kind: LutKind, range: f32, entries: usize) -> Self {
        assert!(entries >= 2, "LUT needs at least two entries");
        assert!(range > 0.0, "LUT range must be positive");
        let f = match kind {
            LutKind::Sigmoid => sigmoid as fn(f32) -> f32,
            LutKind::Tanh => tanh as fn(f32) -> f32,
        };
        let table = (0..entries)
            .map(|i| {
                let x = -range + 2.0 * range * (i as f32) / ((entries - 1) as f32);
                f(x)
            })
            .collect();
        ActivationLut { range, table }
    }

    /// Evaluates the activation through the table with linear
    /// interpolation, clamping out-of-range inputs.
    pub fn eval(&self, x: f32) -> f32 {
        let n = self.table.len();
        if x <= -self.range {
            return self.table[0];
        }
        if x >= self.range {
            return self.table[n - 1];
        }
        let pos = (x + self.range) / (2.0 * self.range) * ((n - 1) as f32);
        let lo = (pos.floor() as usize).min(n - 1);
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f32;
        self.table[lo] * (1.0 - frac) + self.table[hi] * frac
    }

    /// Worst-case absolute error of the table against the exact
    /// function `f`, probed at `probes` points across `[-range, range]`.
    #[cfg(test)]
    fn max_error(&self, f: fn(f32) -> f32, probes: usize) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..probes {
            let x = -self.range + 2.0 * self.range * (i as f32) / (probes.max(2) - 1) as f32;
            worst = worst.max((self.eval(x) - f(x)).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basics() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // σ(-x) = 1 - σ(x)
        assert!((sigmoid(-1.3) - (1.0 - sigmoid(1.3))).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn lut_tracks_exact_function() {
        let s = ActivationLut::new(LutKind::Sigmoid, 8.0, 2048);
        assert!(s.max_error(sigmoid, 10_000) < 1e-3);
        let t = ActivationLut::new(LutKind::Tanh, 4.0, 2048);
        assert!(t.max_error(tanh, 10_000) < 1e-3);
    }

    #[test]
    fn lut_clamps_out_of_range() {
        let s = ActivationLut::new(LutKind::Sigmoid, 8.0, 256);
        assert_eq!(s.eval(100.0), s.eval(8.0));
        assert_eq!(s.eval(-100.0), s.eval(-8.0));
    }

    #[test]
    fn lut_is_monotone_for_monotone_functions() {
        let t = ActivationLut::new(LutKind::Tanh, 4.0, 128);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..200 {
            let x = -5.0 + 10.0 * i as f32 / 199.0;
            let y = t.eval(x);
            assert!(y >= prev - 1e-6);
            prev = y;
        }
    }

    #[test]
    #[should_panic(expected = "at least two entries")]
    fn lut_rejects_tiny_table() {
        let _ = ActivationLut::new(LutKind::Tanh, 4.0, 1);
    }
}
