//! Weight initialization.
//!
//! LSTM weight matrices are initialized with Xavier/Glorot uniform
//! scaling, matching the PyTorch default for recurrent layers used by the
//! paper's software baseline. All initializers are seeded so every
//! experiment in the harness is reproducible.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialization: samples from
/// `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
///
/// # Example
///
/// ```
/// use eta_tensor::init::xavier_uniform;
///
/// let w = xavier_uniform(64, 32, 42);
/// assert_eq!(w.rows(), 64);
/// let bound = (6.0f32 / (64.0 + 32.0)).sqrt();
/// assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
/// ```
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, -bound, bound, seed)
}

/// Uniform initialization over `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    assert!(lo < hi, "uniform init requires lo < hi");
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound() {
        let w = xavier_uniform(100, 50, 7);
        let bound = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn seeding_is_deterministic() {
        assert_eq!(xavier_uniform(8, 8, 3), xavier_uniform(8, 8, 3));
        assert_ne!(xavier_uniform(8, 8, 3), xavier_uniform(8, 8, 4));
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_inverted_range() {
        let _ = uniform(2, 2, 1.0, -1.0, 0);
    }
}
