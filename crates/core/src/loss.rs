//! Loss structure, projection head, and loss functions.
//!
//! The paper distinguishes two LSTM model families by *where* the loss is
//! computed (Sec. IV-B, Fig. 8): **single-loss** models evaluate the loss
//! once, on the last timestep of the final layer (e.g. IMDB sentiment
//! classification), while **per-timestamp-loss** models evaluate it at
//! every timestep (e.g. WMT translation, PTB language modeling). The
//! distinction flips the sign of β in the MS2 gradient predictor.

use crate::{LstmError, Result};
use eta_tensor::{activation, init, Matrix};
use serde::{Deserialize, Serialize};

/// Where the training loss is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossKind {
    /// Loss on the last timestep of the final layer only.
    SingleLoss,
    /// Loss at every timestep of the final layer.
    PerTimestamp,
}

/// Training targets for one batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Targets {
    /// Class index per batch element (single-loss classification).
    Classes(Vec<usize>),
    /// Class index per timestep per batch element
    /// (per-timestamp classification, `[seq][batch]`).
    StepClasses(Vec<Vec<usize>>),
    /// Regression target `[batch, out]` (single-loss regression).
    Regression(Matrix),
    /// Regression target per timestep (`[seq]` of `[batch, out]`).
    StepRegression(Vec<Matrix>),
}

/// The projection head mapping the top layer's `h_t` to task outputs:
/// a dense layer `[out, H]` plus bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Head {
    /// Projection weights `[out, H]`.
    pub(crate) w: Matrix,
    /// Output biases, length `out`.
    pub(crate) b: Vec<f32>,
}

/// Gradient buffers for the head.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadGrads {
    /// `δW`, `[out, H]`.
    pub dw: Matrix,
    /// `δb`, length `out`.
    pub(crate) db: Vec<f32>,
}

impl Head {
    /// Xavier-initialized head.
    pub(crate) fn new(hidden: usize, out: usize, seed: u64) -> Self {
        Head {
            w: init::xavier_uniform(out, hidden, seed),
            b: vec![0.0; out],
        }
    }

    /// Parameter bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        self.w.size_bytes() + (self.b.len() * 4) as u64
    }

    /// Zeroed gradient buffers matching this head.
    pub(crate) fn zero_grads(&self) -> HeadGrads {
        HeadGrads {
            dw: Matrix::zeros(self.w.rows(), self.w.cols()),
            db: vec![0.0; self.b.len()],
        }
    }

    /// `logits = h · Wᵀ + b`, `[batch, out]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `h` is not `[batch, H]`.
    pub fn forward(&self, h: &Matrix) -> Result<Matrix> {
        let mut logits = h.matmul_nt(&self.w)?;
        logits.add_row_broadcast(&self.b)?;
        Ok(logits)
    }

    /// Backward through the head: accumulates `δW`, `δb` into `grads`
    /// and returns `δh = δlogits · W`.
    ///
    /// # Errors
    ///
    /// Returns a shape error on inconsistent operands.
    pub(crate) fn backward(
        &self,
        h: &Matrix,
        dlogits: &Matrix,
        grads: &mut HeadGrads,
    ) -> Result<Matrix> {
        grads.dw.add_assign(&dlogits.matmul_tn(h)?)?;
        for r in 0..dlogits.rows() {
            for (acc, &g) in grads.db.iter_mut().zip(dlogits.row(r).iter()) {
                *acc += g;
            }
        }
        Ok(dlogits.matmul_nn(&self.w)?)
    }
}

impl HeadGrads {
    /// Scales all gradients in place.
    pub(crate) fn scale(&mut self, factor: f32) {
        self.dw.scale(factor);
        for v in &mut self.db {
            *v *= factor;
        }
    }

    /// Accumulates another gradient set into this one (the shard-merge
    /// step of the data-parallel reduction).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient shapes differ.
    pub(crate) fn accumulate(&mut self, other: &HeadGrads) -> Result<()> {
        self.dw.add_assign(&other.dw)?;
        for (a, &b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += b;
        }
        Ok(())
    }
}

/// Softmax cross-entropy, mean over the batch.
///
/// Returns `(loss, δlogits)` with the gradient already divided by the
/// batch size.
///
/// # Errors
///
/// Returns [`LstmError::BatchShape`] if `classes.len() != logits.rows()`
/// or any class index is out of range.
pub(crate) fn softmax_xent(logits: &Matrix, classes: &[usize]) -> Result<(f64, Matrix)> {
    if classes.len() != logits.rows() {
        return Err(LstmError::BatchShape {
            detail: format!(
                "{} class labels for {} logit rows",
                classes.len(),
                logits.rows()
            ),
        });
    }
    let batch = logits.rows();
    let mut dlogits = Matrix::zeros(batch, logits.cols());
    let mut loss = 0.0f64;
    for (r, &cls) in classes.iter().enumerate() {
        if cls >= logits.cols() {
            return Err(LstmError::BatchShape {
                detail: format!(
                    "class index {cls} out of range for {} outputs",
                    logits.cols()
                ),
            });
        }
        let probs = activation::softmax(logits.row(r));
        debug_assert_eq!(probs.len(), logits.cols());
        loss -= (probs[cls].max(1e-12) as f64).ln();
        for (c, &p) in probs.iter().enumerate() {
            let grad = if c == cls { p - 1.0 } else { p };
            dlogits.set(r, c, grad / batch as f32);
        }
    }
    Ok((loss / batch as f64, dlogits))
}

/// Mean-squared error, mean over all elements.
///
/// Returns `(loss, δpred)` with the gradient already divided by the
/// element count.
///
/// # Errors
///
/// Returns a shape error if `pred` and `target` differ in shape.
pub(crate) fn mse(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    let diff = pred.sub(target)?;
    let n = diff.len() as f64;
    let loss = diff.sq_sum() / n;
    let dpred = diff.map(|v| 2.0 * v / n as f32);
    Ok((loss, dpred))
}

/// Classification accuracy of `logits` against `classes`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `classes.len() != logits.rows()`.
pub(crate) fn accuracy(logits: &Matrix, classes: &[usize]) -> f64 {
    assert_eq!(classes.len(), logits.rows(), "label count mismatch");
    if logits.rows() == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &cls) in classes.iter().enumerate() {
        let row = logits.row(r);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if argmax == cls {
            correct += 1;
        }
    }
    correct as f64 / logits.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xent_is_minimal_for_confident_correct_prediction() {
        let good = Matrix::from_vec(1, 3, vec![10.0, -10.0, -10.0]).unwrap();
        let bad = Matrix::from_vec(1, 3, vec![-10.0, 10.0, -10.0]).unwrap();
        let (l_good, _) = softmax_xent(&good, &[0]).unwrap();
        let (l_bad, _) = softmax_xent(&bad, &[0]).unwrap();
        assert!(l_good < 1e-6);
        assert!(l_bad > 10.0);
    }

    #[test]
    fn xent_gradient_matches_finite_differences() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.1, 1.0, 0.5, -0.7]).unwrap();
        let classes = [2usize, 0];
        let (_, grad) = softmax_xent(&logits, &classes).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, logits.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, logits.get(r, c) - eps);
                let (lp, _) = softmax_xent(&plus, &classes).unwrap();
                let (lm, _) = softmax_xent(&minus, &classes).unwrap();
                let num = (lp - lm) / (2.0 * eps as f64);
                assert!(
                    (num - grad.get(r, c) as f64).abs() < 1e-4,
                    "dlogits[{r},{c}]"
                );
            }
        }
    }

    #[test]
    fn xent_rejects_bad_labels() {
        let logits = Matrix::zeros(2, 3);
        assert!(softmax_xent(&logits, &[0]).is_err());
        assert!(softmax_xent(&logits, &[0, 5]).is_err());
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let pred = Matrix::from_vec(2, 2, vec![0.5, -0.2, 1.0, 0.0]).unwrap();
        let target = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, -1.0]).unwrap();
        let (_, grad) = mse(&pred, &target).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = pred.clone();
                plus.set(r, c, pred.get(r, c) + eps);
                let mut minus = pred.clone();
                minus.set(r, c, pred.get(r, c) - eps);
                let (lp, _) = mse(&plus, &target).unwrap();
                let (lm, _) = mse(&minus, &target).unwrap();
                let num = (lp - lm) / (2.0 * eps as f64);
                assert!((num - grad.get(r, c) as f64).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn head_backward_matches_finite_differences() {
        let head = Head::new(4, 3, 5);
        let h = init::uniform(2, 4, -1.0, 1.0, 9);
        let classes = [1usize, 2];
        let loss_of = |hd: &Head, h: &Matrix| {
            let logits = hd.forward(h).unwrap();
            softmax_xent(&logits, &classes).unwrap().0
        };
        let logits = head.forward(&h).unwrap();
        let (_, dlogits) = softmax_xent(&logits, &classes).unwrap();
        let mut grads = head.zero_grads();
        let dh = head.backward(&h, &dlogits, &mut grads).unwrap();

        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (2, 3), (1, 1)] {
            let mut plus = head.clone();
            plus.w.set(r, c, head.w.get(r, c) + eps);
            let mut minus = head.clone();
            minus.w.set(r, c, head.w.get(r, c) - eps);
            let num = (loss_of(&plus, &h) - loss_of(&minus, &h)) / (2.0 * eps as f64);
            assert!(
                (num - grads.dw.get(r, c) as f64).abs() < 1e-4,
                "dW[{r},{c}]"
            );
        }
        for &(r, c) in &[(0usize, 2usize), (1, 0)] {
            let mut plus = h.clone();
            plus.set(r, c, h.get(r, c) + eps);
            let mut minus = h.clone();
            minus.set(r, c, h.get(r, c) - eps);
            let num = (loss_of(&head, &plus) - loss_of(&head, &minus)) / (2.0 * eps as f64);
            assert!((num - dh.get(r, c) as f64).abs() < 1e-4, "dh[{r},{c}]");
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 1.0, 3.0, -1.0]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    use eta_tensor::init;
}
