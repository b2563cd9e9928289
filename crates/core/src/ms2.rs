//! **MS2 — BP layer-length reduction** (paper Sec. IV-B).
//!
//! Not every BP cell contributes significant weight gradients: in
//! single-loss models (e.g. IMDB sentiment) the gradient magnitude decays
//! from the last timestep toward the first (loss vanishing over the
//! propagation distance); in per-timestamp-loss models (e.g. WMT
//! translation) it *grows* from the last timestep toward the first (per
//! step losses accumulate along the chain), so the cells near the end of
//! the sequence are the insignificant ones (paper Fig. 8).
//!
//! MS2 predicts each BP cell's gradient magnitude **before the forward
//! pass** using the paper's Eq. 4 model
//! (`δW_mag = α · Σloss · (LN − layerID) / (LL − timeStamp)^β`) fed by
//! the Eq. 5 historic loss predictor, then skips the insignificant
//! cells: their forward runs inference-style (no intermediates stored)
//! and their BP is omitted. The surviving cells' weight gradients are
//! amplified by a scaling factor so the expected update magnitude is
//! preserved (convergence-aware compensation, paper Fig. 9).

use crate::loss::LossKind;
use serde::{Deserialize, Serialize};

/// Default relative skip threshold: a BP cell is skipped when its
/// predicted gradient magnitude falls below this fraction of the largest
/// predicted magnitude within its layer.
pub(crate) const DEFAULT_SKIP_THRESHOLD: f64 = 0.10;

/// Number of initial epochs that always run unskipped: Eq. 5 needs three
/// historic losses, and the first epoch also calibrates α.
pub const WARMUP_EPOCHS: usize = 3;

/// Convergence guard: at most this fraction of a layer's BP cells may be
/// skipped, regardless of how small their predicted magnitudes are.
/// Long-layer single-loss models would otherwise truncate to a handful
/// of cells, and although the scaling factor preserves the expected
/// update magnitude, the *direction* information of the dropped cells is
/// gone — the paper's convergence-aware design bounds the skipping so
/// convergence speed is unaffected (Sec. VI-B4).
pub const MAX_SKIP_FRACTION: f64 = 0.5;

/// MS2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ms2Config {
    /// Relative threshold against the per-layer maximum predicted
    /// magnitude; cells predicted below it are skipped.
    pub skip_threshold: f64,
}

impl Default for Ms2Config {
    fn default() -> Self {
        Ms2Config {
            skip_threshold: DEFAULT_SKIP_THRESHOLD,
        }
    }
}

/// Historic epoch losses and the Eq. 5 predictor.
///
/// `pred_loss_n = loss_{n−1} − (loss_{n−2} − loss_{n−1})² /
/// (loss_{n−3} − loss_{n−2})` — a geometric-decay extrapolation of the
/// loss curve.
///
/// # Example
///
/// ```
/// use eta_lstm_core::ms2::LossHistory;
///
/// let mut h = LossHistory::new();
/// for l in [8.0, 4.0, 2.0] {
///     h.push(l);
/// }
/// // Geometric decay 8, 4, 2 → predicted 2 − (4−2)²/(8−4) = 1.
/// assert_eq!(h.predict_next(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LossHistory {
    losses: Vec<f64>,
}

impl LossHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the measured loss of a completed epoch.
    pub fn push(&mut self, loss: f64) {
        self.losses.push(loss);
    }

    /// Eq. 5 prediction for the next epoch's loss, or `None` during the
    /// first [`WARMUP_EPOCHS`] epochs.
    ///
    /// When the loss curve has flattened (the denominator of Eq. 5 is
    /// near zero) the prediction degenerates to the last observed loss,
    /// which is the right limit.
    pub fn predict_next(&self) -> Option<f64> {
        let n = self.losses.len();
        if n < WARMUP_EPOCHS {
            return None;
        }
        let l1 = self.losses[n - 1];
        let l2 = self.losses[n - 2];
        let l3 = self.losses[n - 3];
        let denom = l3 - l2;
        if denom.abs() < 1e-12 {
            return Some(l1);
        }
        let pred = l1 - (l2 - l1) * (l2 - l1) / denom;
        // A negative or non-finite extrapolation means the curve broke
        // the geometric assumption; fall back to the last loss.
        if pred.is_finite() && pred > 0.0 {
            Some(pred)
        } else {
            Some(l1)
        }
    }
}

/// The paper's Eq. 4 gradient-magnitude predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradPredictor {
    /// Model/dataset factor, calibrated from the first epoch's measured
    /// magnitudes.
    pub alpha: f64,
    /// +1 for single-loss models (magnitude decays toward early
    /// timesteps), −1 for per-timestamp-loss models (magnitude grows
    /// toward early timesteps).
    pub beta: f64,
}

impl GradPredictor {
    /// β from the loss structure (paper Sec. IV-B).
    pub fn beta_for(kind: LossKind) -> f64 {
        match kind {
            LossKind::SingleLoss => 1.0,
            LossKind::PerTimestamp => -1.0,
        }
    }

    /// Unit (α = 1, Σloss = 1) prediction for a cell at
    /// (`layer_id`, `timestamp`) in an `layers × seq_len` graph:
    /// `(LN − layerID) / (LL − timeStamp)^β`.
    ///
    /// `timestamp` ranges over `[0, seq_len)` so the denominator is
    /// always ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `layer_id >= layers` or `timestamp >= seq_len`.
    pub(crate) fn unit_prediction(
        beta: f64,
        layer_id: usize,
        layers: usize,
        timestamp: usize,
        seq_len: usize,
    ) -> f64 {
        assert!(layer_id < layers, "layer_id out of range");
        assert!(timestamp < seq_len, "timestamp out of range");
        let num = (layers - layer_id) as f64;
        let den = ((seq_len - timestamp) as f64).powf(beta);
        num / den
    }

    /// Full Eq. 4 prediction: `α · Σloss · (LN − layerID) /
    /// (LL − timeStamp)^β`.
    pub(crate) fn predict(
        &self,
        sum_loss: f64,
        layer_id: usize,
        layers: usize,
        timestamp: usize,
        seq_len: usize,
    ) -> f64 {
        self.alpha
            * sum_loss
            * Self::unit_prediction(self.beta, layer_id, layers, timestamp, seq_len)
    }

    /// Least-squares calibration of α from measured first-epoch
    /// magnitudes: minimizes `Σ (m − α·u)²` over the cells, where `u` is
    /// the unit prediction scaled by the measured epoch loss.
    ///
    /// `measured[layer][t]` are the observed per-cell `|δW| + |δU|`
    /// magnitudes. Returns a predictor with the fitted α. Cells measured
    /// at exactly zero are still included (they inform the fit).
    pub fn calibrate(measured: &[Vec<f64>], epoch_loss: f64, beta: f64) -> GradPredictor {
        let layers = measured.len();
        let mut num = 0.0;
        let mut den = 0.0;
        for (l, row) in measured.iter().enumerate() {
            let seq_len = row.len();
            for (t, &m) in row.iter().enumerate() {
                let u = epoch_loss * Self::unit_prediction(beta, l, layers, t, seq_len);
                num += m * u;
                den += u * u;
            }
        }
        let alpha = if den > 0.0 { num / den } else { 1.0 };
        GradPredictor { alpha, beta }
    }
}

/// Which BP cells to run and how much to amplify the survivors' weight
/// gradients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkipPlan {
    /// `keep[layer][t]`: whether the BP cell runs.
    pub keep: Vec<Vec<bool>>,
    /// Per-layer gradient scaling factor (≥ 1) compensating the skipped
    /// cells' contributions (paper Fig. 9).
    pub scale: Vec<f32>,
}

impl SkipPlan {
    /// A plan that keeps every cell (the warm-up / baseline behavior).
    pub fn keep_all(layers: usize, seq_len: usize) -> Self {
        SkipPlan {
            keep: vec![vec![true; seq_len]; layers],
            scale: vec![1.0; layers],
        }
    }

    /// Fraction of cells skipped, in `[0, 1]`.
    pub fn skip_fraction(&self) -> f64 {
        let total: usize = self.keep.iter().map(|r| r.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let skipped: usize = self
            .keep
            .iter()
            .map(|r| r.iter().filter(|&&k| !k).count())
            .sum();
        skipped as f64 / total as f64
    }

    /// Whether the BP cell at (`layer`, `t`) runs.
    #[cfg(test)]
    pub(crate) fn keeps(&self, layer: usize, t: usize) -> bool {
        self.keep[layer][t]
    }
}

/// Orders predictions without a panic path: `partial_cmp` wherever it
/// answers (every finite pair, so `plan_skips` keeps the order it always
/// produced), `total_cmp` for a NaN operand — together still a total
/// order, which `sort_by` requires.
fn cmp_pred(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

/// Builds a [`SkipPlan`] from predicted gradient magnitudes.
///
/// A cell is skipped when its prediction falls below
/// `config.skip_threshold` times its layer's maximum prediction. The
/// per-layer scaling factor is `Σ predicted(all) / Σ predicted(kept)` —
/// the expected-update-preserving compensation. At least one cell per
/// layer is always kept.
pub fn plan_skips(
    predictor: &GradPredictor,
    predicted_loss: f64,
    layers: usize,
    seq_len: usize,
    config: &Ms2Config,
) -> SkipPlan {
    let mut keep = Vec::with_capacity(layers);
    let mut scale = Vec::with_capacity(layers);
    for l in 0..layers {
        let preds: Vec<f64> = (0..seq_len)
            .map(|t| predictor.predict(predicted_loss, l, layers, t, seq_len))
            .collect();
        let max = preds.iter().cloned().fold(0.0f64, f64::max);
        let cutoff = max * config.skip_threshold;
        let mut row: Vec<bool> = preds.iter().map(|&p| p >= cutoff).collect();
        // Convergence guard: un-skip the strongest skipped cells until no
        // more than MAX_SKIP_FRACTION of the layer is skipped.
        let max_skipped = (seq_len as f64 * MAX_SKIP_FRACTION).floor() as usize;
        let mut skipped: Vec<usize> = (0..seq_len).filter(|&t| !row[t]).collect();
        if skipped.len() > max_skipped {
            skipped.sort_by(|&a, &b| cmp_pred(preds[b], preds[a]));
            for &t in skipped.iter().take(skipped.len() - max_skipped) {
                row[t] = true;
            }
        }
        if !row.iter().any(|&k| k) {
            // Degenerate layer: keep the strongest cell.
            let best = preds
                .iter()
                .enumerate()
                .max_by(|a, b| cmp_pred(*a.1, *b.1))
                .map(|(i, _)| i)
                .unwrap_or(seq_len - 1);
            row[best] = true;
        }
        let total: f64 = preds.iter().sum();
        let kept: f64 = preds
            .iter()
            .zip(row.iter())
            .filter(|(_, &k)| k)
            .map(|(&p, _)| p)
            .sum();
        let factor = if kept > 0.0 {
            (total / kept).max(1.0)
        } else {
            1.0
        };
        keep.push(row);
        scale.push(factor as f32);
    }
    SkipPlan { keep, scale }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_prediction_needs_three_epochs() {
        let mut h = LossHistory::new();
        h.push(5.0);
        h.push(4.0);
        assert_eq!(h.predict_next(), None);
        h.push(3.5);
        assert!(h.predict_next().is_some());
    }

    #[test]
    fn loss_prediction_extrapolates_geometric_decay() {
        let mut h = LossHistory::new();
        for l in [16.0, 8.0, 4.0] {
            h.push(l);
        }
        // Eq. 5: 4 − (8−4)²/(16−8) = 4 − 2 = 2.
        assert_eq!(h.predict_next(), Some(2.0));
    }

    #[test]
    fn loss_prediction_handles_flat_curve() {
        let mut h = LossHistory::new();
        for l in [2.0, 2.0, 2.0] {
            h.push(l);
        }
        assert_eq!(h.predict_next(), Some(2.0));
    }

    #[test]
    fn loss_prediction_falls_back_on_divergence() {
        let mut h = LossHistory::new();
        // Rising then falling sharply — Eq. 5 would go negative.
        for l in [1.0, 5.0, 0.5] {
            h.push(l);
        }
        let p = h.predict_next().unwrap();
        assert!(p > 0.0 && p.is_finite());
    }

    #[test]
    fn single_loss_magnitude_decays_toward_early_timesteps() {
        let beta = GradPredictor::beta_for(LossKind::SingleLoss);
        let late = GradPredictor::unit_prediction(beta, 0, 2, 9, 10);
        let early = GradPredictor::unit_prediction(beta, 0, 2, 0, 10);
        assert!(
            late > early,
            "single-loss gradients peak at the last timestep"
        );
    }

    #[test]
    fn per_timestamp_magnitude_grows_toward_early_timesteps() {
        let beta = GradPredictor::beta_for(LossKind::PerTimestamp);
        let late = GradPredictor::unit_prediction(beta, 0, 2, 9, 10);
        let early = GradPredictor::unit_prediction(beta, 0, 2, 0, 10);
        assert!(
            early > late,
            "per-timestamp gradients peak at the first timestep"
        );
    }

    #[test]
    fn earlier_layers_predict_larger_gradients() {
        let beta = 1.0;
        let first = GradPredictor::unit_prediction(beta, 0, 4, 5, 10);
        let last = GradPredictor::unit_prediction(beta, 3, 4, 5, 10);
        assert!(first > last);
    }

    #[test]
    fn calibration_recovers_alpha_on_synthetic_data() {
        let (layers, seq_len, beta, truth) = (3usize, 8usize, 1.0f64, 2.5f64);
        let loss = 1.7;
        let measured: Vec<Vec<f64>> = (0..layers)
            .map(|l| {
                (0..seq_len)
                    .map(|t| {
                        truth * loss * GradPredictor::unit_prediction(beta, l, layers, t, seq_len)
                    })
                    .collect()
            })
            .collect();
        let p = GradPredictor::calibrate(&measured, loss, beta);
        assert!((p.alpha - truth).abs() < 1e-9, "alpha {}", p.alpha);
    }

    #[test]
    fn skip_plan_skips_early_cells_for_single_loss() {
        let p = GradPredictor {
            alpha: 1.0,
            beta: 1.0,
        };
        let plan = plan_skips(&p, 1.0, 2, 20, &Ms2Config::default());
        // Last timestep always strongest → kept.
        assert!(plan.keeps(0, 19));
        // Earliest timestep: unit pred 1/20 = 0.05 < 0.1 → skipped.
        assert!(!plan.keeps(0, 0));
        assert!(plan.skip_fraction() > 0.0);
        assert!(plan.scale.iter().all(|&s| s >= 1.0));
    }

    #[test]
    fn skip_plan_skips_late_cells_for_per_timestamp_loss() {
        let p = GradPredictor {
            alpha: 1.0,
            beta: -1.0,
        };
        let plan = plan_skips(&p, 1.0, 1, 20, &Ms2Config::default());
        assert!(plan.keeps(0, 0), "earliest cell has the largest magnitude");
        assert!(!plan.keeps(0, 19), "latest cell is insignificant");
    }

    #[test]
    fn keep_all_plan_has_zero_skip_fraction() {
        let plan = SkipPlan::keep_all(3, 5);
        assert_eq!(plan.skip_fraction(), 0.0);
        assert!(plan.scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn scaling_compensates_skipped_mass() {
        let p = GradPredictor {
            alpha: 1.0,
            beta: 1.0,
        };
        let cfg = Ms2Config {
            skip_threshold: 0.5,
        };
        let plan = plan_skips(&p, 1.0, 1, 10, &cfg);
        // Total unit mass: sum over t of 1/(10−t); kept mass: cells ≥ 0.5·max.
        let total: f64 = (0..10).map(|t| 1.0 / (10 - t) as f64).sum();
        let kept: f64 = (0..10)
            .filter(|&t| plan.keeps(0, t))
            .map(|t| 1.0 / (10 - t) as f64)
            .sum();
        assert!((plan.scale[0] as f64 - total / kept).abs() < 1e-6);
    }

    #[test]
    fn at_least_one_cell_kept_even_with_absurd_threshold() {
        let p = GradPredictor {
            alpha: 1.0,
            beta: 1.0,
        };
        let cfg = Ms2Config {
            skip_threshold: 2.0,
        };
        // A NaN loss makes every prediction NaN: still a plan, not a panic.
        for loss in [1.0, f64::NAN] {
            let plan = plan_skips(&p, loss, 2, 10, &cfg);
            for l in 0..2 {
                assert!(plan.keep[l].iter().any(|&k| k));
            }
        }
    }
}
