//! **MS3 — mixed-precision storage + recompute checkpointing.**
//!
//! The paper ships MS1 (intermediate-variable reduction) and MS2
//! (insignificant-BP-cell skipping); MS3 is the roadmap's third software
//! memory saver, combining two orthogonal levers:
//!
//! 1. **Recompute checkpointing** (Echo-style): the tape keeps only every
//!    k-th cell's forward record and recomputes the dropped cells inside
//!    backward, segment by segment, through the same `forward_ws` kernels
//!    the forward pass uses. Tape intermediate bytes shrink ~1/k at the
//!    cost of ≤1 extra forward pass of compute.
//! 2. **Low-precision storage** (software-emulated): everything the tape
//!    stores — kept cell records, checkpointed cell states, the `h`
//!    sequence, and inter-layer gradient hand-offs — is rounded through
//!    bf16/f16 ([`eta_tensor::lowp`]) while all arithmetic stays f32, with
//!    dynamic loss scaling ([`LossScaler`]) keeping f16 gradients out of
//!    the flush-to-zero regime.
//!
//! Both levers are *identity at their neutral setting*: `k = 1` drops
//! nothing and [`Precision::F32`] rounds nothing, so MS3 at (k=1, f32) is
//! bit-identical to the baseline trained path — a contract the
//! `precision_equivalence` suite proves by proptest.

use crate::model::ModelGrads;
use eta_tensor::Precision;
use serde::{Deserialize, Serialize};

/// Default checkpoint interval: keep every 4th cell. Matches the
/// footprint target in the roadmap (tape ≈ 1/4) while bounding recompute
/// to one extra forward pass.
pub(crate) const DEFAULT_CHECKPOINT_INTERVAL: usize = 4;

/// Default initial loss scale, 2¹⁶ — the conventional AMP starting point:
/// large enough to lift small f16 gradients out of the subnormal range,
/// small enough that a couple of backoffs recover from early overflow.
pub(crate) const DEFAULT_INIT_LOSS_SCALE: f32 = 65536.0;

/// Default number of consecutive good steps before the scale doubles.
pub(crate) const DEFAULT_GROWTH_INTERVAL: u32 = 200;

/// Loss-scale ceiling (2²⁴): doubling stops here so `scale × loss` stays
/// far from f32 overflow.
pub(crate) const MAX_LOSS_SCALE: f32 = 16_777_216.0;

/// Loss-scale floor. Backoff stops at 1 — an unscaled step that still
/// overflows indicates divergence, not a range problem.
pub(crate) const MIN_LOSS_SCALE: f32 = 1.0;

/// MS3 configuration: checkpoint granularity plus storage precision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ms3Config {
    /// Checkpoint interval `k`: the tape keeps cell `t` iff
    /// `(t+1) % k == 0`. `k = 1` keeps everything (recompute no-op);
    /// values are clamped to ≥ 1 via `Ms3Config::interval`.
    pub k: usize,
    /// Storage precision for tape tensors and inter-layer gradients.
    pub precision: Precision,
    /// Initial dynamic loss scale (power of two). Ignored — pinned to
    /// 1 — under f32 storage, where scaling has nothing to protect and
    /// pinning preserves the bitwise-baseline contract.
    pub(crate) init_loss_scale: f32,
    /// Consecutive overflow-free steps before the scale doubles.
    pub(crate) growth_interval: u32,
}

impl Default for Ms3Config {
    fn default() -> Self {
        Ms3Config {
            k: DEFAULT_CHECKPOINT_INTERVAL,
            precision: Precision::Bf16,
            init_loss_scale: DEFAULT_INIT_LOSS_SCALE,
            growth_interval: DEFAULT_GROWTH_INTERVAL,
        }
    }
}

impl Ms3Config {
    /// MS3 with the given interval and precision and default scaling.
    pub fn new(k: usize, precision: Precision) -> Self {
        Ms3Config {
            k,
            precision,
            ..Ms3Config::default()
        }
    }

    /// The effective checkpoint interval (`k` clamped to ≥ 1).
    pub(crate) fn interval(&self) -> usize {
        self.k.max(1)
    }

    /// Whether the tape keeps the full forward record of cell `t`.
    ///
    /// Kept positions are `k-1, 2k-1, …` — the *last* cell of each
    /// segment — so every dropped segment has a kept (or t = 0 zero-state)
    /// predecessor carrying the `s` seed it recomputes from.
    pub(crate) fn keeps_cell(&self, t: usize) -> bool {
        (t + 1).is_multiple_of(self.interval())
    }

    /// First timestep of the segment containing cell `t`.
    pub(crate) fn segment_start(&self, t: usize) -> usize {
        (t / self.interval()) * self.interval()
    }

    /// Whether this configuration changes anything at all relative to the
    /// baseline tape (used to skip the MS3 bookkeeping entirely).
    pub(crate) fn is_noop(&self) -> bool {
        self.interval() == 1 && self.precision.is_f32()
    }

    /// The loss scale this configuration starts from (see
    /// [`Ms3Config::init_loss_scale`]).
    pub(crate) fn effective_init_scale(&self) -> f32 {
        if self.precision.is_f32() {
            MIN_LOSS_SCALE
        } else {
            self.init_loss_scale.clamp(MIN_LOSS_SCALE, MAX_LOSS_SCALE)
        }
    }
}

/// Dynamic loss scaler: power-of-two scale, multiplicative backoff on
/// overflow, doubling after a run of good steps.
///
/// Power-of-two scales make `scale` and `1/scale` exact in f32, so
/// scaling and unscaling are bit-reversible for every in-range gradient —
/// the scaler perturbs *range*, never *precision*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossScaler {
    scale: f32,
    growth_interval: u32,
    good_steps: u32,
    overflow_skips: u64,
}

impl LossScaler {
    /// A scaler initialized from the MS3 configuration.
    pub fn new(config: &Ms3Config) -> Self {
        LossScaler {
            scale: config.effective_init_scale(),
            growth_interval: config.growth_interval.max(1),
            good_steps: 0,
            overflow_skips: 0,
        }
    }

    /// The current scale applied to the loss gradient.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Records the outcome of one step. Returns `true` if the step's
    /// gradients are usable (apply them), `false` if the step must be
    /// skipped (non-finite gradients: back off ×½ and retry next step).
    pub fn on_step(&mut self, overflowed: bool) -> bool {
        if overflowed {
            self.scale = (self.scale * 0.5).max(MIN_LOSS_SCALE);
            self.good_steps = 0;
            self.overflow_skips += 1;
            false
        } else {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale = (self.scale * 2.0).min(MAX_LOSS_SCALE);
                self.good_steps = 0;
            }
            true
        }
    }

    /// Steps skipped because of non-finite gradients, since creation.
    pub fn overflow_skips(&self) -> u64 {
        self.overflow_skips
    }
}

/// Rounds every tensor of a forward record through the storage
/// precision, in place — the MS3 "store narrow, reload wide" emulation.
///
/// The recurrence then carries the *quantized* `h`/`s` into the next
/// cell, in the forward pass and in segment recompute alike, so a
/// recomputed record is byte-identical to the one the tape dropped
/// (quantization is a deterministic pure function of the stored seeds).
/// Under [`Precision::F32`] this is a no-op.
pub(crate) fn quantize_cell(
    p: Precision,
    fw: &mut crate::cell::CellForward,
    stats: &mut eta_tensor::ConvStats,
) {
    if p.is_f32() {
        return;
    }
    for m in [
        &mut fw.i,
        &mut fw.f,
        &mut fw.c,
        &mut fw.o,
        &mut fw.s,
        &mut fw.tanh_s,
        &mut fw.h,
    ] {
        eta_tensor::lowp::quantize_matrix(p, m, stats);
    }
}

/// Whether every gradient element in the step result is finite — the
/// overflow test that gates the optimizer apply under loss scaling.
pub fn grads_are_finite(grads: &ModelGrads) -> bool {
    let finite = |m: &eta_tensor::Matrix| m.as_slice().iter().all(|v| v.is_finite());
    grads
        .cells
        .iter()
        .all(|g| finite(&g.dw) && finite(&g.du) && g.db.iter().all(|v| v.is_finite()))
        && finite(&grads.head.dw)
        && grads.head.db.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_rule_keeps_every_kth_and_the_segment_tail() {
        let c = Ms3Config::new(4, Precision::F32);
        let kept: Vec<usize> = (0..10).filter(|&t| c.keeps_cell(t)).collect();
        assert_eq!(kept, vec![3, 7]);
        assert_eq!(c.segment_start(0), 0);
        assert_eq!(c.segment_start(3), 0);
        assert_eq!(c.segment_start(4), 4);
        assert_eq!(c.segment_start(9), 8);
    }

    #[test]
    fn k1_keeps_everything() {
        let c = Ms3Config::new(1, Precision::F32);
        assert!((0..20).all(|t| c.keeps_cell(t)));
        assert!(c.is_noop());
        assert!(!Ms3Config::new(1, Precision::Bf16).is_noop());
        assert!(!Ms3Config::new(2, Precision::F32).is_noop());
    }

    #[test]
    fn zero_k_is_clamped() {
        let c = Ms3Config::new(0, Precision::F32);
        assert_eq!(c.interval(), 1);
        assert!(c.keeps_cell(0));
    }

    #[test]
    fn f32_pins_scale_to_one() {
        let c = Ms3Config::new(2, Precision::F32);
        let s = LossScaler::new(&c);
        assert_eq!(s.scale(), 1.0);
        let c16 = Ms3Config::new(2, Precision::F16);
        assert_eq!(LossScaler::new(&c16).scale(), DEFAULT_INIT_LOSS_SCALE);
    }

    #[test]
    fn overflow_backs_off_and_skips() {
        let c = Ms3Config::new(2, Precision::F16);
        let mut s = LossScaler::new(&c);
        let s0 = s.scale();
        assert!(!s.on_step(true));
        assert_eq!(s.scale(), s0 * 0.5);
        assert_eq!(s.overflow_skips(), 1);
        assert!(!s.on_step(true));
        assert_eq!(s.scale(), s0 * 0.25);
        assert_eq!(s.overflow_skips(), 2);
    }

    #[test]
    fn scale_never_drops_below_floor() {
        let mut s = LossScaler::new(&Ms3Config::new(2, Precision::F16));
        for _ in 0..80 {
            s.on_step(true);
        }
        assert_eq!(s.scale(), MIN_LOSS_SCALE);
    }

    #[test]
    fn growth_after_interval_good_steps() {
        let c = Ms3Config {
            growth_interval: 3,
            ..Ms3Config::new(2, Precision::F16)
        };
        let mut s = LossScaler::new(&c);
        let s0 = s.scale();
        assert!(s.on_step(false));
        assert!(s.on_step(false));
        assert_eq!(s.scale(), s0);
        assert!(s.on_step(false));
        assert_eq!(s.scale(), s0 * 2.0);
        // Growth is capped.
        for _ in 0..200 {
            s.on_step(false);
        }
        assert_eq!(s.scale(), MAX_LOSS_SCALE);
    }

    #[test]
    fn overflow_resets_growth_run() {
        let c = Ms3Config {
            growth_interval: 2,
            ..Ms3Config::new(2, Precision::F16)
        };
        let mut s = LossScaler::new(&c);
        let s0 = s.scale();
        assert!(s.on_step(false));
        assert!(!s.on_step(true)); // run resets, scale halves
        assert!(s.on_step(false));
        assert_eq!(s.scale(), s0 * 0.5); // one good step ≠ growth yet
        assert!(s.on_step(false));
        assert_eq!(s.scale(), s0); // now it doubled back
    }

    #[test]
    fn default_config_matches_roadmap_operating_point() {
        let c = Ms3Config::default();
        assert_eq!(c.k, 4);
        assert_eq!(c.precision, Precision::Bf16);
        assert_eq!(c.init_loss_scale, 65536.0);
    }
}
