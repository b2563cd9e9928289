//! Optimizers: plain SGD (the paper's baseline protocol), SGD with
//! momentum, and Adam — all with global-norm gradient clipping.
//!
//! The figure harnesses train with [`Sgd`] to match the paper's setup;
//! [`MomentumConfig`]-driven momentum and [`AdamConfig`]-driven Adam are
//! provided for downstream users (the
//! memory-saving optimizations are optimizer-agnostic: they act on the
//! forward/backward tape, not on the update rule).

use crate::cell::{CellGrads, CellParams};
use crate::loss::{Head, HeadGrads};
use crate::Result;
use eta_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Plain SGD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Global gradient-norm clip; gradients are rescaled when their
    /// overall L2 norm exceeds this. `f32::INFINITY` disables clipping.
    pub clip: f32,
}

impl Default for Sgd {
    fn default() -> Self {
        Sgd { lr: 0.1, clip: 5.0 }
    }
}

/// SGD with classical (heavy-ball) momentum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MomentumConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (typically 0.9).
    pub momentum: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
}

impl Default for MomentumConfig {
    fn default() -> Self {
        MomentumConfig {
            lr: 0.05,
            momentum: 0.9,
            clip: 5.0,
        }
    }
}

/// Adam configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 5.0,
        }
    }
}

/// Per-parameter state buffers, shaped like the gradients.
#[derive(Debug, Clone)]
struct Slots {
    cells: Vec<CellGrads>,
    head: HeadGrads,
}

impl Slots {
    fn zeros_like(cells: &[&mut CellParams], head: &Head) -> Slots {
        Slots {
            cells: cells.iter().map(|p| CellGrads::zeros_like(p)).collect(),
            head: head.zero_grads(),
        }
    }
}

/// An optimizer with its internal state.
///
/// # Example
///
/// ```
/// use eta_lstm_core::optimizer::{Optimizer, Sgd};
///
/// let opt = Optimizer::sgd(Sgd { lr: 0.1, clip: 5.0 });
/// assert!(format!("{opt:?}").contains("Sgd"));
/// ```
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// Plain SGD (stateless).
    Sgd(Sgd),
    /// Heavy-ball momentum (velocity state).
    Momentum {
        /// Hyper-parameters.
        config: MomentumConfig,
        /// Velocity buffers, lazily initialized on the first step.
        velocity: Option<Box<SlotsOpaque>>,
    },
    /// Adam (first/second-moment state + step counter).
    Adam {
        /// Hyper-parameters.
        config: AdamConfig,
        /// Moment buffers, lazily initialized on the first step.
        moments: Option<Box<AdamState>>,
    },
}

/// Opaque state wrapper so the enum stays constructible by users while
/// the buffer layout remains private.
#[derive(Debug, Clone)]
pub struct SlotsOpaque(Slots);

/// Adam's two moment buffers and step counter.
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Slots,
    v: Slots,
    t: u64,
}

impl Optimizer {
    /// Plain SGD.
    pub fn sgd(config: Sgd) -> Self {
        Optimizer::Sgd(config)
    }

    /// SGD with momentum.
    pub fn momentum(config: MomentumConfig) -> Self {
        Optimizer::Momentum {
            config,
            velocity: None,
        }
    }

    /// Adam.
    pub fn adam(config: AdamConfig) -> Self {
        Optimizer::Adam {
            config,
            moments: None,
        }
    }

    /// Applies one update step.
    ///
    /// # Errors
    ///
    /// Returns a shape error if gradients do not match the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cells` and `grads` differ in length.
    pub(crate) fn step(
        &mut self,
        cells: &mut [&mut CellParams],
        grads: &[CellGrads],
        head: &mut Head,
        head_grads: &HeadGrads,
    ) -> Result<()> {
        assert_eq!(cells.len(), grads.len(), "layer/gradient count mismatch");
        match self {
            Optimizer::Sgd(sgd) => sgd.step(cells, grads, head, head_grads),
            Optimizer::Momentum { config, velocity } => {
                let state = velocity
                    .get_or_insert_with(|| Box::new(SlotsOpaque(Slots::zeros_like(cells, head))));
                let clip = clip_scale(grads, head_grads, config.clip);
                // v = momentum·v + g ; p -= lr·v
                for ((p, g), v) in cells.iter_mut().zip(grads).zip(state.0.cells.iter_mut()) {
                    update_momentum(&mut v.dw, &g.dw, config.momentum, clip)?;
                    update_momentum(&mut v.du, &g.du, config.momentum, clip)?;
                    for (vb, &gb) in v.db.iter_mut().zip(g.db.iter()) {
                        *vb = config.momentum * *vb + clip * gb;
                    }
                    p.w.axpy(-config.lr, &v.dw)?;
                    p.u.axpy(-config.lr, &v.du)?;
                    for (b, &vb) in p.b.iter_mut().zip(v.db.iter()) {
                        *b -= config.lr * vb;
                    }
                }
                let hv = &mut state.0.head;
                update_momentum(&mut hv.dw, &head_grads.dw, config.momentum, clip)?;
                for (vb, &gb) in hv.db.iter_mut().zip(head_grads.db.iter()) {
                    *vb = config.momentum * *vb + clip * gb;
                }
                head.w.axpy(-config.lr, &hv.dw)?;
                for (b, &vb) in head.b.iter_mut().zip(hv.db.iter()) {
                    *b -= config.lr * vb;
                }
                Ok(())
            }
            Optimizer::Adam { config, moments } => {
                let state = moments.get_or_insert_with(|| {
                    Box::new(AdamState {
                        m: Slots::zeros_like(cells, head),
                        v: Slots::zeros_like(cells, head),
                        t: 0,
                    })
                });
                state.t += 1;
                let clip = clip_scale(grads, head_grads, config.clip);
                let bias1 = 1.0 - config.beta1.powi(state.t as i32);
                let bias2 = 1.0 - config.beta2.powi(state.t as i32);
                let step_lr = config.lr * (bias2.sqrt() / bias1);

                assert_eq!(state.m.cells.len(), cells.len());
                assert_eq!(state.v.cells.len(), cells.len());
                for (i, (p, g)) in cells.iter_mut().zip(grads).enumerate() {
                    adam_update(
                        &mut p.w,
                        &g.dw,
                        &mut state.m.cells[i].dw,
                        &mut state.v.cells[i].dw,
                        config,
                        step_lr,
                        clip,
                    );
                    adam_update(
                        &mut p.u,
                        &g.du,
                        &mut state.m.cells[i].du,
                        &mut state.v.cells[i].du,
                        config,
                        step_lr,
                        clip,
                    );
                    adam_update_slice(
                        &mut p.b,
                        &g.db,
                        &mut state.m.cells[i].db,
                        &mut state.v.cells[i].db,
                        config,
                        step_lr,
                        clip,
                    );
                }
                adam_update(
                    &mut head.w,
                    &head_grads.dw,
                    &mut state.m.head.dw,
                    &mut state.v.head.dw,
                    config,
                    step_lr,
                    clip,
                );
                adam_update_slice(
                    &mut head.b,
                    &head_grads.db,
                    &mut state.m.head.db,
                    &mut state.v.head.db,
                    config,
                    step_lr,
                    clip,
                );
                Ok(())
            }
        }
    }
}

impl From<Sgd> for Optimizer {
    fn from(sgd: Sgd) -> Self {
        Optimizer::Sgd(sgd)
    }
}

fn update_momentum(v: &mut Matrix, g: &Matrix, momentum: f32, clip: f32) -> Result<()> {
    v.scale(momentum);
    v.axpy(clip, g)?;
    Ok(())
}

fn adam_update(
    p: &mut Matrix,
    g: &Matrix,
    m: &mut Matrix,
    v: &mut Matrix,
    config: &AdamConfig,
    step_lr: f32,
    clip: f32,
) {
    let ps = p.as_mut_slice();
    let gs = g.as_slice();
    let ms = m.as_mut_slice();
    let vs = v.as_mut_slice();
    assert_eq!(gs.len(), ps.len());
    assert_eq!(ms.len(), ps.len());
    assert_eq!(vs.len(), ps.len());
    for i in 0..ps.len() {
        let grad = gs[i] * clip;
        ms[i] = config.beta1 * ms[i] + (1.0 - config.beta1) * grad;
        vs[i] = config.beta2 * vs[i] + (1.0 - config.beta2) * grad * grad;
        ps[i] -= step_lr * ms[i] / (vs[i].sqrt() + config.eps);
    }
}

fn adam_update_slice(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    config: &AdamConfig,
    step_lr: f32,
    clip: f32,
) {
    assert_eq!(g.len(), p.len());
    assert_eq!(m.len(), p.len());
    assert_eq!(v.len(), p.len());
    for i in 0..p.len() {
        let grad = g[i] * clip;
        m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * grad;
        v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * grad * grad;
        p[i] -= step_lr * m[i] / (v[i].sqrt() + config.eps);
    }
}

fn clip_scale(grads: &[CellGrads], head_grads: &HeadGrads, clip: f32) -> f32 {
    if clip == f32::INFINITY {
        return 1.0;
    }
    let mut sq = head_grads.dw.sq_sum();
    sq += head_grads
        .db
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>();
    for g in grads {
        sq += g.dw.sq_sum() + g.du.sq_sum();
        sq += g.db.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
    }
    let norm = sq.sqrt();
    if norm > clip as f64 && norm > 0.0 {
        (clip as f64 / norm) as f32
    } else {
        1.0
    }
}

impl Sgd {
    /// Applies one SGD step to all layer parameters and the head.
    ///
    /// # Errors
    ///
    /// Returns a shape error if a gradient does not match its parameter.
    ///
    /// # Panics
    ///
    /// Panics if `cells` and `grads` differ in length.
    pub(crate) fn step(
        &self,
        cells: &mut [&mut CellParams],
        grads: &[CellGrads],
        head: &mut Head,
        head_grads: &HeadGrads,
    ) -> Result<()> {
        assert_eq!(cells.len(), grads.len(), "layer/gradient count mismatch");
        let scale = clip_scale(grads, head_grads, self.clip);
        let step = -self.lr * scale;

        for (p, g) in cells.iter_mut().zip(grads.iter()) {
            p.w.axpy(step, &g.dw)?;
            p.u.axpy(step, &g.du)?;
            for (b, &d) in p.b.iter_mut().zip(g.db.iter()) {
                *b += step * d;
            }
        }
        head.w.axpy(step, &head_grads.dw)?;
        for (b, &d) in head.b.iter_mut().zip(head_grads.db.iter()) {
            *b += step * d;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (CellParams, Vec<CellGrads>, Head, HeadGrads) {
        let cell = CellParams::new(2, 2, 1);
        let mut g = CellGrads::zeros_like(&cell);
        g.dw.set(0, 0, 1.0);
        let head = Head::new(2, 2, 2);
        let mut hg = head.zero_grads();
        hg.dw.set(0, 0, 1.0);
        (cell, vec![g], head, hg)
    }

    #[test]
    fn step_moves_against_gradient() {
        let (mut cell, grads, mut head, hg) = tiny();
        let w00 = cell.w.get(0, 0);
        let sgd = Sgd {
            lr: 0.5,
            clip: f32::INFINITY,
        };
        sgd.step(&mut [&mut cell], &grads, &mut head, &hg).unwrap();
        assert!((cell.w.get(0, 0) - (w00 - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let (mut cell, mut grads, mut head, hg) = tiny();
        grads[0].dw = Matrix::filled(8, 2, 100.0);
        let before = cell.w.get(0, 0);
        let sgd = Sgd { lr: 1.0, clip: 1.0 };
        sgd.step(&mut [&mut cell], &grads, &mut head, &hg).unwrap();
        let delta = (cell.w.get(0, 0) - before).abs();
        // Update magnitude per element must be ≤ lr · clip.
        assert!(delta <= 1.0 + 1e-6);
        assert!(delta > 0.0);
    }

    #[test]
    fn zero_gradient_leaves_params_unchanged() {
        let mut cell = CellParams::new(2, 2, 1);
        let grads = vec![CellGrads::zeros_like(&cell)];
        let mut head = Head::new(2, 2, 2);
        let hg = head.zero_grads();
        let snapshot = cell.clone();
        Sgd::default()
            .step(&mut [&mut cell], &grads, &mut head, &hg)
            .unwrap();
        assert_eq!(cell, snapshot);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (mut cell, grads, mut head, hg) = tiny();
        let mut opt = Optimizer::momentum(MomentumConfig {
            lr: 1.0,
            momentum: 0.5,
            clip: f32::INFINITY,
        });
        let w0 = cell.w.get(0, 0);
        opt.step(&mut [&mut cell], &grads, &mut head, &hg).unwrap();
        let after_one = cell.w.get(0, 0);
        // First step: v = g = 1, p -= 1.
        assert!((w0 - after_one - 1.0).abs() < 1e-6);
        opt.step(&mut [&mut cell], &grads, &mut head, &hg).unwrap();
        let after_two = cell.w.get(0, 0);
        // Second step: v = 0.5 + 1 = 1.5, p -= 1.5.
        assert!((after_one - after_two - 1.5).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_moves_by_learning_rate() {
        let (mut cell, grads, mut head, hg) = tiny();
        let mut opt = Optimizer::adam(AdamConfig {
            lr: 0.01,
            clip: f32::INFINITY,
            ..AdamConfig::default()
        });
        let w0 = cell.w.get(0, 0);
        opt.step(&mut [&mut cell], &grads, &mut head, &hg).unwrap();
        // Adam's bias-corrected first step ≈ lr for any gradient scale.
        let delta = w0 - cell.w.get(0, 0);
        assert!((delta - 0.01).abs() < 1e-3, "first Adam step {delta}");
    }

    #[test]
    fn adam_adapts_to_gradient_scale() {
        // Two parameters with very different gradient magnitudes should
        // move by comparable amounts under Adam.
        let mut cell = CellParams::new(2, 2, 1);
        let mut g = CellGrads::zeros_like(&cell);
        g.dw.set(0, 0, 100.0);
        g.dw.set(0, 1, 0.01);
        let mut head = Head::new(2, 2, 2);
        let hg = head.zero_grads();
        let mut opt = Optimizer::adam(AdamConfig {
            lr: 0.01,
            clip: f32::INFINITY,
            ..AdamConfig::default()
        });
        let (a0, b0) = (cell.w.get(0, 0), cell.w.get(0, 1));
        for _ in 0..3 {
            opt.step(&mut [&mut cell], &[g.clone()], &mut head, &hg)
                .unwrap();
        }
        let da = (a0 - cell.w.get(0, 0)).abs();
        let db = (b0 - cell.w.get(0, 1)).abs();
        assert!(da > 0.0 && db > 0.0);
        assert!(
            da / db < 5.0,
            "Adam steps should be scale-adapted: {da} vs {db}"
        );
    }

    #[test]
    fn optimizer_from_sgd_conversion() {
        let opt: Optimizer = Sgd::default().into();
        assert!(matches!(opt, Optimizer::Sgd(_)));
    }
}
