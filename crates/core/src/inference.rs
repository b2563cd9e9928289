//! Streaming inference: feed one timestep at a time with carried
//! recurrent state — the deployment-style API (online tracking,
//! incremental decoding) complementing the batch
//! [`LstmModel::forward_inference`].
//!
//! The streaming path must produce exactly the same outputs as the
//! batch path when fed the same sequence — a property the tests check.

use crate::cell::{self, CellForward};
use crate::layer::Instruments;
use crate::model::LstmModel;
use crate::workspace::ModelPanels;
use crate::{LstmError, Result};
use eta_tensor::{Matrix, ParallelConfig};

/// Carried recurrent state (`h`, `s` per layer) for streaming
/// inference.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamingState {
    h: Vec<Matrix>,
    s: Vec<Matrix>,
}

impl StreamingState {
    /// Zero state for `model` at the given batch size.
    pub(crate) fn zeros(model: &LstmModel, batch: usize) -> Self {
        let hidden = model.config().hidden_size;
        let layers = model.config().layers;
        StreamingState {
            h: (0..layers).map(|_| Matrix::zeros(batch, hidden)).collect(),
            s: (0..layers).map(|_| Matrix::zeros(batch, hidden)).collect(),
        }
    }

    /// Batch size this state carries.
    pub(crate) fn batch(&self) -> usize {
        self.h.first().map(Matrix::rows).unwrap_or(0)
    }

    /// The hidden state of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[cfg(test)]
    pub(crate) fn hidden(&self, l: usize) -> &Matrix {
        assert!(l < self.h.len(), "layer index out of range");
        &self.h[l]
    }
}

/// A model plus carried state, stepping one timestep at a time.
#[derive(Debug, Clone)]
pub struct StreamingSession<'a> {
    model: &'a LstmModel,
    state: StreamingState,
    /// The model's weights packed once at session open (the session
    /// borrows the model, so they cannot go stale).
    panels: ModelPanels,
    /// Reused preactivation buffer, cell record and (unobserved) hooks.
    preact: Matrix,
    fw: CellForward,
    instruments: Instruments,
}

impl<'a> StreamingSession<'a> {
    /// Opens a session with zero state at `batch` size.
    pub fn new(model: &'a LstmModel, batch: usize) -> Self {
        StreamingSession {
            state: StreamingState::zeros(model, batch),
            panels: ModelPanels::pack_with(model, &ParallelConfig::serial()),
            preact: Matrix::zeros(0, 0),
            fw: CellForward::empty(),
            instruments: Instruments::new(),
            model,
        }
    }

    /// The carried state (e.g. to checkpoint mid-stream).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &StreamingState {
        &self.state
    }

    /// Consumes one timestep `[batch, input]` and returns the head
    /// logits `[batch, out]`.
    ///
    /// # Errors
    ///
    /// Returns [`LstmError::BatchShape`] if `x` does not match the
    /// model's input width or the session's batch size.
    pub fn step(&mut self, x: &Matrix) -> Result<Matrix> {
        let cfg = self.model.config();
        if x.cols() != cfg.input_size || x.rows() != self.state.batch() {
            return Err(LstmError::BatchShape {
                detail: format!(
                    "step input {}x{}, expected {}x{}",
                    x.rows(),
                    x.cols(),
                    self.state.batch(),
                    cfg.input_size
                ),
            });
        }
        let kernel = ParallelConfig::serial();
        let StreamingState { h, s } = &mut self.state;
        let layers = self.model.layers().iter().zip(&self.panels.layers);
        for (l, ((layer, panels), s_l)) in layers.zip(s.iter_mut()).enumerate() {
            // Layer l reads this timestep's output of layer l − 1,
            // already swapped into the state below.
            let (below, at) = h.split_at_mut(l);
            let Some(h_l) = at.first_mut() else {
                unreachable!("one state slot per layer")
            };
            cell::forward_ws(
                &layer.params,
                panels,
                below.last().unwrap_or(x),
                h_l,
                s_l,
                &kernel,
                &mut self.preact,
                &self.instruments,
                &mut self.fw,
            )?;
            std::mem::swap(h_l, &mut self.fw.h);
            std::mem::swap(s_l, &mut self.fw.s);
        }
        self.model.head().forward(h.last().unwrap_or(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LstmConfig;
    use eta_tensor::init;

    fn model() -> LstmModel {
        let cfg = LstmConfig::builder()
            .input_size(6)
            .hidden_size(8)
            .layers(2)
            .seq_len(5)
            .batch_size(3)
            .output_size(4)
            .build()
            .unwrap();
        LstmModel::new(&cfg, 31)
    }

    fn sequence(model: &LstmModel) -> Vec<Matrix> {
        let cfg = model.config();
        (0..cfg.seq_len)
            .map(|t| init::uniform(cfg.batch_size, cfg.input_size, -1.0, 1.0, 60 + t as u64))
            .collect()
    }

    #[test]
    fn streaming_matches_batch_inference() {
        let m = model();
        let xs = sequence(&m);
        let batch_out = m.forward_inference(&xs).unwrap();
        let mut session = StreamingSession::new(&m, 3);
        for (t, x) in xs.iter().enumerate() {
            let logits = session.step(x).unwrap();
            assert_eq!(logits, batch_out[t], "divergence at t={t}");
        }
    }

    #[test]
    fn state_carries_information_between_steps() {
        let m = model();
        let xs = sequence(&m);
        let mut session = StreamingSession::new(&m, 3);
        let fresh = session.step(&xs[0]).unwrap();
        // Same input after history must differ (the state matters).
        session.step(&xs[1]).unwrap();
        let with_history = session.step(&xs[0]).unwrap();
        assert_ne!(fresh, with_history);
        assert_eq!(session.state().batch(), 3);
        assert_eq!(session.state().hidden(0).cols(), 8);
    }

    #[test]
    fn wrong_shapes_are_rejected() {
        let m = model();
        let mut session = StreamingSession::new(&m, 3);
        assert!(session.step(&Matrix::zeros(3, 7)).is_err());
        assert!(session.step(&Matrix::zeros(2, 6)).is_err());
    }
}
