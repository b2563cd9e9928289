//! Closed-form footprint and DRAM-traffic models of LSTM training.
//!
//! The figure harnesses need footprint/traffic numbers for model shapes up
//! to hidden size 3072 × 8 layers × 303 timesteps × batch 128 — too large
//! to execute tensor-by-tensor on a CPU. This module provides the
//! closed-form equivalents of what the instrumented training framework
//! measures, for both the baseline flow and the MS1/MS2-optimized flows.
//! The small-scale instrumented runs (see `eta-lstm-core`) validate these
//! forms; the harness then applies them at paper scale.
//!
//! # Calibration
//!
//! Three constants are calibrated against the paper's own
//! characterization rather than derived from first principles, because
//! they stand in for GPU library behavior (kernel fusion, L2 persistence)
//! the paper measured but did not publish:
//!
//! - `INT_TRAFFIC_FACTOR` — DRAM touches per stored intermediate
//!   element (1 write + reads from its multiple BP consumers). Set to
//!   2.31 so that the intermediate/activation traffic ratio equals the
//!   paper's measured 4.34× average (Fig. 4) at the characterization
//!   anchor (3 layers): per timestep the five stored intermediates per
//!   layer move `5·3·2.31` units against the activations'
//!   `(3+1)·2.0`, and `(15·2.31)/(4·2.0) = 4.33`.
//! - `ACT_TRAFFIC_FACTOR` — one write during FW plus one read during
//!   BP for every stored activation element.
//! - `LstmShape::weight_miss_fraction` — the fraction of a layer's weights
//!   refetched from DRAM per timestep, `0.01 · min(1, wu/24 MiB)`,
//!   reflecting L2 persistence of weight tiles across timesteps. The
//!   value reproduces the paper's observed ≈1.08× parameter/activation
//!   traffic ratio at the H1024 operating point.

use serde::{Deserialize, Serialize};

/// Bytes per `f32` element.
pub const BYTES_F32: u64 = 4;

/// Intermediate variables stored per LSTM cell by the baseline flow:
/// `i_t, f_t, c_t, o_t, s_t` (paper Sec. III-B).
pub(crate) const STORED_INTERMEDIATES_PER_CELL: u64 = 5;

/// Compressed BP-EW-P1 streams stored per cell by MS1:
/// `p_i, p_f, p_c, p_o, p_h, p_s` (see `eta-lstm-core::ms1`).
pub(crate) const P1_STREAMS_PER_CELL: u64 = 6;

/// DRAM touches per stored-intermediate element (calibrated; see module
/// docs).
pub(crate) const INT_TRAFFIC_FACTOR: f64 = 2.31;

/// DRAM touches per stored-activation element (write in FW + read in BP).
pub(crate) const ACT_TRAFFIC_FACTOR: f64 = 2.0;

/// Effective L2 budget available for persisting weight tiles across
/// timesteps (bytes). Modeled on the V100's 6 MiB L2 plus register-file
/// persistence techniques; see module docs for calibration.
pub(crate) const WEIGHT_L2_BUDGET: f64 = 24.0 * 1024.0 * 1024.0;

/// Maximum per-timestep weight refetch fraction (calibrated; see module
/// docs).
pub(crate) const WEIGHT_MISS_MAX: f64 = 0.01;

/// Bitmap-index overhead per element of a compressed stream, in bytes
/// (1 presence bit per element).
pub(crate) const BITMAP_BITS_PER_ELEMENT: f64 = 1.0 / 8.0;

/// Fraction of skipped-cell activation bytes actually elided by MS2.
/// `x_t` of a skipped cell is never needed again, but `h_t` may still be
/// consumed by a neighboring kept cell's weight-gradient computation, so
/// only about two thirds of a skipped cell's activation volume disappears.
pub(crate) const MS2_ACT_SKIP_SHARE: f64 = 2.0 / 3.0;

/// Shape of an LSTM training workload, sufficient to evaluate the
/// footprint/traffic/compute models.
///
/// # Example
///
/// ```
/// use eta_memsim::model::LstmShape;
///
/// let ptb = LstmShape::new(1536, 1536, 4, 35, 128);
/// assert!(ptb.weight_bytes() > 0);
/// assert!(ptb.intermediate_bytes() > ptb.activation_bytes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LstmShape {
    /// Feature size of the first layer's input.
    pub(crate) input_size: usize,
    /// Hidden size `H` (gate width; weight matrices are `4H × in` and
    /// `4H × H`).
    pub hidden: usize,
    /// Number of stacked LSTM layers (paper "layer number", LN).
    pub layers: usize,
    /// Unrolled timesteps per layer (paper "layer length", LL).
    pub seq_len: usize,
    /// Minibatch size (the paper evaluates with 128).
    pub batch: usize,
}

impl LstmShape {
    /// Creates a shape. Any dimension may be small (for tests) or
    /// paper-scale.
    pub fn new(
        input_size: usize,
        hidden: usize,
        layers: usize,
        seq_len: usize,
        batch: usize,
    ) -> Self {
        LstmShape {
            input_size,
            hidden,
            layers,
            seq_len,
            batch,
        }
    }

    /// Input feature size seen by layer `l` (the first layer reads the
    /// embedding; deeper layers read the previous layer's `h`).
    pub(crate) fn layer_input(&self, l: usize) -> usize {
        if l == 0 {
            self.input_size
        } else {
            self.hidden
        }
    }

    /// Parameter bytes of layer `l`: `W[4H × in] + U[4H × H] + b[4H]`.
    pub fn layer_weight_bytes(&self, l: usize) -> u64 {
        let h = self.hidden as u64;
        let inp = self.layer_input(l) as u64;
        (4 * h * inp + 4 * h * h + 4 * h) * BYTES_F32
    }

    /// Total parameter bytes across all layers.
    pub fn weight_bytes(&self) -> u64 {
        (0..self.layers).map(|l| self.layer_weight_bytes(l)).sum()
    }

    /// Bytes of stored activations per training iteration: the first
    /// layer's input sequence plus every layer's `h` sequence.
    pub fn activation_bytes(&self) -> u64 {
        let per_step = self.input_size as u64 + (self.layers * self.hidden) as u64;
        per_step * (self.seq_len * self.batch) as u64 * BYTES_F32
    }

    /// Bytes of stored forward intermediates per iteration (baseline
    /// flow): five `H`-wide tensors per cell.
    pub fn intermediate_bytes(&self) -> u64 {
        STORED_INTERMEDIATES_PER_CELL
            * (self.layers * self.seq_len * self.batch * self.hidden) as u64
            * BYTES_F32
    }

    /// Total number of LSTM cells in the unrolled graph.
    pub fn cells(&self) -> u64 {
        (self.layers * self.seq_len) as u64
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn forward_macs(&self) -> u64 {
        let h = self.hidden as u64;
        let b = self.batch as u64;
        (0..self.layers)
            .map(|l| {
                let inp = self.layer_input(l) as u64;
                self.seq_len as u64 * b * 4 * h * (inp + h)
            })
            .sum()
    }

    /// Element-wise operation count of one forward pass (gate
    /// activations, state and output updates — about 9 ops per hidden
    /// element per cell).
    pub(crate) fn forward_ew_ops(&self) -> u64 {
        9 * (self.layers * self.seq_len * self.batch * self.hidden) as u64
    }

    /// Total floating-point operations of one training iteration.
    ///
    /// One MAC counts as two FLOPs. Backpropagation performs two GEMMs of
    /// the forward size (input gradients and weight gradients), so
    /// training ≈ 3× forward GEMM work, plus the element-wise work in
    /// both directions.
    pub fn training_flops(&self) -> u64 {
        6 * self.forward_macs() + 3 * self.forward_ew_ops()
    }

    /// Per-timestep fraction of layer `l`'s weights refetched from DRAM
    /// (L2-persistence model; see module docs).
    pub(crate) fn weight_miss_fraction(&self, l: usize) -> f64 {
        let wu = self.layer_weight_bytes(l) as f64;
        WEIGHT_MISS_MAX * (wu / WEIGHT_L2_BUDGET).min(1.0)
    }
}

/// Memory footprint split by category, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FootprintBreakdown {
    /// Weight matrices and their gradient buffers.
    pub weights: u64,
    /// Stored activations.
    pub activations: u64,
    /// Stored forward intermediates (or their compressed replacements).
    pub intermediates: u64,
}

impl FootprintBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.activations + self.intermediates
    }

    /// Intermediates share of the total, in `[0, 1]`.
    pub fn intermediate_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.intermediates as f64 / self.total() as f64
        }
    }
}

/// DRAM traffic split by category, in bytes per training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficBreakdown {
    /// Weight matrix fetches plus gradient write-back.
    pub weights: u64,
    /// Activation stores and BP reloads.
    pub activations: u64,
    /// Intermediate-variable stores and BP reloads.
    pub intermediates: u64,
}

impl TrafficBreakdown {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.weights + self.activations + self.intermediates
    }

    /// Intermediate-to-activation traffic ratio (the paper's headline
    /// 4.34× average).
    pub fn int_to_act_ratio(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.intermediates as f64 / self.activations as f64
        }
    }
}

/// Measured effects of the software optimizations, produced by the
/// instrumented training runs and consumed by the scaled models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptEffects {
    /// Whether MS1 (cell-level variable reduction) is active.
    pub ms1: bool,
    /// Whether MS2 (BP cell skipping) is active.
    pub ms2: bool,
    /// Post-pruning density of the BP-EW-P1 streams, in `[0, 1]`
    /// (paper Fig. 6 implies ≈0.35 at threshold 0.1). Ignored unless
    /// `ms1`.
    pub p1_density: f64,
    /// Fraction of BP cells skipped by the Eq. 4 predictor, in `[0, 1]`.
    /// Ignored unless `ms2`.
    pub skip_fraction: f64,
    /// Whether MS3 (recompute checkpointing + narrow storage) is active.
    pub ms3: bool,
    /// MS3 checkpoint interval `k`: only every k-th cell's record stays
    /// in the tape; the rest are recomputed in BP. Ignored unless `ms3`.
    pub ms3_k: usize,
    /// Bytes per stored element under the MS3 storage precision
    /// (4 = f32, 2 = bf16/f16). Ignored unless `ms3`.
    pub ms3_bytes_per_element: u64,
}

impl OptEffects {
    /// The unoptimized baseline.
    pub fn baseline() -> Self {
        OptEffects {
            ms1: false,
            ms2: false,
            p1_density: 1.0,
            skip_fraction: 0.0,
            ms3: false,
            ms3_k: 1,
            ms3_bytes_per_element: BYTES_F32,
        }
    }

    /// MS1 only, with a measured P1 density.
    pub fn ms1(p1_density: f64) -> Self {
        OptEffects {
            ms1: true,
            p1_density,
            ..Self::baseline()
        }
    }

    /// MS2 only, with a measured skip fraction.
    pub fn ms2(skip_fraction: f64) -> Self {
        OptEffects {
            ms2: true,
            skip_fraction,
            ..Self::baseline()
        }
    }

    /// Both paper optimizations (the paper's "Combine-MS").
    pub fn combined(p1_density: f64, skip_fraction: f64) -> Self {
        OptEffects {
            ms1: true,
            ms2: true,
            p1_density,
            skip_fraction,
            ..Self::baseline()
        }
    }

    /// MS3 only: checkpoint interval `k`, storing
    /// `bytes_per_element`-wide elements (4 = f32, 2 = bf16/f16).
    pub fn ms3(k: usize, bytes_per_element: u64) -> Self {
        Self::baseline().with_ms3(k, bytes_per_element)
    }

    /// Composes MS3 onto any existing effect set (e.g.
    /// `OptEffects::combined(d, s).with_ms3(4, 2)` for the full
    /// three-way composition).
    pub fn with_ms3(mut self, k: usize, bytes_per_element: u64) -> Self {
        self.ms3 = true;
        self.ms3_k = k.max(1);
        self.ms3_bytes_per_element = bytes_per_element;
        self
    }

    /// Per-element byte ratio of MS1's compressed intermediates relative
    /// to the baseline's dense ones: six bitmap-indexed sparse streams at
    /// density `d` replacing five dense streams:
    /// `(6/5) · (1/32 + d)`, clamped at 1 — when pruning removes too
    /// little, the DMA's "Sparse?" fork (paper Fig. 14) falls back to
    /// storing the dense baseline streams, so compression never costs
    /// more than the baseline.
    pub fn ms1_intermediate_ratio(&self) -> f64 {
        if !self.ms1 {
            return 1.0;
        }
        let per_element =
            (BITMAP_BITS_PER_ELEMENT + self.p1_density * BYTES_F32 as f64) / BYTES_F32 as f64;
        ((P1_STREAMS_PER_CELL as f64 / STORED_INTERMEDIATES_PER_CELL as f64) * per_element).min(1.0)
    }

    /// Fraction of cells whose BP (and FW intermediate storage) survives
    /// MS2.
    pub fn kept_fraction(&self) -> f64 {
        if self.ms2 {
            1.0 - self.skip_fraction
        } else {
            1.0
        }
    }

    /// Per-element byte ratio of the MS3 storage precision relative to
    /// f32 (`1.0` when MS3 is off, `0.5` for bf16/f16).
    pub(crate) fn ms3_storage_ratio(&self) -> f64 {
        if self.ms3 {
            self.ms3_bytes_per_element as f64 / BYTES_F32 as f64
        } else {
            1.0
        }
    }

    /// Fraction of cell records the MS3 tape keeps (`1/k`; `1.0` when
    /// MS3 is off).
    pub(crate) fn ms3_tape_fraction(&self) -> f64 {
        if self.ms3 {
            1.0 / self.ms3_k.max(1) as f64
        } else {
            1.0
        }
    }

    /// Fraction of cells BP must recompute under MS3 (`1 − 1/k`; `0.0`
    /// when MS3 is off).
    pub(crate) fn ms3_recompute_fraction(&self) -> f64 {
        1.0 - self.ms3_tape_fraction()
    }
}

/// Footprint of one training iteration under the given optimizations.
///
/// Weight footprint counts the parameters once: gradients accumulate
/// into per-layer transient buffers that are folded into the update and
/// do not contribute to the high-water mark the paper's Fig. 5 reports.
/// MS1 replaces the dense intermediates with compressed P1 streams;
/// MS2 removes stored state for skipped cells. MS3 narrows every stored
/// activation/intermediate element to the storage precision and keeps
/// only every k-th cell record in the tape (hidden states stay resident
/// — they seed recompute — so activations shrink by the precision ratio
/// only, while intermediates additionally shrink by `1/k`).
pub fn footprint(shape: &LstmShape, eff: &OptEffects) -> FootprintBreakdown {
    let act_keep = 1.0 - (1.0 - eff.kept_fraction()) * MS2_ACT_SKIP_SHARE;
    let narrow = eff.ms3_storage_ratio();
    FootprintBreakdown {
        weights: shape.weight_bytes(),
        activations: scale(shape.activation_bytes(), act_keep * narrow),
        intermediates: scale(
            shape.intermediate_bytes(),
            eff.ms1_intermediate_ratio() * eff.kept_fraction() * eff.ms3_tape_fraction() * narrow,
        ),
    }
}

/// DRAM traffic of one training iteration under the given optimizations.
///
/// - **Weights**: per-timestep refetch of the non-L2-resident fraction in
///   both FW and BP, plus one gradient write-back of the full parameter
///   size. MS1 lets BP-MatMul skip weight columns whose gate-gradient
///   operand was pruned (density factor); MS2 removes the BP fetches of
///   skipped cells. Both reductions apply to the BP half of the traffic.
/// - **Activations**: one store + one BP load per element; MS2 elides
///   `MS2_ACT_SKIP_SHARE` of a skipped cell's volume.
/// - **Intermediates**: `INT_TRAFFIC_FACTOR` touches per element;
///   MS1 swaps in the compressed streams, MS2 removes skipped cells.
/// - **MS3**: stored elements narrow to the storage precision and only
///   `1/k` of cell records hit the tape; in exchange, BP re-streams the
///   FW weight fetch and re-reads the seed activations for the `1−1/k`
///   recomputed cells. Recomputed intermediates live in the workspace
///   (cache-resident) and add no DRAM traffic.
pub fn traffic(shape: &LstmShape, eff: &OptEffects) -> TrafficBreakdown {
    // Weights: streaming refetch (FW + BP halves) + gradient write-back.
    let mut stream = 0.0f64;
    for l in 0..shape.layers {
        let per_phase = shape.seq_len as f64
            * shape.layer_weight_bytes(l) as f64
            * shape.weight_miss_fraction(l);
        stream += 2.0 * per_phase;
    }
    let grad = shape.weight_bytes() as f64;
    // BP-half scaling from MS1 sparsity and MS2 skipping.
    let bp_scale = if eff.ms1 { eff.p1_density } else { 1.0 } * eff.kept_fraction();
    let recompute = eff.ms3_recompute_fraction();
    // MS3 recompute replays the FW weight stream for dropped cells.
    let weight_traffic =
        stream * (0.5 + 0.5 * bp_scale) + grad * (0.5 + 0.5 * bp_scale) + stream * 0.5 * recompute;

    let act_keep = 1.0 - (1.0 - eff.kept_fraction()) * MS2_ACT_SKIP_SHARE;
    let narrow = eff.ms3_storage_ratio();
    // Store + BP load of narrowed activations, plus one extra seed read
    // per recomputed cell.
    let act_traffic =
        shape.activation_bytes() as f64 * (ACT_TRAFFIC_FACTOR + recompute) * act_keep * narrow;

    let int_base = shape.intermediate_bytes() as f64;
    let ms3_int = eff.ms3_tape_fraction() * narrow;
    let int_traffic = if eff.ms1 {
        // Compressed P1 streams: one store + one load each, plus the
        // residual dense echo of the sparse gate gradients flowing into
        // BP-MatMul (scales with density).
        let compressed = int_base * eff.ms1_intermediate_ratio() * 2.0;
        let echo = int_base * 0.3 * eff.p1_density;
        (compressed + echo) * eff.kept_fraction() * ms3_int
    } else {
        int_base * INT_TRAFFIC_FACTOR * eff.kept_fraction() * ms3_int
    };

    TrafficBreakdown {
        weights: weight_traffic as u64,
        activations: act_traffic as u64,
        intermediates: int_traffic as u64,
    }
}

fn scale(bytes: u64, factor: f64) -> u64 {
    (bytes as f64 * factor) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h1024() -> LstmShape {
        LstmShape::new(1024, 1024, 3, 35, 128)
    }

    #[test]
    fn weight_bytes_match_hand_computation() {
        let s = LstmShape::new(8, 4, 2, 3, 1);
        // layer0: 4*4*8 + 4*4*4 + 4*4 = 128+64+16 = 208 elems
        // layer1: 4*4*4 + 4*4*4 + 16 = 144 elems
        assert_eq!(s.weight_bytes(), (208 + 144) * 4);
    }

    #[test]
    fn intermediate_bytes_use_five_streams() {
        let s = LstmShape::new(8, 4, 2, 3, 2);
        assert_eq!(s.intermediate_bytes(), 5 * 2 * 3 * 2 * 4 * 4);
    }

    #[test]
    fn baseline_int_to_act_ratio_matches_paper() {
        // With input_size == hidden, activations per step are
        // (1 + layers)·H vs intermediates 5·layers·H; the traffic factors
        // are calibrated to give ≈4.34 at the paper's 3-layer config
        // where act ≈ (4/3)·layers·H.
        let t = traffic(&h1024(), &OptEffects::baseline());
        let ratio = t.int_to_act_ratio();
        assert!(
            (3.0..6.0).contains(&ratio),
            "intermediate/activation traffic ratio {ratio} out of paper band"
        );
    }

    #[test]
    fn baseline_param_to_act_ratio_near_unity_at_h1024() {
        let t = traffic(&h1024(), &OptEffects::baseline());
        let ratio = t.weights as f64 / t.activations as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "parameter/activation traffic ratio {ratio} far from the paper's ≈1.08"
        );
    }

    #[test]
    fn intermediates_dominate_footprint_at_scale() {
        let f = footprint(&h1024(), &OptEffects::baseline());
        let share = f.intermediate_share();
        assert!(
            (0.30..0.80).contains(&share),
            "intermediate footprint share {share} out of paper band (avg 47.18 %)"
        );
    }

    #[test]
    fn ms1_shrinks_intermediates_only() {
        let base = footprint(&h1024(), &OptEffects::baseline());
        let ms1 = footprint(&h1024(), &OptEffects::ms1(0.35));
        assert!(ms1.intermediates < base.intermediates / 2);
        assert_eq!(ms1.activations, base.activations);
        assert_eq!(ms1.weights, base.weights);
    }

    #[test]
    fn ms1_keeps_activation_traffic() {
        let base = traffic(&h1024(), &OptEffects::baseline());
        let ms1 = traffic(&h1024(), &OptEffects::ms1(0.35));
        assert_eq!(ms1.activations, base.activations);
        assert!(ms1.intermediates < base.intermediates);
        assert!(ms1.weights < base.weights);
    }

    #[test]
    fn ms2_reduces_all_three_categories() {
        let base = traffic(&h1024(), &OptEffects::baseline());
        let ms2 = traffic(&h1024(), &OptEffects::ms2(0.49));
        assert!(ms2.weights < base.weights);
        assert!(ms2.activations < base.activations);
        assert!(ms2.intermediates < base.intermediates);
        // Weight reduction ≈ σ/2 ≈ 24.5 %.
        let wred = 1.0 - ms2.weights as f64 / base.weights as f64;
        assert!((0.15..0.35).contains(&wred), "weight reduction {wred}");
        // Intermediate reduction ≈ σ ≈ 49 %.
        let ired = 1.0 - ms2.intermediates as f64 / base.intermediates as f64;
        assert!(
            (0.40..0.60).contains(&ired),
            "intermediate reduction {ired}"
        );
    }

    #[test]
    fn combined_intermediate_traffic_reduction_near_eighty_percent() {
        let base = traffic(&h1024(), &OptEffects::baseline());
        let comb = traffic(&h1024(), &OptEffects::combined(0.35, 0.49));
        let red = 1.0 - comb.intermediates as f64 / base.intermediates as f64;
        assert!(
            (0.70..0.95).contains(&red),
            "combined intermediate traffic reduction {red}, paper reports 80.04 %"
        );
    }

    #[test]
    fn combined_footprint_reduction_in_paper_band() {
        let base = footprint(&h1024(), &OptEffects::baseline());
        let comb = footprint(&h1024(), &OptEffects::combined(0.30, 0.55));
        let red = 1.0 - comb.total() as f64 / base.total() as f64;
        assert!(
            (0.30..0.75).contains(&red),
            "combined footprint reduction {red}, paper avg 57.52 %"
        );
    }

    #[test]
    fn flops_scale_with_dimensions() {
        let small = LstmShape::new(64, 64, 1, 4, 2);
        let wide = LstmShape::new(64, 128, 1, 4, 2);
        let deep = LstmShape::new(64, 64, 2, 4, 2);
        assert!(wide.training_flops() > 2 * small.training_flops());
        assert!(deep.training_flops() > small.training_flops());
    }

    #[test]
    fn effects_constructors() {
        assert!(!OptEffects::baseline().ms1);
        assert!(OptEffects::ms1(0.3).ms1);
        assert!(OptEffects::ms2(0.4).ms2);
        let c = OptEffects::combined(0.3, 0.4);
        assert!(c.ms1 && c.ms2);
        assert!((OptEffects::baseline().ms1_intermediate_ratio() - 1.0).abs() < 1e-12);
        assert!((OptEffects::ms2(0.4).kept_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ms3_tape_scales_inverse_k_and_precision() {
        let base = footprint(&h1024(), &OptEffects::baseline());
        // f32 storage, k=4: intermediates shrink to exactly 1/4.
        let ckpt = footprint(&h1024(), &OptEffects::ms3(4, 4));
        assert_eq!(ckpt.intermediates, base.intermediates / 4);
        assert_eq!(ckpt.activations, base.activations);
        // bf16 storage, k=4: a further halving everywhere that stores.
        let narrow = footprint(&h1024(), &OptEffects::ms3(4, 2));
        assert_eq!(narrow.intermediates, base.intermediates / 8);
        assert_eq!(narrow.activations, base.activations / 2);
        assert_eq!(narrow.weights, base.weights);
    }

    #[test]
    fn ms3_f32_k1_is_footprint_and_traffic_noop() {
        let eff = OptEffects::ms3(1, 4);
        assert_eq!(
            footprint(&h1024(), &eff),
            footprint(&h1024(), &OptEffects::baseline())
        );
        assert_eq!(
            traffic(&h1024(), &eff),
            traffic(&h1024(), &OptEffects::baseline())
        );
    }

    #[test]
    fn ms3_recompute_costs_weight_traffic() {
        let base = traffic(&h1024(), &OptEffects::baseline());
        let ms3 = traffic(&h1024(), &OptEffects::ms3(4, 2));
        // Replayed FW weight stream makes weight traffic strictly worse…
        assert!(ms3.weights > base.weights);
        // …in exchange for large intermediate/activation savings.
        assert!(ms3.intermediates < base.intermediates / 4);
        assert!(ms3.total() < base.total());
    }

    #[test]
    fn ms3_composes_with_combined_ms() {
        let shape = h1024();
        let parts = [
            footprint(&shape, &OptEffects::combined(0.35, 0.49)),
            footprint(&shape, &OptEffects::ms3(4, 2)),
        ];
        let all = footprint(&shape, &OptEffects::combined(0.35, 0.49).with_ms3(4, 2));
        // The three-way composition never exceeds any single component's
        // footprint: the savings multiply per category.
        for p in &parts {
            assert!(all.total() <= p.total());
            assert!(all.intermediates <= p.intermediates);
            assert!(all.activations <= p.activations);
        }
    }

    #[test]
    fn footprint_grows_with_every_dimension() {
        let base = footprint(&h1024(), &OptEffects::baseline()).total();
        for s in [
            LstmShape::new(1024, 2048, 3, 35, 128),
            LstmShape::new(1024, 1024, 4, 35, 128),
            LstmShape::new(1024, 1024, 3, 100, 128),
            LstmShape::new(1024, 1024, 3, 35, 256),
        ] {
            assert!(footprint(&s, &OptEffects::baseline()).total() > base);
        }
    }
}
