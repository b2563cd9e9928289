//! The roofline-plus-overheads GPU performance and energy model.
//!
//! Time per training iteration decomposes into:
//!
//! - **GEMM time** — executed GEMM FLOPs over peak FLOPS scaled by a
//!   parallelism-efficiency curve that saturates with hidden size
//!   (ALU saturation, paper Fig. 3a);
//! - **memory time** — total DRAM bytes (the named tensors from
//!   `eta-memsim` plus GEMM streaming traffic) over effective bandwidth,
//!   half-overlapped with compute (unfused kernels serialize part of
//!   it);
//! - **per-cell stall** — kernel-launch and memory-system overhead per
//!   executed cell, growing with the live footprint (allocator, paging
//!   and row-locality pressure) — the term behind the layer-length
//!   throughput decline of Fig. 3c.
//!
//! Energy adds static power, per-FLOP energy, and per-byte energy whose
//! effective cost grows with the live footprint (row-activation
//! locality), which reproduces the energy-efficiency declines of
//! Figs. 3a–c.
//!
//! # How the software optimizations map onto a GPU
//!
//! MS2 removes whole BP cells — coarse-grained work a GPU exploits
//! directly, so it scales both compute and traffic. MS1's fine-grained
//! value sparsity is *not* convertible into GPU FLOP savings (no
//! hardware support for irregular skipping — the gap the η-LSTM
//! accelerator closes), so on the GPU MS1 only reduces memory traffic.
//! This asymmetry is why the paper's GPU-only speedups are 1.21× (MS1)
//! vs 1.32× (MS2) while the accelerator profits much more.

use crate::device::{EnergyParams, GpuSpec};
use eta_memsim::model::{self, LstmShape, OptEffects};
use serde::{Deserialize, Serialize};

/// Peak fraction of FLOPS reachable by LSTM GEMMs at large hidden size.
pub(crate) const MAX_PARALLEL_EFF: f64 = 0.70;

/// Hidden size at which the parallelism-efficiency curve reaches half of
/// [`MAX_PARALLEL_EFF`] (squared-saturating form), matching the paper's
/// observation that throughput saturates beyond hidden ≈1024.
pub(crate) const HALF_SATURATION_HIDDEN: f64 = 384.0;

/// Per-executed-cell overhead, seconds (kernel launches + sync of the
/// unfused cell kernels).
pub(crate) const CELL_STALL_S: f64 = 1.2e-4;

/// Footprint at which the per-cell stall doubles (bytes).
pub(crate) const STALL_FOOTPRINT_REF: f64 = 1.0 * 1024.0 * 1024.0 * 1024.0;

/// Fraction of peak DRAM bandwidth achieved by the mixed
/// streaming/scattered training traffic.
pub(crate) const BANDWIDTH_EFF: f64 = 0.6;

/// Fraction of memory time hidden under compute (partial overlap of the
/// unfused kernel pipeline).
pub(crate) const MEM_EXPOSED_FRACTION: f64 = 0.8;

/// Footprint at which per-byte DRAM energy doubles (bytes) — the
/// row-locality pressure term.
pub(crate) const ENERGY_FOOTPRINT_REF: f64 = 1.5 * 1024.0 * 1024.0 * 1024.0;

/// Device-memory demand multiplier over the named-tensor footprint:
/// the PyTorch caching allocator, cuDNN GEMM workspaces, double-buffered
/// gradient storage, and fragmentation. Calibrated so that — as the
/// paper reports for Fig. 3b — the 7-layer H2048 model no longer fits a
/// 16 GB RTX 5000 while the 6-layer one still does.
pub(crate) const RUNTIME_DEMAND_FACTOR: f64 = 7.0;

/// Model outputs for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuEstimate {
    /// Iteration latency, seconds.
    pub time_s: f64,
    /// GEMM compute time, seconds.
    pub(crate) t_gemm_s: f64,
    /// Exposed memory time, seconds.
    pub(crate) t_mem_s: f64,
    /// Per-cell stall time, seconds.
    pub(crate) t_stall_s: f64,
    /// Achieved throughput over executed FLOPs, TFLOPS.
    pub tflops: f64,
    /// Iteration energy, joules.
    pub energy_j: f64,
    /// Energy efficiency, GFLOPS/W (= executed GFLOPs per joule).
    pub gflops_per_watt: f64,
    /// Peak memory footprint, bytes.
    pub(crate) footprint_bytes: u64,
    /// Total DRAM traffic (named tensors + GEMM streaming), bytes.
    pub(crate) traffic_bytes: u64,
    /// Whether the footprint fits in device memory — the paper's
    /// 7/8-layer models do not fit the 16 GB RTX 5000 (Fig. 3b).
    pub fits: bool,
}

/// An analytic GPU executing LSTM training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    spec: GpuSpec,
    energy: EnergyParams,
}

impl GpuModel {
    /// Builds a model with memory-technology-appropriate energy defaults
    /// (HBM2 parameters for >700 GB/s parts, GDDR6 otherwise).
    pub fn new(spec: GpuSpec) -> Self {
        let energy = if spec.mem_bw_gbs > 700.0 {
            EnergyParams::hbm2()
        } else {
            EnergyParams::gddr6()
        };
        GpuModel { spec, energy }
    }

    /// Parallelism efficiency at hidden size `h`:
    /// `MAX · h²/(h² + h½²)`.
    pub(crate) fn parallel_efficiency(h: usize) -> f64 {
        let h2 = (h as f64) * (h as f64);
        let half2 = HALF_SATURATION_HIDDEN * HALF_SATURATION_HIDDEN;
        MAX_PARALLEL_EFF * h2 / (h2 + half2)
    }

    /// GEMM streaming DRAM traffic per iteration: every executed cell
    /// streams its layer's weights once per pass (FW one pass, BP two),
    /// plus its activation-sized inputs/outputs. MS1 lets the BP passes
    /// skip pruned-operand columns (density factor); MS2 removes the BP
    /// passes of skipped cells.
    pub(crate) fn gemm_stream_bytes(shape: &LstmShape, eff: &OptEffects) -> u64 {
        let kept = eff.kept_fraction();
        let rho = if eff.ms1 { eff.p1_density } else { 1.0 };
        let io_per_cell = (shape.batch * shape.hidden * 8 * model::BYTES_F32 as usize) as f64;
        let mut total = 0.0f64;
        for l in 0..shape.layers {
            let wu = shape.layer_weight_bytes(l) as f64;
            let passes = 1.0 + 2.0 * kept * rho;
            total += shape.seq_len as f64 * (wu * passes + io_per_cell * (1.0 + 2.0 * kept));
        }
        total as u64
    }

    /// Estimates one training iteration of `shape` under the software
    /// optimizations in `eff`.
    pub fn estimate(&self, shape: &LstmShape, eff: &OptEffects) -> GpuEstimate {
        let sigma = 1.0 - eff.kept_fraction();
        // Executed GEMM FLOPs: FW always, BP scaled by MS2 skipping only
        // (MS1 sparsity is not GPU-exploitable as FLOP savings).
        let flops_exec = shape.training_flops() as f64 * (1.0 / 3.0 + 2.0 / 3.0 * (1.0 - sigma));

        let footprint = model::footprint(shape, eff).total();
        let named_traffic = model::traffic(shape, eff).total();
        let traffic = named_traffic + Self::gemm_stream_bytes(shape, eff);

        let par_eff = Self::parallel_efficiency(shape.hidden);
        let t_gemm = flops_exec / (self.spec.peak_tflops * 1e12 * par_eff);

        let t_mem =
            traffic as f64 / (self.spec.mem_bw_gbs * 1e9 * BANDWIDTH_EFF) * MEM_EXPOSED_FRACTION;

        let cells_exec = shape.cells() as f64 * (2.0 - sigma) / 2.0 * 2.0;
        let fp_pressure = 1.0 + footprint as f64 / STALL_FOOTPRINT_REF;
        let t_stall = cells_exec / 2.0 * CELL_STALL_S * fp_pressure;

        let time_s = t_gemm + t_mem + t_stall;

        let e_byte_eff =
            self.energy.joules_per_byte * (1.0 + footprint as f64 / ENERGY_FOOTPRINT_REF);
        let energy_j = self.energy.static_watts * time_s
            + self.energy.joules_per_flop * flops_exec
            + e_byte_eff * traffic as f64;

        GpuEstimate {
            time_s,
            t_gemm_s: t_gemm,
            t_mem_s: t_mem,
            t_stall_s: t_stall,
            tflops: flops_exec / time_s / 1e12,
            energy_j,
            gflops_per_watt: flops_exec / 1e9 / energy_j,
            footprint_bytes: footprint,
            traffic_bytes: traffic,
            fits: (footprint as f64 * RUNTIME_DEMAND_FACTOR) <= self.spec.mem_capacity as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuModel {
        GpuModel::new(GpuSpec::v100())
    }

    fn shape(h: usize, ln: usize, ll: usize) -> LstmShape {
        LstmShape::new(h, h, ln, ll, 128)
    }

    #[test]
    fn throughput_saturates_with_hidden_size() {
        let m = v100();
        let base = OptEffects::baseline();
        let tf: Vec<f64> = [256, 512, 1024, 2048, 3072]
            .iter()
            .map(|&h| m.estimate(&shape(h, 3, 35), &base).tflops)
            .collect();
        // Rising at the start...
        assert!(tf[1] > tf[0] * 1.3, "throughput should climb: {tf:?}");
        assert!(tf[2] > tf[1]);
        // ...then flattening: the last doubling gains little.
        let late_gain = tf[4] / tf[2];
        assert!(
            late_gain < 1.5,
            "throughput should saturate beyond H1024: {tf:?}"
        );
        // Plateau in the paper's observed ballpark (Fig. 3a, ≈6–11 TFLOPS).
        assert!((3.0..13.0).contains(&tf[4]), "plateau {tf:?}");
    }

    #[test]
    fn energy_efficiency_peaks_then_declines_with_hidden_size() {
        let m = v100();
        let base = OptEffects::baseline();
        let eff: Vec<f64> = [256, 1024, 3072]
            .iter()
            .map(|&h| m.estimate(&shape(h, 3, 35), &base).gflops_per_watt)
            .collect();
        assert!(
            eff[1] > eff[0],
            "efficiency climbs to the sweet spot: {eff:?}"
        );
        assert!(
            eff[2] < eff[1],
            "efficiency declines past saturation: {eff:?}"
        );
        assert!(
            (10.0..60.0).contains(&eff[1]),
            "peak {eff:?} out of Fig. 3 band"
        );
    }

    #[test]
    fn throughput_flat_but_efficiency_falls_with_layers() {
        let m = v100();
        let base = OptEffects::baseline();
        let e2 = m.estimate(&shape(2048, 2, 35), &base);
        let e8 = m.estimate(&shape(2048, 8, 35), &base);
        let thpt_ratio = e8.tflops / e2.tflops;
        assert!(
            (0.75..1.25).contains(&thpt_ratio),
            "throughput should be near-flat in layer count: {thpt_ratio}"
        );
        assert!(
            e8.gflops_per_watt < e2.gflops_per_watt,
            "efficiency should fall with layers"
        );
    }

    #[test]
    fn seven_layer_model_overflows_rtx5000() {
        let rtx = GpuModel::new(GpuSpec::rtx5000());
        let base = OptEffects::baseline();
        assert!(rtx.estimate(&shape(2048, 6, 35), &base).fits);
        assert!(!rtx.estimate(&shape(2048, 7, 35), &base).fits);
        // The V100's 32 GB still fits it.
        assert!(v100().estimate(&shape(2048, 7, 35), &base).fits);
    }

    #[test]
    fn throughput_and_efficiency_fall_with_layer_length() {
        let m = v100();
        let base = OptEffects::baseline();
        let short = m.estimate(&shape(1024, 3, 18), &base);
        let long = m.estimate(&shape(1024, 3, 303), &base);
        assert!(
            long.tflops < short.tflops,
            "throughput should fall with layer length: {} vs {}",
            long.tflops,
            short.tflops
        );
        assert!(long.gflops_per_watt < short.gflops_per_watt);
    }

    #[test]
    fn ms2_speeds_up_more_than_ms1_on_gpu() {
        let m = v100();
        // WMT-like long config where both optimizations bite.
        let s = shape(1024, 4, 151);
        let t_base = m.estimate(&s, &OptEffects::baseline()).time_s;
        let t_ms1 = m.estimate(&s, &OptEffects::ms1(0.35)).time_s;
        let t_ms2 = m.estimate(&s, &OptEffects::ms2(0.49)).time_s;
        let t_comb = m.estimate(&s, &OptEffects::combined(0.35, 0.49)).time_s;
        let (s1, s2, sc) = (t_base / t_ms1, t_base / t_ms2, t_base / t_comb);
        assert!(s1 > 1.0, "MS1 GPU speedup {s1}");
        assert!(s2 > s1, "MS2 ({s2}) should beat MS1 ({s1}) on a GPU");
        assert!(sc > s2, "combined ({sc}) should beat MS2 ({s2})");
        assert!(
            (1.05..2.6).contains(&sc),
            "combined GPU speedup {sc} outside the paper's 1.56×(avg)–1.79×(max) band neighborhood"
        );
    }

    #[test]
    fn combined_ms_saves_energy() {
        let m = v100();
        let s = shape(1024, 3, 100);
        let base = m.estimate(&s, &OptEffects::baseline()).energy_j;
        let comb = m.estimate(&s, &OptEffects::combined(0.35, 0.49)).energy_j;
        let saving = 1.0 - comb / base;
        assert!(
            (0.10..0.60).contains(&saving),
            "energy saving {saving} vs paper's 35.26 % average"
        );
    }

    #[test]
    fn v100_beats_rtx5000() {
        let s = shape(2048, 3, 35);
        let base = OptEffects::baseline();
        let v = v100().estimate(&s, &base);
        let r = GpuModel::new(GpuSpec::rtx5000()).estimate(&s, &base);
        assert!(v.tflops > r.tflops);
    }

    #[test]
    fn time_breakdown_sums_to_total() {
        let e = v100().estimate(&shape(1024, 3, 35), &OptEffects::baseline());
        let sum = e.t_gemm_s + e.t_mem_s + e.t_stall_s;
        assert!((sum - e.time_s).abs() < 1e-12);
        assert!(e.t_gemm_s > e.t_mem_s, "GEMM dominates at this scale");
    }

    #[test]
    fn parallel_efficiency_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for h in [64, 128, 256, 512, 1024, 2048, 4096] {
            let e = GpuModel::parallel_efficiency(h);
            assert!(e > prev);
            assert!(e < MAX_PARALLEL_EFF);
            prev = e;
        }
    }
}
