//! The full η-LSTM machine (paper Sec. V-D, Fig. 13a) and the paper's
//! comparison architectures.
//!
//! The simulated assembly follows the paper's evaluation setup: four
//! Xilinx VCU128 boards at 500 MHz, 40 channels × 32 Omni-PEs per board,
//! HBM at 224 GB/s per board, with the training batch split evenly
//! across boards (weights replicated per board). Each Omni-PE's
//! multiplier/adder pair is implemented as a dual-lane DSP group
//! ([`AccelConfig::lanes_per_pe`] = 2), putting the 4-board peak at
//! `4 · 40 · 32 · 2 · 2 FLOPs · 500 MHz ≈ 10.2 TFLOPS` — consistent
//! with the paper's positioning of the four-board assembly against one
//! V100's achieved LSTM-training throughput.
//!
//! Comparison architectures (paper Sec. VI-A):
//!
//! - [`ArchKind::LstmInf`] — an inference-accelerator-style design with
//!   unified heavyweight PEs (every PE carries its own accumulation and
//!   activation logic → ~45 % area overhead → proportionally fewer PEs
//!   in the same budget) and static resource allocation;
//! - [`ArchKind::StaticArch`] — Omni-PEs but a static MatMul/EW
//!   partition (TREC10-derived);
//! - [`ArchKind::DynArch`] — Omni-PEs + the R2A scheduler
//!   (the η-LSTM hardware; run it with MS1/MS2 effects to get the full
//!   η-LSTM system).

use crate::energy::{self, EnergyBreakdown, EnergyConsts, EnergyEvents};
use crate::scheduler::{self, PhaseTiming, Workload, STATIC_EW_FRACTION};
use eta_memsim::model::{self, LstmShape, OptEffects};
use serde::{Deserialize, Serialize};

/// Fraction of the gradient all-reduce exposed on the critical path
/// (the rest overlaps with the tail of backpropagation via per-layer
/// aggregation).
pub(crate) const ALLREDUCE_EXPOSED: f64 = 0.3;

/// Machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// FPGA boards in the assembly.
    pub boards: usize,
    /// Channels per board.
    pub channels_per_board: usize,
    /// Omni-PEs per channel.
    pub pes_per_channel: usize,
    /// Vector lanes per PE (DSP pairing).
    pub lanes_per_pe: usize,
    /// Clock, Hz.
    pub freq_hz: f64,
    /// HBM bandwidth per board, bytes/s.
    pub hbm_bytes_per_sec_per_board: f64,
    /// Scratchpad capacity per board, bytes.
    pub scratchpad_bytes: u64,
    /// Inter-board interconnect bandwidth per board, bytes/s (PCIe-class
    /// host links used for the gradient all-reduce).
    pub interconnect_bytes_per_sec: f64,
}

impl AccelConfig {
    /// The paper's evaluation machine: 4 VCU128 boards, 40 channels
    /// each, 224 GB/s HBM per board.
    pub fn paper_4board() -> Self {
        AccelConfig {
            boards: 4,
            channels_per_board: 40,
            pes_per_channel: 32,
            lanes_per_pe: 2,
            freq_hz: 500e6,
            hbm_bytes_per_sec_per_board: 224e9,
            scratchpad_bytes: 32 * 1024 * 1024,
            interconnect_bytes_per_sec: 32e9,
        }
    }

    /// Total channels across boards.
    pub(crate) fn total_channels(&self) -> usize {
        self.boards * self.channels_per_board
    }

    /// PE operations per cycle across the whole assembly (before any
    /// area scaling).
    pub fn ops_per_cycle(&self) -> f64 {
        (self.total_channels() * self.pes_per_channel * self.lanes_per_pe) as f64
    }

    /// Peak throughput in FLOPS (one MAC = two FLOPs).
    pub fn peak_flops(&self) -> f64 {
        self.ops_per_cycle() * 2.0 * self.freq_hz
    }

    /// Aggregate HBM bandwidth, bytes/s.
    pub(crate) fn total_hbm_bytes_per_sec(&self) -> f64 {
        self.boards as f64 * self.hbm_bytes_per_sec_per_board
    }
}

/// Which architecture variant to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchKind {
    /// Inference-style unified PEs + static allocation
    /// (the paper's "LSTM-Inf", after ESE).
    LstmInf,
    /// Omni-PEs + static allocation.
    StaticArch,
    /// Omni-PEs + R2A dynamic allocation (η-LSTM hardware).
    DynArch,
}

impl ArchKind {
    /// Area overhead of the PE design: the unified PE replicates
    /// accumulation/activation logic per PE.
    pub(crate) fn pe_area_factor(self) -> f64 {
        match self {
            ArchKind::LstmInf => 1.3,
            ArchKind::StaticArch | ArchKind::DynArch => 1.0,
        }
    }

    /// Per-MAC energy overhead of the PE design (larger PEs switch more
    /// logic per operation).
    pub(crate) fn mac_energy_factor(self) -> f64 {
        match self {
            ArchKind::LstmInf => 1.8,
            ArchKind::StaticArch | ArchKind::DynArch => 1.0,
        }
    }

    /// Whether the R2A dynamic scheduler is available.
    pub(crate) fn dynamic(self) -> bool {
        matches!(self, ArchKind::DynArch)
    }

    /// Paper display name.
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::LstmInf => "LSTM-Inf",
            ArchKind::StaticArch => "Static-Arch",
            ArchKind::DynArch => "Dyn-Arch",
        }
    }
}

/// Output of one simulated training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelReport {
    /// Iteration latency, seconds.
    pub time_s: f64,
    /// Compute makespan, cycles.
    pub(crate) compute_cycles: f64,
    /// DMA transfer time, seconds.
    pub(crate) dma_time_s: f64,
    /// Exposed (non-overlapped) inter-board gradient all-reduce time,
    /// seconds (0 for a single board).
    pub(crate) allreduce_time_s: f64,
    /// PE utilization over the compute makespan, `[0, 1]`.
    pub utilization: f64,
    /// Total HBM traffic, bytes.
    pub traffic_bytes: u64,
    /// Achieved throughput over executed FLOPs, TFLOPS.
    pub tflops: f64,
    /// Energy by source.
    pub energy: EnergyBreakdown,
}

impl AccelReport {
    /// Total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total()
    }

    /// Energy efficiency, GFLOPS/W.
    #[cfg(test)]
    pub(crate) fn gflops_per_watt(&self) -> f64 {
        let flops = self.tflops * 1e12 * self.time_s;
        flops / 1e9 / self.energy_j()
    }
}

/// The simulated accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtaAccel {
    config: AccelConfig,
    kind: ArchKind,
    energy: EnergyConsts,
}

impl EtaAccel {
    /// Builds a machine of the given kind with default energy constants.
    pub fn new(config: AccelConfig, kind: ArchKind) -> Self {
        EtaAccel {
            config,
            kind,
            energy: EnergyConsts::fpga_defaults(),
        }
    }

    /// Builds the forward-phase workload of one training iteration.
    pub fn forward_workload(shape: &LstmShape, eff: &OptEffects) -> Workload {
        let hb = (shape.layers * shape.seq_len * shape.batch * shape.hidden) as u64;
        // Element-wise work per hidden element per cell: ~9 baseline
        // (state/output updates and gate combination); MS1's reordered
        // BP-EW-P1 adds ~18 more (six products of 2–3 ops each).
        let ew_per_h = if eff.ms1 { 9 + 18 } else { 9 };
        Workload {
            matmul_macs: shape.forward_macs(),
            ew_ops: ew_per_h * hb,
            act_ops: 5 * hb,
        }
    }

    /// Builds the backward-phase workload of one training iteration.
    pub(crate) fn backward_workload(shape: &LstmShape, eff: &OptEffects) -> Workload {
        let kept = eff.kept_fraction();
        let rho = if eff.ms1 { eff.p1_density } else { 1.0 };
        let hb = (shape.layers * shape.seq_len * shape.batch * shape.hidden) as f64;
        // Two GEMMs of forward size (input grads + weight grads); the
        // decoder lets BP-MatMul skip rows whose gate gradient pruned.
        let macs = 2.0 * shape.forward_macs() as f64 * kept * rho;
        // BP-EW: P2 shrinks to the surviving P1 positions under MS1.
        let ew = if eff.ms1 { 6.0 * rho } else { 10.0 } * hb * kept;
        Workload {
            matmul_macs: macs as u64,
            ew_ops: ew as u64,
            act_ops: 0,
        }
    }

    /// HBM weight-streaming bytes of one iteration: weights are
    /// replicated per board and re-streamed per cell when a layer's
    /// parameters exceed half the scratchpad (double-buffering),
    /// otherwise fetched once per phase.
    pub(crate) fn weight_stream_bytes(&self, shape: &LstmShape, eff: &OptEffects) -> u64 {
        let kept = eff.kept_fraction();
        let rho = if eff.ms1 { eff.p1_density } else { 1.0 };
        let mut total = 0.0f64;
        for l in 0..shape.layers {
            let wu = shape.layer_weight_bytes(l) as f64;
            let per_phase = if shape.layer_weight_bytes(l) > self.config.scratchpad_bytes / 2 {
                shape.seq_len as f64 * wu
            } else {
                wu
            };
            // FW streams once; BP streams its two GEMM passes scaled by
            // skipping and the decoder's gathered fetches.
            total += per_phase * (1.0 + 2.0 * kept * rho);
        }
        (total * self.config.boards as f64) as u64
    }

    /// Simulates one training iteration.
    pub fn simulate(&self, shape: &LstmShape, eff: &OptEffects) -> AccelReport {
        let area = self.kind.pe_area_factor();
        let ops_per_cycle = self.config.ops_per_cycle() / area;

        let fw = Self::forward_workload(shape, eff);
        let bp = Self::backward_workload(shape, eff);

        let schedule = |w: &Workload| -> PhaseTiming {
            if self.kind.dynamic() {
                scheduler::simulate_dynamic(w, ops_per_cycle)
            } else {
                scheduler::simulate_static(w, ops_per_cycle, STATIC_EW_FRACTION)
            }
        };
        let fw_t = schedule(&fw);
        let bp_t = schedule(&bp);
        let mut compute = fw_t.then(&bp_t);

        // The per-channel activation modules bound activation throughput
        // (one evaluation per unit per cycle, two units per channel).
        let act_capacity = (self.config.total_channels() * 2) as f64 / area;
        let act_cycles = (fw.act_ops + bp.act_ops) as f64 / act_capacity;
        if act_cycles > compute.cycles {
            compute.cycles = act_cycles;
        }

        // HBM traffic: activations/intermediates from the shared traffic
        // model (the DMA compression module realizes the MS1 reduction)
        // plus weight streaming.
        let named = model::traffic(shape, eff);
        let traffic_bytes =
            named.activations + named.intermediates + self.weight_stream_bytes(shape, eff);
        let dma_time_s = traffic_bytes as f64 / self.config.total_hbm_bytes_per_sec();

        let compute_time_s = compute.cycles / self.config.freq_hz;

        // The batch is split across boards with replicated weights, so
        // partial weight gradients are ring-all-reduced over the host
        // links: 2·(boards−1)/boards of the parameter bytes per board.
        // Per-layer aggregation overlaps with the remaining BP work;
        // only ALLREDUCE_EXPOSED of it lands on the critical path.
        let allreduce_time_s = if self.config.boards > 1 {
            let per_board = 2.0 * shape.weight_bytes() as f64 * (self.config.boards as f64 - 1.0)
                / self.config.boards as f64;
            per_board / self.config.interconnect_bytes_per_sec * ALLREDUCE_EXPOSED
        } else {
            0.0
        };

        let time_s = compute_time_s.max(dma_time_s) + allreduce_time_s;

        let total_ops = fw.pe_ops() + bp.pe_ops();
        let events = EnergyEvents {
            macs: ((fw.matmul_macs + bp.matmul_macs) as f64 * self.kind.mac_energy_factor()) as u64,
            ew_ops: fw.ew_ops + bp.ew_ops,
            act_ops: fw.act_ops + bp.act_ops,
            dram_bytes: traffic_bytes,
            // Every PE operand and weight byte passes the scratchpad.
            sram_bytes: traffic_bytes + 8 * total_ops,
        };
        let energy = energy::energy_of(&self.energy, &events, time_s, self.config.boards);

        // Report throughput over the *baseline-equivalent* FLOPs so
        // speedups from skipped work show up as time savings, not
        // throughput inflation.
        let flops = 2.0 * total_ops as f64;
        AccelReport {
            time_s,
            compute_cycles: compute.cycles,
            dma_time_s,
            allreduce_time_s,
            utilization: (compute.busy_pe_cycles / (compute.cycles * ops_per_cycle).max(1e-9))
                .min(1.0),
            traffic_bytes,
            tflops: flops / time_s / 1e12,
            energy,
        }
    }
}

/// PE-occupancy histogram buckets: deciles of the busy fraction.
pub(crate) const OCCUPANCY_BUCKETS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

impl EtaAccel {
    /// [`EtaAccel::simulate`] plus metric recording.
    ///
    /// With a [`eta_telemetry::Telemetry`] handle the run records, all
    /// labelled with `arch = `[`ArchKind::label`]:
    ///
    /// - `accel_pe_busy_fraction{phase}` — per-phase (fw/bp) PE
    ///   occupancy histogram over `OCCUPANCY_BUCKETS`;
    /// - `accel_utilization`, `accel_iteration_seconds`,
    ///   `accel_dma_seconds`, `accel_tflops`, `accel_energy_joules` —
    ///   gauges of the report fields;
    /// - `accel_traffic_bytes_total` — counter of HBM traffic.
    pub fn simulate_instrumented(
        &self,
        shape: &LstmShape,
        eff: &OptEffects,
        telemetry: Option<&eta_telemetry::Telemetry>,
    ) -> AccelReport {
        let sim_span = telemetry.map(|t| t.span("accel_simulate"));
        let report = self.simulate(shape, eff);
        drop(sim_span);
        let Some(t) = telemetry else {
            return report;
        };
        let arch = self.kind.label();
        // Re-derive the per-phase timings (cheap closed forms) so fw and
        // bp occupancy show up separately rather than only the combined
        // report utilization.
        let ops_per_cycle = self.config.ops_per_cycle() / self.kind.pe_area_factor();
        let fw = Self::forward_workload(shape, eff);
        let bp = Self::backward_workload(shape, eff);
        for (phase, w) in [("fw", &fw), ("bp", &bp)] {
            let _phase_span = t.span(if phase == "fw" {
                "accel_fw_timing"
            } else {
                "accel_bp_timing"
            });
            let timing = if self.kind.dynamic() {
                scheduler::simulate_dynamic(w, ops_per_cycle)
            } else {
                scheduler::simulate_static(w, ops_per_cycle, STATIC_EW_FRACTION)
            };
            t.observe_in(
                eta_telemetry::keys::ACCEL_PE_BUSY_FRACTION,
                eta_telemetry::labels!(phase = phase, arch = arch),
                OCCUPANCY_BUCKETS,
                timing.utilization(),
            );
        }
        use eta_telemetry::keys;
        let labels = || eta_telemetry::labels!(arch = arch);
        t.gauge_with(keys::ACCEL_UTILIZATION, labels(), report.utilization);
        t.gauge_with(keys::ACCEL_ITERATION_SECONDS, labels(), report.time_s);
        t.gauge_with(keys::ACCEL_DMA_SECONDS, labels(), report.dma_time_s);
        t.gauge_with(keys::ACCEL_TFLOPS, labels(), report.tflops);
        t.gauge_with(keys::ACCEL_ENERGY_JOULES, labels(), report.energy_j());
        t.incr_with(
            keys::ACCEL_TRAFFIC_BYTES_TOTAL,
            labels(),
            report.traffic_bytes,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptb_like() -> LstmShape {
        LstmShape::new(1536, 1536, 4, 35, 128)
    }

    fn machine(kind: ArchKind) -> EtaAccel {
        EtaAccel::new(AccelConfig::paper_4board(), kind)
    }

    #[test]
    fn paper_machine_peaks_near_ten_tflops() {
        let c = AccelConfig::paper_4board();
        let peak = c.peak_flops() / 1e12;
        assert!(
            (9.0..12.0).contains(&peak),
            "4-board peak {peak} TFLOPS out of positioning band"
        );
    }

    #[test]
    fn dyn_arch_beats_static_beats_lstm_inf() {
        let base = OptEffects::baseline();
        let s = ptb_like();
        let t_dyn = machine(ArchKind::DynArch).simulate(&s, &base).time_s;
        let t_static = machine(ArchKind::StaticArch).simulate(&s, &base).time_s;
        let t_inf = machine(ArchKind::LstmInf).simulate(&s, &base).time_s;
        assert!(t_dyn < t_static, "dyn {t_dyn} vs static {t_static}");
        assert!(t_static < t_inf, "static {t_static} vs inf {t_inf}");
        // Static's penalty is the idle EW partition: ≈1/(1−EW fraction).
        let ratio = t_static / t_dyn;
        let expected = 1.0 / (1.0 - crate::scheduler::STATIC_EW_FRACTION);
        assert!(
            (ratio - expected).abs() < 0.15,
            "static/dyn ratio {ratio} should reflect the idle partition (≈{expected})"
        );
    }

    #[test]
    fn dynamic_utilization_exceeds_static() {
        let base = OptEffects::baseline();
        let s = ptb_like();
        let u_dyn = machine(ArchKind::DynArch).simulate(&s, &base).utilization;
        let u_static = machine(ArchKind::StaticArch)
            .simulate(&s, &base)
            .utilization;
        assert!(u_dyn > 0.9, "R2A should keep PEs busy: {u_dyn}");
        assert!(u_static < u_dyn);
    }

    #[test]
    fn software_optimizations_speed_up_the_accelerator() {
        let s = ptb_like();
        let m = machine(ArchKind::DynArch);
        let t_base = m.simulate(&s, &OptEffects::baseline()).time_s;
        let t_full = m.simulate(&s, &OptEffects::combined(0.35, 0.49)).time_s;
        let speedup = t_base / t_full;
        // MS1's sparsity is hardware-exploitable here (unlike the GPU):
        // BP MatMul shrinks by ρ and skipped cells disappear.
        assert!(
            (1.5..4.0).contains(&speedup),
            "η-LSTM software+hardware speedup {speedup} over Dyn-Arch alone"
        );
    }

    #[test]
    fn energy_ordering_matches_paper() {
        let base = OptEffects::baseline();
        let s = ptb_like();
        let e_dyn = machine(ArchKind::DynArch).simulate(&s, &base).energy_j();
        let e_static = machine(ArchKind::StaticArch).simulate(&s, &base).energy_j();
        let e_inf = machine(ArchKind::LstmInf).simulate(&s, &base).energy_j();
        assert!(e_dyn < e_static, "dyn {e_dyn} vs static {e_static}");
        assert!(e_static < e_inf, "static {e_static} vs inf {e_inf}");
    }

    #[test]
    fn dma_overlaps_compute_for_large_models() {
        let s = ptb_like();
        let r = machine(ArchKind::DynArch).simulate(&s, &OptEffects::baseline());
        assert!(
            r.dma_time_s < r.time_s,
            "compute-bound workload: dma {} vs total {}",
            r.dma_time_s,
            r.time_s
        );
        assert!(r.traffic_bytes > 0);
    }

    #[test]
    fn ms1_reduces_hbm_traffic() {
        let s = ptb_like();
        let m = machine(ArchKind::DynArch);
        let base = m.simulate(&s, &OptEffects::baseline()).traffic_bytes;
        let ms1 = m.simulate(&s, &OptEffects::ms1(0.35)).traffic_bytes;
        assert!(
            ms1 < base,
            "DMA compression must cut traffic: {ms1} vs {base}"
        );
    }

    #[test]
    fn weights_stream_once_per_phase_or_once_per_cell() {
        // Per board, a baseline iteration makes three weight passes: FW
        // once, BP's two GEMMs twice. The 32 MB scratchpad keeps half
        // for weights.
        let m = machine(ArchKind::DynArch);
        let boards = m.config.boards as u64;
        let base = OptEffects::baseline();

        // H 64 layers (≈ 130 kB each) fit: fetched once per phase.
        let small = LstmShape::new(64, 64, 2, 50, 16);
        assert!(small.layer_weight_bytes(1) <= m.config.scratchpad_bytes / 2);
        assert_eq!(
            m.weight_stream_bytes(&small, &base),
            boards * 3 * small.weight_bytes()
        );

        // An H 2048 layer (≈ 134 MB) exceeds half the scratchpad:
        // re-streamed by every one of its 20 cells in every phase.
        let big = LstmShape::new(2048, 2048, 1, 20, 16);
        assert!(big.layer_weight_bytes(0) > m.config.scratchpad_bytes / 2);
        assert_eq!(
            m.weight_stream_bytes(&big, &base),
            boards * 3 * 20 * big.layer_weight_bytes(0)
        );
    }

    #[test]
    fn multi_board_pays_for_gradient_allreduce() {
        let s = ptb_like();
        let multi = machine(ArchKind::DynArch).simulate(&s, &OptEffects::baseline());
        assert!(multi.allreduce_time_s > 0.0);
        assert!(multi.allreduce_time_s < multi.time_s * 0.5);
        let single_cfg = AccelConfig {
            boards: 1,
            ..AccelConfig::paper_4board()
        };
        let single =
            EtaAccel::new(single_cfg, ArchKind::DynArch).simulate(&s, &OptEffects::baseline());
        assert_eq!(single.allreduce_time_s, 0.0);
    }

    #[test]
    fn report_throughput_is_sane() {
        let r = machine(ArchKind::DynArch).simulate(&ptb_like(), &OptEffects::baseline());
        assert!(r.tflops > 1.0 && r.tflops < 12.0, "tflops {}", r.tflops);
        assert!(
            r.gflops_per_watt() > 5.0,
            "gflops/W {}",
            r.gflops_per_watt()
        );
    }
}
