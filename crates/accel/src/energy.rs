//! Energy model of the FPGA-hosted accelerator.
//!
//! Per-event dynamic energies are set for a 16 nm UltraScale+ fabric at
//! 500 MHz (DSP-based FP32 arithmetic costs several pJ per operation on
//! FPGA — far above ASIC but far below a GPU's full-instruction
//! overhead); HBM access energy matches the GPU model's device-level
//! cost without the GPU's deep on-chip hierarchy. Static power reflects
//! the measured idle draw of a VCU128 board.

use serde::{Deserialize, Serialize};

/// Per-event energy constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EnergyConsts {
    /// Joules per multiply-accumulate (multiplier + adder event).
    pub(crate) e_mac: f64,
    /// Joules per element-wise operation (single multiplier or adder
    /// event).
    pub(crate) e_ew: f64,
    /// Joules per activation LUT evaluation.
    pub(crate) e_act: f64,
    /// Joules per byte moved to/from HBM (device + PHY).
    pub(crate) e_dram_byte: f64,
    /// Joules per byte moved through the on-board scratchpad.
    pub(crate) e_sram_byte: f64,
    /// Static watts per FPGA board.
    pub(crate) static_w_per_board: f64,
}

impl EnergyConsts {
    /// VCU128-class defaults (see module docs).
    pub(crate) fn fpga_defaults() -> Self {
        EnergyConsts {
            e_mac: 10.0e-12,
            e_ew: 5.0e-12,
            e_act: 3.0e-12,
            e_dram_byte: 120.0e-12,
            e_sram_byte: 1.0e-12,
            static_w_per_board: 32.0,
        }
    }
}

/// Energy of one simulated run, by source.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Arithmetic (MAC + EW + activation) energy, joules.
    pub compute_j: f64,
    /// DRAM (HBM) access energy, joules.
    pub dram_j: f64,
    /// Scratchpad access energy, joules.
    pub(crate) sram_j: f64,
    /// Static/leakage energy over the run, joules.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub(crate) fn total(&self) -> f64 {
        self.compute_j + self.dram_j + self.sram_j + self.static_j
    }
}

/// Event counts feeding the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct EnergyEvents {
    /// Multiply-accumulate operations.
    pub(crate) macs: u64,
    /// Element-wise operations.
    pub(crate) ew_ops: u64,
    /// Activation evaluations.
    pub(crate) act_ops: u64,
    /// HBM bytes moved.
    pub(crate) dram_bytes: u64,
    /// Scratchpad bytes moved.
    pub(crate) sram_bytes: u64,
}

/// Evaluates the energy of a run of `time_s` seconds on `boards` boards.
pub(crate) fn energy_of(
    consts: &EnergyConsts,
    events: &EnergyEvents,
    time_s: f64,
    boards: usize,
) -> EnergyBreakdown {
    EnergyBreakdown {
        compute_j: consts.e_mac * events.macs as f64
            + consts.e_ew * events.ew_ops as f64
            + consts.e_act * events.act_ops as f64,
        dram_j: consts.e_dram_byte * events.dram_bytes as f64,
        sram_j: consts.e_sram_byte * events.sram_bytes as f64,
        static_j: consts.static_w_per_board * boards as f64 * time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_components() {
        let e = EnergyBreakdown {
            compute_j: 1.0,
            dram_j: 2.0,
            sram_j: 0.5,
            static_j: 3.0,
        };
        assert_eq!(e.total(), 6.5);
    }

    #[test]
    fn energy_scales_linearly_with_events() {
        let c = EnergyConsts::fpga_defaults();
        let one = EnergyEvents {
            macs: 1_000_000,
            ew_ops: 1_000,
            act_ops: 100,
            dram_bytes: 1_000_000,
            sram_bytes: 10_000,
        };
        let two = EnergyEvents {
            macs: 2 * one.macs,
            ew_ops: 2 * one.ew_ops,
            act_ops: 2 * one.act_ops,
            dram_bytes: 2 * one.dram_bytes,
            sram_bytes: 2 * one.sram_bytes,
        };
        let e1 = energy_of(&c, &one, 1.0, 4);
        let e2 = energy_of(&c, &two, 1.0, 4);
        assert!((e2.compute_j - 2.0 * e1.compute_j).abs() < 1e-15);
        assert!((e2.dram_j - 2.0 * e1.dram_j).abs() < 1e-15);
        assert_eq!(e1.static_j, e2.static_j, "static depends only on time");
    }

    #[test]
    fn fpga_board_at_full_tilt_draws_plausible_power() {
        // One board: 40 ch × 32 PEs × 2 lanes × 500 MHz = 1.28 TMAC/s.
        let c = EnergyConsts::fpga_defaults();
        let macs_per_s = 40.0 * 32.0 * 2.0 * 500e6;
        let dynamic_w = macs_per_s * c.e_mac;
        let total_w = dynamic_w + c.static_w_per_board;
        assert!(
            (20.0..120.0).contains(&total_w),
            "board power {total_w} W implausible for a VCU128"
        );
    }
}
