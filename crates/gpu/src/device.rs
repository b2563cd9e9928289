//! GPU device specifications and energy-model parameters.

use serde::{Deserialize, Serialize};

/// Specification of a GPU, sourced from the vendor datasheets the paper
/// cites (Volta and Turing whitepapers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name.
    pub(crate) name: String,
    /// Peak FP32 throughput, TFLOPS.
    pub(crate) peak_tflops: f64,
    /// DRAM bandwidth, GB/s.
    pub(crate) mem_bw_gbs: f64,
    /// DRAM capacity, bytes.
    pub(crate) mem_capacity: u64,
    /// Board power, watts.
    pub(crate) tdp_watts: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 32 GB (Volta): 15.7 FP32 TFLOPS, 900 GB/s HBM2,
    /// 300 W.
    pub fn v100() -> Self {
        GpuSpec {
            name: "Tesla V100 32GB".to_string(),
            peak_tflops: 15.7,
            mem_bw_gbs: 900.0,
            mem_capacity: 32 * (1 << 30),
            tdp_watts: 300.0,
        }
    }

    /// NVIDIA Quadro RTX 5000 16 GB (Turing): 11.2 FP32 TFLOPS,
    /// 448 GB/s GDDR6, 265 W.
    pub fn rtx5000() -> Self {
        GpuSpec {
            name: "Quadro RTX 5000 16GB".to_string(),
            peak_tflops: 11.2,
            mem_bw_gbs: 448.0,
            mem_capacity: 16 * (1 << 30),
            tdp_watts: 265.0,
        }
    }
}

/// Energy-model parameters.
///
/// Calibrated so that a fully compute-bound V100 run lands near its TDP
/// and the resulting GFLOPS/W curve peaks in the 40–50 range the paper's
/// Fig. 3 shows: `E = P_static·t + e_flop·FLOPs + e_byte·DRAM bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Idle/static power, watts.
    pub(crate) static_watts: f64,
    /// Energy per floating-point operation, joules (≈9 pJ for FP32 on
    /// 12 nm-class silicon).
    pub(crate) joules_per_flop: f64,
    /// Effective energy per DRAM byte moved, joules. This is the
    /// end-to-end cost of getting a byte to the ALUs: device access
    /// (HBM2 ≈7 pJ/bit), PHY/controller, and the on-chip NoC/L2 hop —
    /// roughly 4× the raw device energy (≈250 pJ/byte for HBM2-class
    /// memory).
    pub(crate) joules_per_byte: f64,
}

impl EnergyParams {
    /// Defaults for an HBM2-equipped datacenter GPU (V100-class).
    pub(crate) fn hbm2() -> Self {
        EnergyParams {
            static_watts: 70.0,
            joules_per_flop: 9.0e-12,
            joules_per_byte: 250.0e-12,
        }
    }

    /// Defaults for a GDDR6 workstation GPU (RTX 5000-class).
    pub(crate) fn gddr6() -> Self {
        EnergyParams {
            static_watts: 55.0,
            joules_per_flop: 10.0e-12,
            joules_per_byte: 350.0e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_datasheets() {
        let v = GpuSpec::v100();
        assert_eq!(v.peak_tflops, 15.7);
        assert_eq!(v.mem_capacity, 32 * (1 << 30));
        let r = GpuSpec::rtx5000();
        assert!(r.peak_tflops < v.peak_tflops);
        assert!(r.mem_bw_gbs < v.mem_bw_gbs);
    }

    #[test]
    fn compute_bound_v100_power_is_near_tdp() {
        let e = EnergyParams::hbm2();
        // At 15.7 TFLOPS sustained: static + flops·e_flop per second.
        let watts = e.static_watts + 15.7e12 * e.joules_per_flop;
        assert!(
            (150.0..350.0).contains(&watts),
            "full-tilt power {watts} W implausible for a 300 W part"
        );
    }
}
