//! Process-global FLOP/byte accounting for the packed GEMM kernels.
//!
//! Every `gemm_*_rows` entry point records its nominal work here with
//! relaxed atomic adds: `2·rows·k·n` flops (the dense multiply-add
//! count — zero-skips make the *executed* count a lower bound of this,
//! so the nominal figure is the one comparable across kernels and
//! runs) and `4·(rows·k + k·n + rows·n)` logical operand bytes (each
//! operand element counted once, ignoring cache re-reads). The
//! trainer snapshots these counters per epoch and emits the deltas as
//! `kernel_gemm_*_total` telemetry.
//!
//! The counters are global rather than threaded through the call tree
//! because the kernels are leaf functions reached from several crates
//! (core cell, tensor parallel path, benches); consumers must diff
//! [`snapshot`]s rather than read absolutes, since parallel tests in
//! the same process also advance them.

#![allow(
    clippy::disallowed_types,
    reason = "SYNC: telemetry counters, read only by diffing snapshots"
)]

use std::sync::atomic::{AtomicU64, Ordering};

// SYNC: monotonic telemetry counters read only by diffing snapshots;
// no numeric value is ever derived from them, so their commit order
// cannot perturb the determinism contract.
static FLOPS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0); // SYNC: telemetry counter (see above)
static CALLS: AtomicU64 = AtomicU64::new(0); // SYNC: telemetry counter (see above)

// SYNC: dispatch-path telemetry counters, same snapshot-diff contract
// as the work counters above — they count which kernel family served
// each GEMM call, never feed a numeric result.
static SIMD_DISPATCH: AtomicU64 = AtomicU64::new(0);
static SCALAR_FALLBACK: AtomicU64 = AtomicU64::new(0); // SYNC: telemetry counter (see above)
static PANEL_PACK_PARALLEL: AtomicU64 = AtomicU64::new(0); // SYNC: telemetry counter (see above)

/// Point-in-time reading of the global GEMM counters; diff two of
/// these to attribute work to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmSnapshot {
    /// Nominal floating-point operations (2 per multiply-add).
    pub flops: u64,
    /// Logical operand bytes (A + B + C, each element once).
    pub bytes: u64,
    /// Kernel invocations.
    pub calls: u64,
}

impl GemmSnapshot {
    /// Work recorded since `earlier` (saturating, so a stale snapshot
    /// never underflows).
    pub fn since(&self, earlier: &GemmSnapshot) -> GemmSnapshot {
        GemmSnapshot {
            flops: self.flops.saturating_sub(earlier.flops),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            calls: self.calls.saturating_sub(earlier.calls),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> GemmSnapshot {
    GemmSnapshot {
        flops: FLOPS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// Records one `rows × k × n` GEMM call. Called by the kernel entry
/// points; the cost is three relaxed adds per kernel invocation,
/// negligible next to the O(rows·k·n) work that follows.
#[inline]
pub fn record_gemm(rows: usize, k: usize, n: usize) {
    let flops = 2 * (rows as u64) * (k as u64) * (n as u64);
    let bytes = 4 * ((rows * k) as u64 + (k * n) as u64 + (rows * n) as u64);
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time reading of the kernel dispatch-path counters; diff
/// two to attribute dispatch decisions to a region, exactly like
/// [`GemmSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchSnapshot {
    /// GEMM calls served by the AVX2+FMA microkernels.
    pub simd: u64,
    /// GEMM calls served by the always-compiled scalar microkernels
    /// (SIMD unavailable, disabled via `ETA_SIMD`, or the product was
    /// below the dispatch threshold).
    pub scalar: u64,
    /// Panel packs that ran the rayon-parallel packing path.
    pub pack_parallel: u64,
}

impl DispatchSnapshot {
    /// Events recorded since `earlier` (saturating).
    pub fn since(&self, earlier: &DispatchSnapshot) -> DispatchSnapshot {
        DispatchSnapshot {
            simd: self.simd.saturating_sub(earlier.simd),
            scalar: self.scalar.saturating_sub(earlier.scalar),
            pack_parallel: self.pack_parallel.saturating_sub(earlier.pack_parallel),
        }
    }
}

/// Reads the current dispatch-path counter values.
pub fn dispatch_snapshot() -> DispatchSnapshot {
    DispatchSnapshot {
        simd: SIMD_DISPATCH.load(Ordering::Relaxed),
        scalar: SCALAR_FALLBACK.load(Ordering::Relaxed),
        pack_parallel: PANEL_PACK_PARALLEL.load(Ordering::Relaxed),
    }
}

/// Records one GEMM call routed to the AVX2+FMA microkernels.
#[inline]
pub fn record_simd_dispatch() {
    SIMD_DISPATCH.fetch_add(1, Ordering::Relaxed);
}

/// Records one GEMM call served by the scalar microkernels.
#[inline]
pub fn record_scalar_fallback() {
    SCALAR_FALLBACK.fetch_add(1, Ordering::Relaxed);
}

/// Records one panel pack that took the parallel packing path.
#[inline]
pub fn record_panel_pack_parallel() {
    PANEL_PACK_PARALLEL.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_advances_all_three_counters() {
        let before = snapshot();
        record_gemm(4, 8, 16);
        let d = snapshot().since(&before);
        assert!(d.flops >= 2 * 4 * 8 * 16);
        assert!(d.bytes >= 4 * (4 * 8 + 8 * 16 + 4 * 16));
        assert!(d.calls >= 1);
    }

    #[test]
    fn dispatch_counters_advance_and_diff() {
        let before = dispatch_snapshot();
        record_simd_dispatch();
        record_scalar_fallback();
        record_panel_pack_parallel();
        let d = dispatch_snapshot().since(&before);
        assert!(d.simd >= 1);
        assert!(d.scalar >= 1);
        assert!(d.pack_parallel >= 1);
        // Saturating diff, mirroring GemmSnapshot.
        let older = DispatchSnapshot {
            simd: u64::MAX,
            scalar: u64::MAX,
            pack_parallel: u64::MAX,
        };
        assert_eq!(
            dispatch_snapshot().since(&older),
            DispatchSnapshot::default()
        );
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let newer = GemmSnapshot {
            flops: 1,
            bytes: 1,
            calls: 1,
        };
        let older = GemmSnapshot {
            flops: 5,
            bytes: 5,
            calls: 5,
        };
        assert_eq!(newer.since(&older), GemmSnapshot::default());
    }
}
