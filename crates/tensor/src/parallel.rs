//! Kernel-level parallel execution policy.
//!
//! Every parallel kernel in this crate takes its thread count from an
//! explicit [`ParallelConfig`] rather than an ambient global or an
//! environment probe inside the hot path: callers decide once (CLI
//! flag, `ETA_THREADS`, hardware probe) and the decision flows through
//! the call graph, so two runs with the same config are guaranteed to
//! execute the same partitioning.
//!
//! # Determinism contract
//!
//! The parallel GEMM kernels partition their **output** into disjoint
//! row panels; each panel is computed by the exact per-row loop the
//! serial kernel uses, so every output element accumulates its products
//! in the same order regardless of `threads`. Parallel results are
//! therefore **bit-identical** to serial results — `threads` is purely
//! a latency knob, never a numerics knob.
//!
//! The row panels are disjoint because the borrow checker says so
//! (`chunks_mut`; the crate denies `unsafe_code` outside `simd`), and
//! clippy's `disallowed_types` (locks, atomics, channels; see
//! `clippy.toml`) pin any cross-thread value to the post-join
//! sequential merge; spawn sites additionally clamp their worker count
//! to `rayon::current_num_threads()` — the in-tree rayon shim backs
//! every spawn with an OS thread and debug-asserts a per-scope spawn
//! cap, so `threads` beyond the machine must change partitioning
//! (latency) without ever changing results.

use serde::{Deserialize, Serialize};

/// Environment variable conventionally naming the worker-thread count
/// (`run_all --threads N` exports it for every harness binary; the CI
/// matrix pins it to prove thread-count invariance).
pub const THREADS_ENV: &str = "ETA_THREADS";

/// Below this many fused multiply-adds (`m * k * n`) a parallel GEMM
/// falls back to the serial kernel: thread spawn costs tens of
/// microseconds, which dominates small products.
pub const DEFAULT_MIN_KERNEL_FLOPS: usize = 128 * 128 * 128;

/// Thread count and serial-fallback threshold for the parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Worker threads a parallel kernel may use; `1` means serial.
    pub threads: usize,
    /// Serial-fallback threshold in fused multiply-adds (`m * k * n`).
    pub min_kernel_flops: usize,
}

impl ParallelConfig {
    /// Strictly serial execution (the default).
    pub fn serial() -> Self {
        ParallelConfig {
            threads: 1,
            min_kernel_flops: DEFAULT_MIN_KERNEL_FLOPS,
        }
    }

    /// `threads` workers with the default fallback threshold.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            min_kernel_flops: DEFAULT_MIN_KERNEL_FLOPS,
        }
    }

    /// One worker per hardware thread.
    pub fn available() -> Self {
        Self::with_threads(rayon::current_num_threads())
    }

    /// Thread count from [`THREADS_ENV`] when set (invalid or zero
    /// values fall back to 1), otherwise the hardware's available
    /// parallelism.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => Self::with_threads(v.trim().parse::<usize>().unwrap_or(1)),
            Err(_) => Self::available(),
        }
    }

    /// Whether a `[m, k] x [k, n]` product should run in parallel under
    /// this config.
    pub fn should_parallelize(&self, m: usize, k: usize, n: usize, rows: usize) -> bool {
        // `threads == 0` cannot be built through the constructors
        // (`with_threads` clamps); the contract the spawn sites rely
        // on is that a parallel decision implies at least one full
        // panel per worker.
        debug_assert!(self.threads >= 1, "ParallelConfig.threads must be >= 1");
        self.threads > 1 && rows >= self.threads && m * k * n >= self.min_kernel_flops
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_never_parallelizes() {
        let cfg = ParallelConfig::serial();
        assert!(!cfg.should_parallelize(4096, 4096, 4096, 4096));
    }

    #[test]
    fn threshold_gates_small_products() {
        let cfg = ParallelConfig::with_threads(4);
        assert!(!cfg.should_parallelize(8, 8, 8, 8));
        assert!(cfg.should_parallelize(256, 256, 256, 256));
        // Fewer output rows than threads: a panel would be empty.
        assert!(!cfg.should_parallelize(2, 2048, 2048, 2));
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
    }

    #[test]
    fn available_reports_at_least_one() {
        assert!(ParallelConfig::available().threads >= 1);
    }
}
