//! Central registry of every metric key the workspace emits.
//!
//! All counter/gauge/histogram names live here as `&'static str`
//! consts; call sites reference the const instead of retyping the
//! string, so a typo is a compile error instead of a silently forked
//! metric. The eta-lint `T1` rule closes the remaining gap: any
//! string literal passed to `incr`/`gauge`/`observe`/`counter_total`/
//! `histogram` outside this crate must appear in this file, so even
//! literal-using call sites (tests, one-off probes) cannot drift. Its
//! converse, `S3`, warns on a key defined here that no library or
//! binary code emits.
//!
//! Naming convention: `<subsystem>_<quantity>[_<unit>]`, with
//! monotonic counters suffixed `_total`.

// -- trainer (eta-lstm-core) -----------------------------------------------

/// Counter: completed training epochs.
pub const TRAIN_EPOCHS_TOTAL: &str = "train_epochs_total";
/// Counter: completed training batches.
pub const TRAIN_BATCHES_TOTAL: &str = "train_batches_total";
/// Gauge: mean loss of the most recent epoch.
pub const TRAIN_LOSS_MEAN: &str = "train_loss_mean";
/// Gauge: MS1 P1-pass density of the most recent epoch.
pub const MS1_P1_DENSITY: &str = "ms1_p1_density";
/// Gauge: MS2 cell-skip fraction of the most recent epoch.
pub const MS2_SKIP_FRACTION: &str = "ms2_skip_fraction";
/// Gauge: peak simulated-DRAM footprint over the run, bytes.
pub const TRAIN_PEAK_FOOTPRINT_BYTES: &str = "train_peak_footprint_bytes";
/// Gauge: peak footprint of the intermediates category alone, bytes.
pub const TRAIN_PEAK_INTERMEDIATES_BYTES: &str = "train_peak_intermediates_bytes";
/// Counter: cells recomputed from MS3 checkpoints during backward.
pub const MS3_RECOMPUTE_CELLS_TOTAL: &str = "ms3_recompute_cells_total";
/// Gauge: current MS3 dynamic loss scale.
pub const MS3_LOSS_SCALE: &str = "ms3_loss_scale";
/// Counter: optimizer steps skipped after a loss-scaled overflow.
pub const MS3_OVERFLOW_SKIPS_TOTAL: &str = "ms3_overflow_skips_total";
/// Counter: finite values that overflowed to ±∞ when narrowed to the
/// MS3 storage precision.
pub const MS3_CONV_OVERFLOWS_TOTAL: &str = "ms3_conv_overflows_total";
/// Counter: nonzero values flushed to zero when narrowed to the MS3
/// storage precision.
pub const MS3_CONV_UNDERFLOWS_TOTAL: &str = "ms3_conv_underflows_total";

// -- deterministic data-parallel engine (eta-lstm-core) --------------------

/// Gauge: microbatch shards used by the last sharded step.
pub const PARALLEL_SHARDS: &str = "parallel_shards";
/// Gauge: worker threads configured for the parallel engine.
pub const PARALLEL_THREADS: &str = "parallel_threads";
/// Gauge: wall seconds spent in the fixed-order tree reduction.
pub const PARALLEL_REDUCE_SECONDS: &str = "parallel_reduce_seconds";

// -- kernel layer: panel cache + workspace (eta-lstm-core) -----------------

/// Gauge: cumulative weight-panel pack operations performed by the
/// trainer's panel cache (one per layer per weight update).
pub const PANEL_PACK_COUNT: &str = "panel_pack_count";
/// Gauge: cumulative panel-cache checkouts served without repacking.
pub const PANEL_CACHE_HITS: &str = "panel_cache_hits";
/// Gauge: high-water mark of the reusable training workspace, bytes.
pub const WORKSPACE_HIGH_WATER_BYTES: &str = "workspace_high_water_bytes";

// -- memory simulator (eta-memsim) -----------------------------------------

/// Counter (labels: `category`): bytes allocated in simulated DRAM.
pub const MEMSIM_ALLOC_BYTES_TOTAL: &str = "memsim_alloc_bytes_total";
/// Counter (labels: `category`): bytes freed from simulated DRAM.
pub const MEMSIM_FREE_BYTES_TOTAL: &str = "memsim_free_bytes_total";
/// Gauge (labels: `category`): currently-live simulated bytes.
pub const MEMSIM_LIVE_BYTES: &str = "memsim_live_bytes";
/// Gauge: high-water mark of total live simulated bytes.
pub const MEMSIM_PEAK_TOTAL_BYTES: &str = "memsim_peak_total_bytes";
/// Counter (labels: `category`): simulated bytes read from DRAM.
pub const DRAM_READ_BYTES_TOTAL: &str = "dram_read_bytes_total";
/// Counter (labels: `category`): simulated bytes written to DRAM.
pub const DRAM_WRITE_BYTES_TOTAL: &str = "dram_write_bytes_total";

// -- accelerator simulator (eta-accel) -------------------------------------

/// Histogram: per-PE busy fraction across an iteration.
pub const ACCEL_PE_BUSY_FRACTION: &str = "accel_pe_busy_fraction";
/// Counter: swing-buffer handoffs between timeline segments.
pub const ACCEL_SWING_HANDOFFS_TOTAL: &str = "accel_swing_handoffs_total";
/// Gauge: utilization derived from the executed timeline.
pub const ACCEL_TIMELINE_UTILIZATION: &str = "accel_timeline_utilization";
/// Gauge (labels: run config): end-to-end utilization of a simulated run.
pub const ACCEL_UTILIZATION: &str = "accel_utilization";
/// Gauge (labels: run config): simulated seconds per training iteration.
pub const ACCEL_ITERATION_SECONDS: &str = "accel_iteration_seconds";
/// Gauge (labels: run config): simulated seconds spent in DMA.
pub const ACCEL_DMA_SECONDS: &str = "accel_dma_seconds";
/// Gauge (labels: run config): achieved TFLOP/s of a simulated run.
pub const ACCEL_TFLOPS: &str = "accel_tflops";
/// Gauge (labels: run config): total energy of a simulated run, joules.
pub const ACCEL_ENERGY_JOULES: &str = "accel_energy_joules";
/// Counter (labels: run config): DRAM traffic of a simulated run, bytes.
pub const ACCEL_TRAFFIC_BYTES_TOTAL: &str = "accel_traffic_bytes_total";
/// Counter (labels: `compressed`): bytes written by the DMA engine.
pub const ACCEL_DMA_WRITE_BYTES_TOTAL: &str = "accel_dma_write_bytes_total";
/// Histogram: per-transfer DMA compression ratio.
pub const ACCEL_DMA_COMPRESSION_RATIO: &str = "accel_dma_compression_ratio";
/// Histogram: accumulator stall fraction per drain.
pub const ACCEL_ACCUMULATOR_STALL_FRACTION: &str = "accel_accumulator_stall_fraction";
/// Counter: total accumulator stall cycles.
pub const ACCEL_ACCUMULATOR_STALL_CYCLES_TOTAL: &str = "accel_accumulator_stall_cycles_total";

// -- kernel accounting + tracing (eta-tensor / eta-prof) -------------------

/// Counter: floating-point operations executed by the packed GEMM
/// kernels (2·m·k·n per call, epilogue-fused paths included).
pub const KERNEL_GEMM_FLOPS_TOTAL: &str = "kernel_gemm_flops_total";
/// Counter: logical operand bytes touched by the packed GEMM kernels
/// (A + packed-B + C, 4 bytes per element).
pub const KERNEL_GEMM_BYTES_TOTAL: &str = "kernel_gemm_bytes_total";
/// Counter: packed GEMM kernel invocations.
pub const KERNEL_GEMM_CALLS_TOTAL: &str = "kernel_gemm_calls_total";
/// Counter: GEMM calls routed to the AVX2+FMA microkernels by the
/// runtime feature/shape dispatch.
pub const KERNEL_SIMD_DISPATCH_TOTAL: &str = "kernel_simd_dispatch_total";
/// Counter: GEMM calls served by the scalar microkernels (small
/// shapes, `ETA_SIMD=off`, or missing CPU features).
pub const KERNEL_SCALAR_FALLBACK_TOTAL: &str = "kernel_scalar_fallback_total";
/// Counter: panel packs performed by the parallel packing path.
pub const PANEL_PACK_PARALLEL_TOTAL: &str = "panel_pack_parallel_total";
/// Counter: spans captured by an attached eta-prof tracer.
pub const TRACE_SPANS_TOTAL: &str = "trace_spans_total";
/// Counter: spans dropped by an attached eta-prof tracer after its
/// event cap was reached (never silently truncated).
pub const TRACE_SPANS_DROPPED_TOTAL: &str = "trace_spans_dropped_total";
/// Gauge: distinct threads observed by an attached eta-prof tracer.
pub const TRACE_THREADS: &str = "trace_threads";

// -- figure/table export harnesses (eta-bench) -----------------------------

/// Gauge (labels: `config`, `component`): footprint breakdown exported
/// by the Fig. 5 harness.
pub const FOOTPRINT_BYTES: &str = "footprint_bytes";

/// Every registered key, for exhaustiveness checks and tooling.
pub const ALL: &[&str] = &[
    TRAIN_EPOCHS_TOTAL,
    TRAIN_BATCHES_TOTAL,
    TRAIN_LOSS_MEAN,
    MS1_P1_DENSITY,
    MS2_SKIP_FRACTION,
    TRAIN_PEAK_FOOTPRINT_BYTES,
    TRAIN_PEAK_INTERMEDIATES_BYTES,
    MS3_RECOMPUTE_CELLS_TOTAL,
    MS3_LOSS_SCALE,
    MS3_OVERFLOW_SKIPS_TOTAL,
    MS3_CONV_OVERFLOWS_TOTAL,
    MS3_CONV_UNDERFLOWS_TOTAL,
    PARALLEL_SHARDS,
    PARALLEL_THREADS,
    PARALLEL_REDUCE_SECONDS,
    PANEL_PACK_COUNT,
    PANEL_CACHE_HITS,
    WORKSPACE_HIGH_WATER_BYTES,
    MEMSIM_ALLOC_BYTES_TOTAL,
    MEMSIM_FREE_BYTES_TOTAL,
    MEMSIM_LIVE_BYTES,
    MEMSIM_PEAK_TOTAL_BYTES,
    DRAM_READ_BYTES_TOTAL,
    DRAM_WRITE_BYTES_TOTAL,
    ACCEL_PE_BUSY_FRACTION,
    ACCEL_SWING_HANDOFFS_TOTAL,
    ACCEL_TIMELINE_UTILIZATION,
    ACCEL_UTILIZATION,
    ACCEL_ITERATION_SECONDS,
    ACCEL_DMA_SECONDS,
    ACCEL_TFLOPS,
    ACCEL_ENERGY_JOULES,
    ACCEL_TRAFFIC_BYTES_TOTAL,
    ACCEL_DMA_WRITE_BYTES_TOTAL,
    ACCEL_DMA_COMPRESSION_RATIO,
    ACCEL_ACCUMULATOR_STALL_FRACTION,
    ACCEL_ACCUMULATOR_STALL_CYCLES_TOTAL,
    KERNEL_GEMM_FLOPS_TOTAL,
    KERNEL_GEMM_BYTES_TOTAL,
    KERNEL_GEMM_CALLS_TOTAL,
    KERNEL_SIMD_DISPATCH_TOTAL,
    KERNEL_SCALAR_FALLBACK_TOTAL,
    PANEL_PACK_PARALLEL_TOTAL,
    TRACE_SPANS_TOTAL,
    TRACE_SPANS_DROPPED_TOTAL,
    TRACE_THREADS,
    FOOTPRINT_BYTES,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn keys_are_unique() {
        let set: BTreeSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate key in registry");
    }

    #[test]
    fn keys_follow_the_naming_convention() {
        for key in ALL {
            assert!(
                key.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "key `{key}` must be snake_case ascii"
            );
            assert!(
                !key.starts_with('_') && !key.ends_with('_') && !key.contains("__"),
                "key `{key}` has stray underscores"
            );
        }
    }

    #[test]
    fn counters_are_suffixed_total() {
        // Counters in this workspace are exactly the `_total` keys;
        // keep the suffix honest for anything that claims to be one.
        for key in ALL {
            if key.ends_with("_total") {
                assert!(
                    key.contains("bytes")
                        || key.contains("handoffs")
                        || key.contains("cycles")
                        || key.contains("epochs")
                        || key.contains("batches")
                        || key.contains("flops")
                        || key.contains("calls")
                        || key.contains("spans")
                        || key.contains("cells")
                        || key.contains("skips")
                        || key.contains("overflows")
                        || key.contains("underflows")
                        || key.contains("dispatch")
                        || key.contains("fallback")
                        || key.contains("pack"),
                    "`{key}` ends in _total but names no countable quantity"
                );
            }
        }
    }
}
