//! `eta-parallel`: deterministic data-parallel training execution.
//!
//! The engine shards one batch into `shards` **microbatches** (batch
//! rows are independent through the whole LSTM, so a row shard trains
//! bit-identically to the same rows inside the full batch), runs each
//! shard's forward + backward independently across up to `threads`
//! workers, and combines the shard gradients by a **tree reduction in
//! fixed shard order**.
//!
//! # Determinism contract
//!
//! Results are a function of the *shard count*, never the *thread
//! count*: shard boundaries are fixed by `(batch, shards)`, each shard
//! computes in isolation, and the reduction tree pairs shards
//! `(0,1), (2,3), …` regardless of which worker finished first. Running
//! with `threads = 1` and `threads = 8` therefore yields bit-identical
//! losses and gradients — the property the `parallel_determinism`
//! integration test pins and the CI `ETA_THREADS` matrix re-checks on
//! every PR.

use crate::layer::Instruments;
use crate::loss::Targets;
use crate::model::{LstmModel, StepPlan, StepResult};
use crate::workspace::{ModelPanels, Workspace, WorkspacePool};
use crate::Result;
use eta_tensor::{Matrix, ParallelConfig};
use serde::{Deserialize, Serialize};

/// Default microbatch shard count used by [`Parallelism::with_threads`].
///
/// Fixed independently of the thread count so that every `--threads N`
/// produces the same numbers; 4 shards keeps per-shard batches useful
/// at the harness's small batch sizes while exposing enough parallelism
/// for the thread counts the benches sweep.
pub const DEFAULT_SHARDS: usize = 4;

/// Execution policy of the data-parallel training engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads executing shards concurrently. Purely a latency
    /// knob: results never depend on it.
    pub threads: usize,
    /// Microbatch shards per training step. **This** is the numerics
    /// knob: changing it changes reduction order (within tolerance);
    /// keeping it fixed makes runs bit-reproducible at any thread
    /// count.
    pub shards: usize,
    /// Kernel-level parallelism used inside each shard's GEMMs. Leave
    /// serial when sharding (the shard workers already own the
    /// threads); useful on its own for single-shard large-model runs.
    pub kernel: ParallelConfig,
}

impl Parallelism {
    /// Single-shard, single-thread execution — exactly the serial
    /// trainer (the default).
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            shards: 1,
            kernel: ParallelConfig::serial(),
        }
    }

    /// `threads` shard workers over the fixed [`DEFAULT_SHARDS`]
    /// microbatch split. `with_threads(1)` and `with_threads(8)` run
    /// the same sharded computation and produce bit-identical results.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            shards: DEFAULT_SHARDS,
            kernel: ParallelConfig::serial(),
        }
    }

    /// Thread count from `ETA_THREADS` when set (invalid values fall
    /// back to 1), otherwise the hardware's available parallelism —
    /// the policy behind `run_all --threads N`.
    pub fn from_env() -> Self {
        Self::with_threads(ParallelConfig::from_env().threads)
    }

    /// Overrides the shard count (0 is clamped to 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the kernel-level config.
    pub fn with_kernel(mut self, kernel: ParallelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Whether the microbatch engine (rather than the plain serial
    /// step) will run.
    pub fn is_sharded(&self) -> bool {
        self.shards > 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

/// Contiguous row ranges `(start, len)` splitting `batch` rows into at
/// most `shards` non-empty shards by ceiling division. Depends only on
/// `(batch, shards)` — never on thread count — which anchors the
/// determinism contract.
pub fn shard_ranges(batch: usize, shards: usize) -> Vec<(usize, usize)> {
    if batch == 0 || shards <= 1 {
        return vec![(0, batch)];
    }
    let per = batch.div_ceil(shards);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    while start < batch {
        let len = per.min(batch - start);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

/// The rows `[start, start + len)` of a target set.
fn slice_targets(targets: &Targets, start: usize, len: usize) -> Targets {
    match targets {
        Targets::Classes(v) => {
            debug_assert!(start <= v.len() && len <= v.len() - start);
            Targets::Classes(v[start..start + len].to_vec())
        }
        Targets::Regression(m) => Targets::Regression(m.rows_slice(start, len)),
        Targets::StepClasses(steps) => Targets::StepClasses(
            steps
                .iter()
                .map(|v| {
                    debug_assert!(start <= v.len() && len <= v.len() - start);
                    v[start..start + len].to_vec()
                })
                .collect(),
        ),
        Targets::StepRegression(steps) => {
            Targets::StepRegression(steps.iter().map(|m| m.rows_slice(start, len)).collect())
        }
    }
}

/// Whether `targets` carries exactly `batch` rows (malformed targets
/// are delegated to the serial step, whose shape errors name the
/// offending dimension).
fn targets_cover_batch(targets: &Targets, batch: usize, seq_len: usize) -> bool {
    match targets {
        Targets::Classes(v) => v.len() == batch,
        Targets::Regression(m) => m.rows() == batch,
        Targets::StepClasses(steps) => {
            steps.len() == seq_len && steps.iter().all(|v| v.len() == batch)
        }
        Targets::StepRegression(steps) => {
            steps.len() == seq_len && steps.iter().all(|m| m.rows() == batch)
        }
    }
}

/// Merges `right` into `left`: losses and gradients add (weights were
/// pre-scaled per shard), magnitudes add, compression stats merge.
fn merge_step_results(left: &mut StepResult, right: &StepResult) -> Result<()> {
    left.loss += right.loss;
    for (a, b) in left.grads.cells.iter_mut().zip(right.grads.cells.iter()) {
        a.accumulate(b)?;
    }
    left.grads.head.accumulate(&right.grads.head)?;
    for (a, b) in left.magnitudes.iter_mut().zip(right.magnitudes.iter()) {
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x += y;
        }
    }
    left.p1_stats.merge(&right.p1_stats);
    left.ms3_overflow |= right.ms3_overflow;
    left.ms3_recompute_cells += right.ms3_recompute_cells;
    left.ms3_conv.merge(&right.ms3_conv);
    Ok(())
}

/// One full training step under the data-parallel microbatch engine.
///
/// Splits the batch into [`Parallelism::shards`] row shards, runs each
/// shard's `train_step_ws` independently (up to [`Parallelism::threads`]
/// at a time), pre-scales every shard result by its batch fraction, and
/// tree-reduces in fixed shard order. With `shards <= 1` (or a batch
/// too small to split) this is exactly [`LstmModel::train_step_ws`].
///
/// Shard-combined `magnitudes` are the batch-fraction-weighted sums of
/// the per-shard magnitudes — a deterministic estimator of the serial
/// measurement (norms do not decompose exactly over shards).
///
/// Worker `w` always uses pool slot `w`, so a long-lived
/// [`WorkspacePool`] (the trainer owns one) gives every shard worker
/// steady-state zero-alloc scratch, and all workers share the read-only
/// `panels` (`None` packs per layer call). Workspaces and panels are
/// latency-only — the determinism contract (results depend on the shard
/// count, never the thread count) holds with or without them, as does
/// every fallback path.
///
/// # Errors
///
/// Propagates the first shard's error in shard order (deterministic),
/// or the serial step's shape errors for malformed inputs.
#[allow(clippy::too_many_arguments)]
pub fn train_step_sharded_ws(
    model: &LstmModel,
    xs: &[Matrix],
    targets: &Targets,
    plan: &StepPlan,
    instruments: &Instruments,
    par: &Parallelism,
    panels: Option<&ModelPanels>,
    pool: &mut WorkspacePool,
) -> Result<StepResult> {
    let seq_len = model.config().seq_len;
    let _step_span = instruments.span("step");
    // Malformed batches take the serial path so error messages are
    // identical with and without the engine.
    let first_rows = xs.first().map_or(0, Matrix::rows);
    let uniform =
        !xs.is_empty() && xs.len() == seq_len && xs.iter().all(|x| x.rows() == first_rows);
    let batch = first_rows;
    let ranges = if par.is_sharded() && uniform && targets_cover_batch(targets, batch, seq_len) {
        shard_ranges(batch, par.shards)
    } else {
        Vec::new()
    };
    if ranges.len() <= 1 {
        return model.train_step_ws(xs, targets, plan, instruments, panels, pool.slot(0));
    }

    // Materialize every shard's inputs up front (fixed order).
    let shard_inputs: Vec<Vec<Matrix>> = ranges
        .iter()
        .map(|&(start, len)| xs.iter().map(|x| x.rows_slice(start, len)).collect())
        .collect();
    let shard_targets: Vec<Targets> = ranges
        .iter()
        .map(|&(start, len)| slice_targets(targets, start, len))
        .collect();

    let run_shard = |i: usize, ws: &mut Workspace| {
        // Root the shard's span stack so its trace structure is
        // `shard/...` whether it runs on a worker thread (empty stack)
        // or inline on the caller (under `epoch/batch/step`) — trace
        // structure must be thread-count invariant, like the numerics.
        let _shard_span = instruments.span_root("shard");
        debug_assert!(i < shard_inputs.len() && i < shard_targets.len());
        model.train_step_ws(
            &shard_inputs[i],
            &shard_targets[i],
            plan,
            instruments,
            panels,
            ws,
        )
    };

    let mut slots: Vec<Option<Result<StepResult>>> = (0..ranges.len()).map(|_| None).collect();
    // Worker count is a pure latency knob: the shard split and merge
    // order are fixed above, so clamping to the machine (the shim
    // backs every spawn with an OS thread) cannot change results.
    let workers = par
        .threads
        .min(ranges.len())
        .min(rayon::current_num_threads())
        .max(1);
    debug_assert!(workers <= rayon::current_num_threads());
    if workers <= 1 {
        let ws = pool.slot(0);
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_shard(i, ws));
        }
    } else {
        // Round-robin shard→worker assignment; each worker drains its
        // own bucket with its own workspace, writing into disjoint
        // result slots.
        type Bucket<'s> = Vec<(usize, &'s mut Option<Result<StepResult>>)>;
        let mut buckets: Vec<Bucket> = (0..workers).map(|_| Vec::new()).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            buckets[i % workers].push((i, slot));
        }
        let run_shard = &run_shard;
        let ws_slots = pool.slots_mut(workers);
        rayon::scope(|scope| {
            for (bucket, ws) in buckets.into_iter().zip(ws_slots.iter_mut()) {
                scope.spawn(move |_| {
                    for (i, slot) in bucket {
                        *slot = Some(run_shard(i, ws));
                    }
                });
            }
        });
    }

    // Errors propagate in shard order so failures are deterministic too.
    let mut results = Vec::with_capacity(ranges.len());
    for slot in slots {
        match slot {
            Some(r) => results.push(r?),
            None => {
                return Err(crate::LstmError::Config(
                    "internal: shard slot left unfilled".to_string(),
                ))
            }
        }
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "times the reduce for `reduce_seconds`, a report field no arithmetic reads"
    )]
    let reduce_start = std::time::Instant::now();
    let _reduce_span = instruments.span("reduce");
    // Pre-scale each shard by its batch fraction: per-shard losses and
    // gradients are shard means, so the weighted sum reproduces the
    // full-batch mean exactly.
    for (result, &(_, len)) in results.iter_mut().zip(ranges.iter()) {
        let w = len as f64 / batch as f64;
        result.loss *= w;
        for g in &mut result.grads.cells {
            g.scale(w as f32);
        }
        result.grads.head.scale(w as f32);
        for row in &mut result.magnitudes {
            for v in row.iter_mut() {
                *v *= w;
            }
        }
    }
    // Deterministic tree reduction: pair (0,1), (2,3), … until one
    // result remains. The pairing depends only on the shard count.
    while results.len() > 1 {
        let mut next = Vec::with_capacity(results.len().div_ceil(2));
        let mut iter = results.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                merge_step_results(&mut left, &right)?;
            }
            next.push(left);
        }
        results = next;
    }
    let Some(mut combined) = results.pop() else {
        return Err(crate::LstmError::Config(
            "internal: empty shard reduction".to_string(),
        ));
    };
    // Plan-level counters are per-step, not per-shard.
    combined.cells_total = model.config().layers * seq_len;
    combined.cells_skipped = plan
        .skip
        .as_ref()
        .map(|p| (p.skip_fraction() * combined.cells_total as f64).round() as usize)
        .unwrap_or(0);
    combined.shards = ranges.len();
    combined.reduce_seconds = reduce_start.elapsed().as_secs_f64();
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LstmConfig;
    use eta_tensor::init;

    fn config(batch: usize) -> LstmConfig {
        LstmConfig::builder()
            .input_size(6)
            .hidden_size(8)
            .layers(2)
            .seq_len(5)
            .batch_size(batch)
            .output_size(4)
            .build()
            .unwrap()
    }

    /// The sharded step with no panels and a fresh workspace pool.
    fn fresh_sharded_step(
        model: &LstmModel,
        xs: &[Matrix],
        targets: &Targets,
        plan: &StepPlan,
        instruments: &Instruments,
        par: &Parallelism,
    ) -> Result<StepResult> {
        let pool = &mut WorkspacePool::new();
        train_step_sharded_ws(model, xs, targets, plan, instruments, par, None, pool)
    }

    fn batch_inputs(cfg: &LstmConfig, seed: u64) -> (Vec<Matrix>, Targets) {
        let xs = (0..cfg.seq_len)
            .map(|t| init::uniform(cfg.batch_size, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let classes = (0..cfg.batch_size).map(|i| i % cfg.output_size).collect();
        (xs, Targets::Classes(classes))
    }

    #[test]
    fn shard_ranges_cover_the_batch_contiguously() {
        for (batch, shards) in [(8usize, 4usize), (10, 4), (3, 8), (1, 2), (7, 3)] {
            let ranges = shard_ranges(batch, shards);
            assert!(ranges.len() <= shards.max(1));
            let mut next = 0;
            for &(start, len) in &ranges {
                assert_eq!(start, next, "batch={batch} shards={shards}");
                assert!(len > 0);
                next = start + len;
            }
            assert_eq!(next, batch);
        }
        assert_eq!(shard_ranges(4, 1), vec![(0, 4)]);
    }

    #[test]
    fn sharded_step_matches_serial_within_reduction_tolerance() {
        let cfg = config(8);
        let model = LstmModel::new(&cfg, 42);
        let (xs, targets) = batch_inputs(&cfg, 3);
        let inst = Instruments::new();
        let plan = StepPlan::baseline();
        let serial = model.fresh_step(&xs, &targets, &plan, &inst).unwrap();
        let par = Parallelism::with_threads(2);
        let sharded = fresh_sharded_step(&model, &xs, &targets, &plan, &inst, &par).unwrap();
        assert!((serial.loss - sharded.loss).abs() < 1e-9);
        for (a, b) in serial.grads.cells.iter().zip(sharded.grads.cells.iter()) {
            assert!(a.dw.rel_diff(&b.dw) < 1e-5);
            assert!(a.du.rel_diff(&b.du) < 1e-5);
        }
        assert!(serial.grads.head.dw.rel_diff(&sharded.grads.head.dw) < 1e-5);
        assert_eq!(sharded.shards, 4);
        assert_eq!(sharded.cells_total, serial.cells_total);
    }

    #[test]
    fn sharded_step_is_thread_count_invariant() {
        let cfg = config(8);
        let model = LstmModel::new(&cfg, 7);
        let (xs, targets) = batch_inputs(&cfg, 11);
        let inst = Instruments::new();
        let plan = StepPlan::baseline();
        let reference = fresh_sharded_step(
            &model,
            &xs,
            &targets,
            &plan,
            &inst,
            &Parallelism::with_threads(1),
        )
        .unwrap();
        for threads in [2usize, 3, 8] {
            let par = Parallelism::with_threads(threads);
            let r = fresh_sharded_step(&model, &xs, &targets, &plan, &inst, &par).unwrap();
            // Bit-identical, not merely close.
            assert_eq!(
                r.loss.to_bits(),
                reference.loss.to_bits(),
                "threads={threads}"
            );
            for (a, b) in r.grads.cells.iter().zip(reference.grads.cells.iter()) {
                assert_eq!(a.dw, b.dw, "threads={threads}");
                assert_eq!(a.du, b.du, "threads={threads}");
                assert_eq!(a.db, b.db, "threads={threads}");
            }
            assert_eq!(r.grads.head.dw, reference.grads.head.dw);
            assert_eq!(r.magnitudes, reference.magnitudes);
        }
    }

    /// The PR 5 contract at engine level: shared panels and a reused
    /// workspace pool leave the sharded step bit-identical, at every
    /// thread count.
    #[test]
    fn sharded_step_with_pool_and_panels_is_bit_identical() {
        let cfg = config(8);
        let model = LstmModel::new(&cfg, 7);
        let (xs, targets) = batch_inputs(&cfg, 11);
        let inst = Instruments::new();
        let plan = StepPlan::baseline();
        let reference = fresh_sharded_step(
            &model,
            &xs,
            &targets,
            &plan,
            &inst,
            &Parallelism::with_threads(1),
        )
        .unwrap();
        let panels = ModelPanels::pack_with(&model, &ParallelConfig::serial());
        let mut pool = WorkspacePool::new();
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::with_threads(threads);
            // The same pool serves every configuration (worker counts
            // vary; slots are reused and resized on demand).
            let r = train_step_sharded_ws(
                &model,
                &xs,
                &targets,
                &plan,
                &inst,
                &par,
                Some(&panels),
                &mut pool,
            )
            .unwrap();
            assert_eq!(
                r.loss.to_bits(),
                reference.loss.to_bits(),
                "threads={threads}"
            );
            for (a, b) in r.grads.cells.iter().zip(reference.grads.cells.iter()) {
                assert_eq!(a.dw, b.dw, "threads={threads}");
                assert_eq!(a.du, b.du, "threads={threads}");
                assert_eq!(a.db, b.db, "threads={threads}");
            }
            assert_eq!(r.magnitudes, reference.magnitudes);
        }
        assert!(pool.high_water_bytes() > 0);
    }

    #[test]
    fn single_shard_config_is_exactly_serial() {
        let cfg = config(4);
        let model = LstmModel::new(&cfg, 5);
        let (xs, targets) = batch_inputs(&cfg, 9);
        let inst = Instruments::new();
        let plan = StepPlan::baseline();
        let serial = model.fresh_step(&xs, &targets, &plan, &inst).unwrap();
        let sharded =
            fresh_sharded_step(&model, &xs, &targets, &plan, &inst, &Parallelism::serial())
                .unwrap();
        assert_eq!(serial.loss.to_bits(), sharded.loss.to_bits());
        for (a, b) in serial.grads.cells.iter().zip(sharded.grads.cells.iter()) {
            assert_eq!(a.dw, b.dw);
        }
        assert_eq!(sharded.shards, 1);
    }

    /// The reduce is the pairwise tree `(0+1)+(2+3)`, bit for bit. A
    /// left fold `((0+1)+2)+3` rounds differently on this input
    /// (asserted below), so it cannot pass as the tree.
    #[test]
    fn four_shard_reduce_is_the_pairwise_tree_not_a_left_fold() {
        let cfg = config(8);
        let model = LstmModel::new(&cfg, 7);
        let (xs, targets) = batch_inputs(&cfg, 11);
        let inst = Instruments::new();
        let plan = StepPlan::baseline();
        let par = Parallelism::with_threads(1);
        let engine = fresh_sharded_step(&model, &xs, &targets, &plan, &inst, &par).unwrap();
        assert_eq!(engine.shards, 4);

        // Each shard on its own through the serial step, weighted by
        // its batch fraction.
        let weighted_shards = || -> [StepResult; 4] {
            let shards: Vec<StepResult> = shard_ranges(cfg.batch_size, 4)
                .into_iter()
                .map(|(start, len)| {
                    let sx: Vec<Matrix> = xs.iter().map(|x| x.rows_slice(start, len)).collect();
                    let st = slice_targets(&targets, start, len);
                    let mut r = model.fresh_step(&sx, &st, &plan, &inst).unwrap();
                    let w = len as f64 / cfg.batch_size as f64;
                    r.loss *= w;
                    for g in &mut r.grads.cells {
                        g.scale(w as f32);
                    }
                    r.grads.head.scale(w as f32);
                    r
                })
                .collect();
            shards.try_into().expect("batch 8 splits into four shards")
        };
        let add = |mut a: StepResult, b: StepResult| {
            merge_step_results(&mut a, &b).unwrap();
            a
        };
        // Loss and every gradient element as raw bits.
        let bits = |r: &StepResult| -> (u64, Vec<u32>) {
            let cells = r.grads.cells.iter().flat_map(|g| {
                let w = g.dw.as_slice().iter().chain(g.du.as_slice());
                w.chain(&g.db)
            });
            let head = r.grads.head.dw.as_slice().iter().chain(&r.grads.head.db);
            (
                r.loss.to_bits(),
                cells.chain(head).map(|v| v.to_bits()).collect(),
            )
        };

        let [s0, s1, s2, s3] = weighted_shards();
        let tree = add(add(s0, s1), add(s2, s3));
        let [s0, s1, s2, s3] = weighted_shards();
        let left_fold = add(add(add(s0, s1), s2), s3);

        assert_ne!(
            bits(&tree),
            bits(&left_fold),
            "input cannot tell the two orders apart"
        );
        assert_eq!(bits(&engine), bits(&tree));
    }

    #[test]
    fn tiny_batches_degrade_to_fewer_shards() {
        let cfg = config(2);
        let model = LstmModel::new(&cfg, 5);
        let (xs, targets) = batch_inputs(&cfg, 9);
        let inst = Instruments::new();
        let par = Parallelism::with_threads(8); // 4 shards requested, 2 rows available
        let r =
            fresh_sharded_step(&model, &xs, &targets, &StepPlan::baseline(), &inst, &par).unwrap();
        assert_eq!(r.shards, 2);
        assert!(r.loss.is_finite());
    }

    #[test]
    fn malformed_inputs_error_like_serial() {
        let cfg = config(4);
        let model = LstmModel::new(&cfg, 5);
        let short: Vec<Matrix> = (0..2).map(|_| Matrix::zeros(4, 6)).collect();
        let inst = Instruments::new();
        let par = Parallelism::with_threads(4);
        let err = fresh_sharded_step(
            &model,
            &short,
            &Targets::Classes(vec![0; 4]),
            &StepPlan::baseline(),
            &inst,
            &par,
        );
        assert!(err.is_err());
    }

    #[test]
    fn parallelism_constructors() {
        assert!(!Parallelism::serial().is_sharded());
        let p = Parallelism::with_threads(0);
        assert_eq!(p.threads, 1);
        assert_eq!(p.shards, DEFAULT_SHARDS);
        assert!(p.is_sharded());
        assert_eq!(Parallelism::serial().with_shards(0).shards, 1);
        assert!(Parallelism::from_env().threads >= 1);
    }
}
