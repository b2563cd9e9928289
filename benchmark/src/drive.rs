//! The traced run: the only file that names layer-level items.
//!
//! It replays the trainer loop from outside — `Task::batch` →
//! `PanelCache::checkout_with` → `parallel::train_step_sharded_ws` →
//! `LstmModel::apply` — with a span around each call, then probes single
//! layers on the workload's own model and shapes. Spans are recorded by
//! this file, kept in memory, and written out when the run ends.

use eta_e2e_bench::e2e::{self, RunPlan, TimedTask};
use eta_e2e_bench::env;
use eta_e2e_bench::report::{Check, Metric, RunResult};
use eta_e2e_bench::spec::{Workload, WORKLOAD_SEED};
use eta_e2e_bench::stats::{self, median};
use eta_lstm_core::layer::{Instruments, LayerTape, StorageMode, TapeEntry};
use eta_lstm_core::model::StepPlan;
use eta_lstm_core::ms1::P1Packet;
use eta_lstm_core::ms2::{self, GradPredictor, LossHistory};
use eta_lstm_core::optimizer::{Optimizer, Sgd};
use eta_lstm_core::strategy::StrategyParams;
use eta_lstm_core::{
    parallel, persist, Batch, LossScaler, LstmModel, PanelCache, Parallelism, TrainingStrategy,
    Workspace, WorkspacePool,
};
use eta_memsim::DataCategory;
use eta_prof::TraceSession;
use eta_telemetry::{RunManifest, Telemetry};
use eta_tensor::{init, lowp, ConvStats, Matrix, ParallelConfig, SparseVec, Store};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Where span files and the library's own trace artifacts go.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    /// Index of the span that caused this one.
    parent: Option<usize>,
}

/// Bench-side span recorder: `{name, start, end, parent}` per call into
/// a layer, in memory until [`Spans::write`].
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (the innermost open span) and returns its seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed().as_nanos();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    fn write(&self, workload: &str) -> Result<PathBuf, String> {
        let dir = out_dir();
        let path = dir.join(format!("{workload}.trace.json"));
        let mut json = String::with_capacity(self.spans.len() * 80);
        json.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            // Writing to a String cannot fail.
            let _ = writeln!(
                json,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        json.push_str("]\n");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// The replayed trainer loop
// ---------------------------------------------------------------------

/// Per-step seconds of each replayed call, plus the whole step.
#[derive(Default)]
struct StepTimes {
    batch: Vec<f64>,
    pack: Vec<f64>,
    fwbw: Vec<f64>,
    apply: Vec<f64>,
    step: Vec<f64>,
}

struct Replay {
    /// Mean loss per epoch, the number `Trainer::run` reports.
    epoch_losses: Vec<f64>,
    step_losses: Vec<f64>,
    /// Timed epochs only (epoch 0 is warm-up here too).
    times: StepTimes,
    pack_count: u64,
    hit_count: u64,
    panel_bytes: u64,
    high_water_bytes: u64,
    reduce_s: Vec<f64>,
    shards: usize,
    density: Vec<f64>,
    recompute_cells: Vec<f64>,
    overflow_skips: u64,
    /// Epoch-0 per-cell gradient magnitudes, summed over batches — what
    /// the trainer calibrates MS2 from.
    magnitudes: Vec<Vec<f64>>,
}

/// The trainer's per-epoch plan for the pre-MS2 epochs (the replay never
/// goes past them).
fn step_plan(w: &Workload, par: &Parallelism, params: &StrategyParams) -> StepPlan {
    StepPlan {
        ms1: w.strategy.uses_ms1().then_some(params.ms1),
        skip: None,
        ms3: w.strategy.uses_ms3().then_some(params.ms3),
        loss_scale: 1.0,
        kernel: if par.is_sharded() {
            ParallelConfig::serial()
        } else {
            par.kernel
        },
    }
}

/// Runs `epochs` epochs (at most `max_steps` steps) of the trainer's loop
/// body, call for call, including its bookkeeping, so a replayed step
/// costs what a `Trainer::run` step costs and computes the same bits.
/// Returns the measurements and the trained model.
fn replay(
    w: &Workload,
    seed: u64,
    par: &Parallelism,
    epochs: usize,
    max_steps: usize,
    spans: &mut Spans,
) -> Result<(Replay, LstmModel), String> {
    assert!(
        !w.strategy.uses_ms2() || epochs <= ms2::WARMUP_EPOCHS,
        "the replay has no MS2 plan"
    );
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: replay {what}: {e}", w.name);
    let task = w.task(seed);
    let mut model = LstmModel::new(&w.config()?, WORKLOAD_SEED);
    let params = StrategyParams::default();
    let mut optimizer = Optimizer::sgd(Sgd::default());
    let mut scaler = LossScaler::new(&params.ms3);
    let mut cache = PanelCache::new();
    let mut pool = WorkspacePool::new();
    let plan = step_plan(w, par, &params);
    let ms3_active = w.strategy.uses_ms3();

    let mut r = Replay {
        epoch_losses: Vec::new(),
        step_losses: Vec::new(),
        times: StepTimes::default(),
        pack_count: 0,
        hit_count: 0,
        panel_bytes: 0,
        high_water_bytes: 0,
        reduce_s: Vec::new(),
        shards: 1,
        density: Vec::new(),
        recompute_cells: Vec::new(),
        overflow_skips: 0,
        magnitudes: Vec::new(),
    };
    let mut steps_done = 0;
    'epochs: for epoch in 0..epochs {
        let instruments = Instruments::new();
        let mut losses = Vec::new();
        for b in 0..task.batches_per_epoch() {
            if steps_done == max_steps {
                break 'epochs;
            }
            steps_done += 1;
            let step_id = spans.enter("trainer.step");

            let id = spans.enter("workloads.batch");
            let batch = task.batch(epoch, b);
            let batch_s = spans.exit(id);

            let id = spans.enter("core.workspace.checkout");
            let panels = cache.checkout_with(&model, &plan.kernel);
            let pack_s = spans.exit(id);
            r.panel_bytes = panels.size_bytes();

            let mut step_plan = plan.clone();
            if ms3_active {
                step_plan.loss_scale = scaler.scale();
            }
            let id = spans.enter("core.step.fwbw");
            let result = parallel::train_step_sharded_ws(
                &model,
                &batch.inputs,
                &batch.targets,
                &step_plan,
                &instruments,
                par,
                Some(panels),
                &mut pool,
            )
            .map_err(|e| fail("train_step_sharded_ws", &e))?;
            let fwbw_s = spans.exit(id);

            losses.push(result.loss);
            r.step_losses.push(result.loss);
            r.shards = r.shards.max(result.shards);
            if epoch == 0 {
                if r.magnitudes.is_empty() {
                    r.magnitudes = result.magnitudes.clone();
                } else {
                    for (acc, row) in r.magnitudes.iter_mut().zip(&result.magnitudes) {
                        for (a, &m) in acc.iter_mut().zip(row) {
                            *a += m;
                        }
                    }
                }
            }
            let apply = !ms3_active || scaler.on_step(result.ms3_overflow);
            let mut apply_s = 0.0;
            if apply {
                let id = spans.enter("core.optimizer.apply");
                model
                    .apply(&mut optimizer, &result.grads)
                    .map_err(|e| fail("apply", &e))?;
                apply_s = spans.exit(id);
                cache.invalidate();
            } else {
                r.overflow_skips += 1;
            }
            // The trainer frees the simulated DRAM between iterations.
            let snap = instruments.mem.snapshot();
            for cat in [
                DataCategory::Weights,
                DataCategory::Activations,
                DataCategory::Intermediates,
            ] {
                instruments.mem.free(cat, snap.live(cat));
            }
            drop(batch);
            let step_s = spans.exit(step_id);

            if epoch > 0 {
                r.times.batch.push(batch_s);
                r.times.pack.push(pack_s);
                r.times.fwbw.push(fwbw_s);
                r.times.apply.push(apply_s);
                r.times.step.push(step_s);
                r.reduce_s.push(result.reduce_seconds);
                r.recompute_cells.push(result.ms3_recompute_cells as f64);
                if result.p1_stats.total > 0 {
                    r.density
                        .push(result.p1_stats.kept as f64 / result.p1_stats.total as f64);
                }
            }
        }
        r.epoch_losses
            .push(losses.iter().sum::<f64>() / losses.len() as f64);
    }
    r.pack_count = cache.pack_count();
    r.hit_count = cache.hit_count();
    r.high_water_bytes = pool.high_water_bytes();
    Ok((r, model))
}

// ---------------------------------------------------------------------
// Isolated probes
// ---------------------------------------------------------------------

/// Median seconds of `f` over at least `min_reps` calls and 50 ms.
fn time_median<R>(min_reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < 0.05 {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples)
}

/// How the engine splits a step: rows per shard, shard count, and
/// workers running shards side by side. Probe seconds measured on one
/// shard become wall-equivalent step seconds through `scale`.
struct Split {
    rows: usize,
    shards: usize,
    workers: usize,
}

impl Split {
    fn of(w: &Workload, par: &Parallelism) -> Self {
        let ranges = parallel::shard_ranges(w.batch, par.shards);
        let shards = ranges.len();
        Split {
            rows: ranges[0].1,
            shards,
            workers: par.threads.min(shards).min(env::threads_available()).max(1),
        }
    }

    fn scale(&self) -> f64 {
        self.shards as f64 / self.workers as f64
    }
}

struct LayerProbe {
    fw_s: f64,
    bp_s: f64,
    tapes: Vec<LayerTape>,
}

/// Sum over layers of one `forward_sequence_ws` and one
/// `backward_sequence_ws` call under the workload's storage mode, on one
/// shard's rows of a real batch.
fn probe_layers(
    w: &Workload,
    model: &LstmModel,
    batch: &Batch,
    split: &Split,
    spans: &mut Spans,
) -> Result<LayerProbe, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: probe {what}: {e}", w.name);
    let params = StrategyParams::default();
    let mode = if w.strategy.uses_ms1() {
        StorageMode::Compressed(params.ms1)
    } else {
        StorageMode::Dense
    };
    let ms3 = w.strategy.uses_ms3().then_some(params.ms3);
    let kernel = ParallelConfig::serial();
    let instruments = Instruments::new();
    let mut cache = PanelCache::new();
    let panels = cache.checkout_with(model, &kernel);
    let mut ws = Workspace::new();
    let xs: Vec<Matrix> = batch
        .inputs
        .iter()
        .map(|x| x.rows_slice(0, split.rows))
        .collect();
    let dys: Vec<Matrix> = (0..w.seq_len)
        .map(|t| init::uniform(split.rows, w.hidden, -0.01, 0.01, 7 + t as u64))
        .collect();

    // Two passes; the first grows the workspace and is discarded.
    let mut fw_s = 0.0;
    let mut bp_s = 0.0;
    let mut tapes: Vec<LayerTape> = Vec::new();
    for pass in 0..2 {
        tapes.clear();
        (fw_s, bp_s) = (0.0, 0.0);
        for (l, layer) in model.layers().iter().enumerate() {
            let input: &[Matrix] = tapes.last().map_or(&xs[..], |t: &LayerTape| &t.hs[..]);
            let id = spans.enter(if pass == 0 {
                "probe.warm.layer.fw"
            } else {
                "core.layer.fw"
            });
            let tape = layer
                .forward_sequence_ws(
                    input,
                    mode,
                    &[],
                    ms3.as_ref(),
                    &kernel,
                    &instruments,
                    panels.layer(l),
                    &mut ws,
                )
                .map_err(|e| fail("forward_sequence_ws", &e))?;
            fw_s += spans.exit(id);
            tapes.push(tape);
        }
        for (l, layer) in model.layers().iter().enumerate().rev() {
            let input: &[Matrix] = if l == 0 { &xs } else { &tapes[l - 1].hs };
            let id = spans.enter(if pass == 0 {
                "probe.warm.layer.bp"
            } else {
                "core.layer.bp"
            });
            let back = layer
                .backward_sequence_ws(
                    input,
                    &tapes[l],
                    &dys,
                    1.0,
                    ms3.as_ref(),
                    &kernel,
                    &instruments,
                    panels.layer(l),
                    &mut ws,
                )
                .map_err(|e| fail("backward_sequence_ws", &e))?;
            bp_s += spans.exit(id);
            black_box(back);
        }
    }
    Ok(LayerProbe {
        fw_s: fw_s * split.scale(),
        bp_s: bp_s * split.scale(),
        tapes,
    })
}

struct GemmProbe {
    /// Wall-equivalent seconds per step spent in each orientation.
    fw_nt_step_s: f64,
    bp_nn_step_s: f64,
    bp_tn_step_s: f64,
    fw_nt_gflops: f64,
    bp_nn_gflops: f64,
    bp_tn_gflops: f64,
    ops_per_byte: f64,
}

/// The cell GEMMs at the workload's shapes against the model's own
/// packed panels, cycling through every layer's W and U as a step does.
fn probe_gemms(w: &Workload, model: &LstmModel, split: &Split) -> GemmProbe {
    let kernel = ParallelConfig::serial();
    let mut cache = PanelCache::new();
    let panels = cache.checkout_with(model, &kernel);
    let m = split.rows;
    let h4 = 4 * w.hidden;
    let dgates = init::uniform(m, h4, -0.1, 0.1, 11);
    // Per layer: the input-side and the hidden-side operand.
    let operands: Vec<(Matrix, Matrix)> = (0..w.layers)
        .map(|l| {
            let input = model.config().layer_input(l);
            (
                init::uniform(m, input, -1.0, 1.0, 13 + l as u64),
                init::uniform(m, w.hidden, -1.0, 1.0, 17 + l as u64),
            )
        })
        .collect();
    // Multiply-adds x2 and computed bytes (operands read once, result
    // written once) of one pass over all layers, per orientation.
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for (x, hprev) in &operands {
        for k in [x.cols(), hprev.cols()] {
            flops += 2.0 * (m * k * h4) as f64;
            bytes += 4.0 * (m * k + k * h4 + m * h4) as f64;
        }
    }

    // The operands above are built to the panels' shapes, so a shape
    // error here is a bug in this file.
    const SHAPES: &str = "probe operands match the packed panels";
    let mut preact = Matrix::zeros(m, h4);
    let fw = time_median(5, || {
        for (p, (x, hprev)) in panels.layers.iter().zip(&operands) {
            x.matmul_nt_packed_into(&p.w_fwd, &mut preact, Store::Assign, &kernel)
                .expect(SHAPES);
            hprev
                .matmul_nt_packed_into(&p.u_fwd, &mut preact, Store::Add, &kernel)
                .expect(SHAPES);
        }
    });
    let nn = time_median(5, || {
        for p in &panels.layers {
            black_box(
                dgates
                    .par_matmul_nn_packed(&p.w_bwd, &kernel)
                    .expect(SHAPES),
            );
            black_box(
                dgates
                    .par_matmul_nn_packed(&p.u_bwd, &kernel)
                    .expect(SHAPES),
            );
        }
    });
    let mut grads: Vec<(Matrix, Matrix)> = operands
        .iter()
        .map(|(x, hprev)| (Matrix::zeros(h4, x.cols()), Matrix::zeros(h4, hprev.cols())))
        .collect();
    let tn = time_median(5, || {
        for ((x, hprev), (dw, du)) in operands.iter().zip(grads.iter_mut()) {
            dgates.matmul_tn_acc_into(x, dw, &kernel).expect(SHAPES);
            dgates.matmul_tn_acc_into(hprev, du, &kernel).expect(SHAPES);
        }
    });
    let per_step = w.seq_len as f64 * split.scale();
    GemmProbe {
        fw_nt_step_s: fw * per_step,
        bp_nn_step_s: nn * per_step,
        bp_tn_step_s: tn * per_step,
        fw_nt_gflops: flops / fw / 1e9,
        bp_nn_gflops: flops / nn / 1e9,
        bp_tn_gflops: flops / tn / 1e9,
        ops_per_byte: flops / bytes,
    }
}

#[derive(Default)]
struct MsProbe {
    sparse_compress_melems: f64,
    sparse_decode_melems: f64,
    lowp_quantize_melems: f64,
    ms1_compress_s: f64,
    ms1_decode_s: f64,
}

/// MS1/MS3 storage work on the packets a real forward pass stored. On a
/// workload that runs neither, all of it is zero: it does none of this
/// work.
fn probe_ms(w: &Workload, tapes: &[LayerTape], split: &Split) -> MsProbe {
    let params = StrategyParams::default();
    let packets: Vec<&P1Packet> = tapes
        .iter()
        .flat_map(|t| &t.entries)
        .filter_map(|e| match e {
            TapeEntry::Compressed(p) => Some(p.as_ref()),
            _ => None,
        })
        .collect();
    let mut probe = MsProbe::default();
    if let Some(first) = packets.first() {
        let threshold = params.ms1.threshold;
        let compress: Vec<f64> = packets
            .iter()
            .take(16)
            .map(|p| {
                let dense = p.decode();
                time_median(3, || P1Packet::compress(&dense, threshold))
            })
            .collect();
        let decode: Vec<f64> = packets
            .iter()
            .take(16)
            .map(|p| time_median(3, || p.decode()))
            .collect();
        // Packets stored per step across shards, wall-equivalent.
        let per_step = packets.len() as f64 * split.scale();
        probe.ms1_compress_s = median(&compress) * per_step;
        probe.ms1_decode_s = median(&decode) * per_step;

        let stream = first.decode().p_i;
        let elems = stream.len() as f64 / 1e6;
        let sparse = SparseVec::compress_matrix(&stream, threshold);
        let mut out = vec![0.0f32; stream.len()];
        probe.sparse_compress_melems =
            elems / time_median(20, || SparseVec::compress_matrix(&stream, threshold));
        probe.sparse_decode_melems = elems / time_median(20, || sparse.decode_into(&mut out));
    }
    if w.strategy.uses_ms3() {
        let precision = params.ms3.precision;
        let source = &tapes[0].hs[0];
        let elems = source.len() as f64 / 1e6;
        let mut scratch = source.clone();
        let mut conv = ConvStats::default();
        probe.lowp_quantize_melems = elems
            / time_median(20, || {
                scratch.as_mut_slice().copy_from_slice(source.as_slice());
                lowp::quantize_matrix(precision, &mut scratch, &mut conv);
            });
    }
    probe
}

struct PersistProbe {
    save_s: f64,
    load_s: f64,
    bytes: usize,
    /// `to_json` → `from_json` → `evaluate` equals the in-memory model's
    /// `evaluate`, bit for bit.
    identical: bool,
}

fn probe_persist(
    w: &Workload,
    model: &LstmModel,
    batch: &Batch,
    spans: &mut Spans,
) -> Result<PersistProbe, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: persist {what}: {e}", w.name);
    let id = spans.enter("core.persist.save");
    let json = persist::to_json(model).map_err(|e| fail("to_json", &e))?;
    let save_s = spans.exit(id);
    let id = spans.enter("core.persist.load");
    let restored = persist::from_json(&json).map_err(|e| fail("from_json", &e))?;
    let load_s = spans.exit(id);
    let a = model
        .evaluate(&batch.inputs, &batch.targets)
        .map_err(|e| fail("evaluate", &e))?;
    let b = restored
        .evaluate(&batch.inputs, &batch.targets)
        .map_err(|e| fail("evaluate restored", &e))?;
    Ok(PersistProbe {
        save_s,
        load_s,
        bytes: json.len(),
        identical: a.0.to_bits() == b.0.to_bits(),
    })
}

/// Sustainable memory bandwidth, as a canary for the shared machine: a
/// plain stream triad `a = b + s*c` over three arrays of 4 x the 54 MiB
/// L3 each. If this moved between two runs, the machine did.
fn probe_triad() -> f64 {
    const LEN: usize = 4 * 54 * (1 << 20) / 4;
    let b = vec![1.0f32; LEN];
    let c = vec![2.0f32; LEN];
    let mut a = vec![0.0f32; LEN];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Two reads and one write per element, computed.
    (3 * 4 * LEN) as f64 / best / 1e9
}

/// Step p50 of a short `Trainer::run` (warm-up epoch + one timed epoch)
/// with telemetry attached, and with an eta-prof `TraceSession` on top.
fn instrumented_step_p50(w: &Workload, seed: u64, with_trace: bool) -> Result<f64, String> {
    let manifest = RunManifest {
        binary: "eta-e2e-layers".into(),
        config_hash: "0".into(),
        seed,
        git_describe: "unknown".into(),
        started_unix_ms: 0,
    };
    let (telemetry, _events) = Telemetry::with_memory(manifest);
    let session = with_trace
        .then(|| TraceSession::start(telemetry.clone(), &out_dir(), &format!("{}.prof", w.name)));
    let task = w.task(seed);
    let bpe = w.batches_per_epoch;
    let timed = TimedTask::new(task.as_ref(), 2 * bpe);
    let mut trainer = w.trainer()?.with_telemetry(telemetry);
    trainer
        .run(&timed, 2)
        .map_err(|e| format!("{}: instrumented run: {e}", w.name))?;
    let end = Instant::now();
    if let Some(s) = session {
        s.finish()
            .map_err(|e| format!("{}: trace session: {e}", w.name))?;
    }
    let steps = e2e::timed_steps(&timed.into_stamps(), bpe, end);
    Ok(median(&steps))
}

// ---------------------------------------------------------------------
// The traced run of one workload
// ---------------------------------------------------------------------

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-layer metrics and output checks of `w`, plus the notes printed
/// under the table.
pub fn trace_workload(w: &Workload, plan: &RunPlan) -> Result<(RunResult, Vec<String>), String> {
    let w = &plan.size(w);
    let seed = plan.seed;
    let full = plan.full_length();
    let par = w.parallelism();
    let split = Split::of(w, &par);
    let mut spans = Spans::new();
    let mut notes = Vec::new();
    let mut checks = Vec::new();

    // 1. The reference: a short end-to-end run through `Trainer::run`,
    // timed exactly as `eta-e2e` times it. With MS2 it runs two epochs
    // past the warm-up epochs so skipping engages.
    let replay_epochs = 1 + if full { w.traced_epochs } else { 1 };
    let e2e_timed = if full && w.strategy.uses_ms2() {
        ms2::WARMUP_EPOCHS + 1
    } else {
        replay_epochs - 1
    };
    let short = Workload {
        timed_epochs: e2e_timed,
        eval_batches: (w.eval_batches / 10).max(2),
        ..*w
    };
    let id = spans.enter("e2e.trainer.run");
    let reference = e2e::run_scaled(&short, seed, 1)?;
    spans.exit(id);
    let bpe = w.batches_per_epoch;
    // Steps comparable with the replay: the pre-MS2 timed epochs.
    let pre_ms2_steps = &reference.steps_s[..(replay_epochs - 1) * bpe];
    let e2e_p50 = median(pre_ms2_steps);

    // 2. The same epochs replayed from outside, call by call.
    let (r, model) = replay(w, seed, &par, replay_epochs, usize::MAX, &mut spans)?;
    let ref_losses = reference.epoch_losses();
    checks.push(Check::new(
        "replay-bit-identical",
        bits_equal(&r.epoch_losses, &ref_losses[..replay_epochs]),
        format!(
            "replayed epoch losses {:?} vs Trainer::run {:?}",
            r.epoch_losses,
            &ref_losses[..replay_epochs]
        ),
    ));
    let t = &r.times;
    let (batch_s, pack_s, fwbw_s, apply_s) = (
        median(&t.batch),
        median(&t.pack),
        median(&t.fwbw),
        median(&t.apply),
    );
    let replay_p50 = median(&t.step);
    let replay_ratio = replay_p50 / e2e_p50;
    if !(0.97..=1.03).contains(&replay_ratio) {
        notes.push(format!(
            "NOTE bench.replay_overhead_ratio {replay_ratio:.4} outside [0.97, 1.03]: replay and Trainer::run disagree on step cost (see README: allocator state)"
        ));
    }
    notes.push(format!(
        "replay: {} timed steps, step p50 {replay_p50:.6} s vs Trainer::run {e2e_p50:.6} s",
        t.step.len()
    ));

    // 3. Engine checks on the sharded workload: thread count must not
    // change a bit, and the serial engine is the speed-up base.
    let mut speedup = 1.0;
    if par.is_sharded() {
        let steps = 3.min(r.step_losses.len());
        let one = Parallelism { threads: 1, ..par };
        let id = spans.enter("check.threads1");
        let (single, _) = replay(w, seed, &one, replay_epochs, steps, &mut spans)?;
        spans.exit(id);
        checks.push(Check::new(
            "threads-bit-identical",
            bits_equal(&single.step_losses, &r.step_losses[..steps]),
            format!(
                "{steps} steps at threads 1 {:?} vs threads {} {:?}",
                single.step_losses,
                par.threads,
                &r.step_losses[..steps]
            ),
        ));
        let id = spans.enter("probe.serial_engine");
        // One batch per epoch: a warm-up step and two timed ones.
        let one_batch = Workload {
            batches_per_epoch: 1,
            ..*w
        };
        let (serial, _) = replay(&one_batch, seed, &Parallelism::serial(), 3, 3, &mut spans)?;
        spans.exit(id);
        let serial_fwbw = median(&serial.times.fwbw);
        speedup = serial_fwbw / fwbw_s;
        notes.push(format!(
            "core.parallel.speedup_vs_serial = serial fwbw {serial_fwbw:.4} s / sharded fwbw {fwbw_s:.4} s, {} threads available",
            env::threads_available()
        ));
    }

    // 4. Single layers on the trained model and a held-out batch.
    let task = w.task(seed);
    let batch = task.batch(2000, 0);
    let layers = probe_layers(w, &model, &batch, &split, &mut spans)?;
    let gemm = probe_gemms(w, &model, &split);
    let ms = probe_ms(w, &layers.tapes, &split);
    let persisted = probe_persist(w, &model, &batch, &mut spans)?;
    checks.push(Check::new(
        "persist-bit-identical",
        persisted.identical,
        "to_json -> from_json -> evaluate vs the in-memory model".into(),
    ));
    let other_s = fwbw_s - layers.fw_s - layers.bp_s;
    let gemm_step_s = gemm.fw_nt_step_s + gemm.bp_nn_step_s + gemm.bp_tn_step_s;

    // 5. MS2's plan, made the way the trainer makes it at epoch 3, and
    // the Baseline run the memory savers are priced against.
    let mut plan_s = 0.0;
    let mut skip_fraction = 0.0;
    let mut step_cost_vs_baseline = 1.0;
    let mut heap_vs_baseline = 1.0;
    if w.strategy.uses_ms2() && full {
        let params = StrategyParams::default();
        let beta = GradPredictor::beta_for(task.loss_kind());
        let predictor = GradPredictor::calibrate(&r.magnitudes, r.epoch_losses[0], beta);
        let mut history = LossHistory::new();
        r.epoch_losses.iter().for_each(|&l| history.push(l));
        if let Some(predicted) = history.predict_next() {
            let id = spans.enter("core.ms2.plan");
            let skips = ms2::plan_skips(&predictor, predicted, w.layers, w.seq_len, &params.ms2);
            plan_s = spans.exit(id);
            black_box(skips);
        }
        skip_fraction = reference.report.mean_skip_fraction();
    }
    if w.strategy != TrainingStrategy::Baseline {
        let base = Workload {
            strategy: TrainingStrategy::Baseline,
            timed_epochs: 1,
            eval_batches: 1,
            ..*w
        };
        let id = spans.enter("e2e.trainer.run.baseline");
        let baseline = e2e::run_scaled(&base, seed, 1)?;
        spans.exit(id);
        // Steady state: the steps after MS2 engaged, when it did.
        let steady = &reference.steps_s[reference.steps_s.len().saturating_sub(bpe)..];
        step_cost_vs_baseline = median(steady) / baseline.step_s_p50();
        heap_vs_baseline = reference.peak_heap_bytes as f64 / baseline.peak_heap_bytes as f64;
        notes.push(format!(
            "core.ms.step_cost_vs_baseline = {:.4} s / Baseline {:.4} s; core.ms.heap_vs_baseline = {} B / Baseline {} B",
            median(steady),
            baseline.step_s_p50(),
            reference.peak_heap_bytes,
            baseline.peak_heap_bytes
        ));
    }

    // 6. What the program's own instrumentation costs. Where a step
    // takes a large fraction of a second the ratio is 1 to within noise,
    // so one timed step is all it gets.
    let instrumented = Workload {
        timed_epochs: 1,
        batches_per_epoch: if e2e_p50 > 0.1 { 1 } else { bpe },
        ..*w
    };
    let telemetry_ratio = instrumented_step_p50(&instrumented, seed, false)? / e2e_p50;
    let prof_ratio = instrumented_step_p50(&instrumented, seed, true)? / e2e_p50;
    notes.push(format!(
        "telemetry/prof overhead ratios are over the bare step p50 {e2e_p50:.6} s"
    ));

    let triad_gbps = probe_triad();
    let trace_path = spans.write(w.name)?;
    notes.push(format!(
        "{} spans written to {}",
        spans.spans.len(),
        trace_path.display()
    ));

    let tail = stats::tail(pre_ms2_steps);
    notes.push(format!(
        "core.trainer.step_s_tail is p{:.2} of {} steps ({} samples beyond)",
        tail.percentile,
        pre_ms2_steps.len(),
        tail.beyond
    ));
    let report = &reference.report;
    let last_epoch = &report.epochs[report.epochs.len() - 1];
    let footprint = report.peak_footprint() as f64;
    let intermediates = report
        .epochs
        .iter()
        .map(|e| e.peak_intermediates)
        .max()
        .unwrap_or(0);
    let param_bytes = model.param_bytes() as f64;
    let eval_s = median(&reference.eval_s);
    let overhead_s = e2e_p50 - (batch_s + pack_s + fwbw_s + apply_s);

    let m = Metric::new;
    let metrics = vec![
        m("workloads.batch_s", batch_s, "s"),
        m("core.workspace.pack_s", pack_s, "s"),
        m("core.workspace.pack_count", r.pack_count as f64, "count"),
        m("core.workspace.hit_count", r.hit_count as f64, "count"),
        m("core.workspace.panel_bytes", r.panel_bytes as f64, "bytes"),
        m(
            "core.workspace.high_water_bytes",
            r.high_water_bytes as f64,
            "bytes",
        ),
        m("core.step.fwbw_s", fwbw_s, "s"),
        m("core.layer.fw_s", layers.fw_s, "s"),
        m("core.layer.bp_s", layers.bp_s, "s"),
        m("core.model.other_s", other_s, "s"),
        m(
            "core.step.useful_gflops",
            w.useful_flops_per_step() / e2e_p50 / 1e9,
            "GFLOP/s",
        ),
        m("tensor.gemm.fw_nt_gflops", gemm.fw_nt_gflops, "GFLOP/s"),
        m("tensor.gemm.bp_nn_gflops", gemm.bp_nn_gflops, "GFLOP/s"),
        m("tensor.gemm.bp_tn_gflops", gemm.bp_tn_gflops, "GFLOP/s"),
        m("tensor.gemm.ops_per_byte", gemm.ops_per_byte, "FLOP/B"),
        m("tensor.gemm.step_share", gemm_step_s / e2e_p50, "ratio"),
        m(
            "core.layer.fw_nongemm_s",
            layers.fw_s - gemm.fw_nt_step_s,
            "s",
        ),
        m(
            "core.layer.bp_nongemm_s",
            layers.bp_s - gemm.bp_nn_step_s - gemm.bp_tn_step_s,
            "s",
        ),
        m(
            "tensor.sparse.compress_melems_per_s",
            ms.sparse_compress_melems,
            "Melem/s",
        ),
        m(
            "tensor.sparse.decode_melems_per_s",
            ms.sparse_decode_melems,
            "Melem/s",
        ),
        m(
            "tensor.lowp.quantize_melems_per_s",
            ms.lowp_quantize_melems,
            "Melem/s",
        ),
        m("core.ms1.compress_s", ms.ms1_compress_s, "s"),
        m("core.ms1.decode_s", ms.ms1_decode_s, "s"),
        m(
            "core.ms1.density",
            if r.density.is_empty() {
                1.0
            } else {
                median(&r.density)
            },
            "ratio",
        ),
        m("core.ms2.skip_fraction", skip_fraction, "ratio"),
        m("core.ms2.plan_s", plan_s, "s"),
        m(
            "core.ms3.recompute_cells_per_step",
            median(&r.recompute_cells),
            "count",
        ),
        m("core.ms3.overflow_skips", r.overflow_skips as f64, "count"),
        m(
            "core.ms.step_cost_vs_baseline",
            step_cost_vs_baseline,
            "ratio",
        ),
        m("core.ms.heap_vs_baseline", heap_vs_baseline, "ratio"),
        m("core.parallel.reduce_s", median(&r.reduce_s), "s"),
        m("core.parallel.shards", r.shards as f64, "count"),
        m("core.parallel.speedup_vs_serial", speedup, "ratio"),
        m(
            "core.parallel.efficiency",
            speedup / split.workers as f64,
            "ratio",
        ),
        m("core.optimizer.apply_s", apply_s, "s"),
        // Computed bytes: the clip norm reads the gradients, the update
        // reads them again and reads and writes the parameters.
        m(
            "core.optimizer.apply_gbps",
            // No rate when every step overflowed and none was applied.
            if apply_s > 0.0 {
                4.0 * param_bytes / apply_s / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        m("core.inference.eval_s", eval_s, "s"),
        m(
            "core.inference.eval_vs_train_fw",
            eval_s / layers.fw_s,
            "ratio",
        ),
        m("core.persist.save_s", persisted.save_s, "s"),
        m("core.persist.load_s", persisted.load_s, "s"),
        m("core.persist.bytes", persisted.bytes as f64, "bytes"),
        m("core.trainer.overhead_s", overhead_s, "s"),
        m("core.trainer.step_s_tail", tail.value, "s"),
        m(
            "core.alloc.allocs_per_step",
            reference.allocs_per_step,
            "count",
        ),
        m(
            "core.alloc.bytes_per_step",
            reference.alloc_bytes_per_step,
            "bytes",
        ),
        m("memsim.model.footprint_bytes", footprint, "bytes"),
        m(
            "memsim.model.intermediates_bytes",
            intermediates as f64,
            "bytes",
        ),
        m(
            "memsim.traffic_bytes_per_step",
            last_epoch.traffic.iter().sum::<u64>() as f64 / bpe as f64,
            "bytes",
        ),
        m(
            "memsim.model_over_heap",
            footprint / reference.peak_heap_bytes as f64,
            "ratio",
        ),
        m("telemetry.overhead_ratio", telemetry_ratio, "ratio"),
        m("prof.trace_overhead_ratio", prof_ratio, "ratio"),
        m("bench.replay_overhead_ratio", replay_ratio, "ratio"),
        m("machine.triad_gbps", triad_gbps, "GB/s"),
    ];

    let nonfinite = r.step_losses.iter().filter(|l| !l.is_finite()).count();
    checks.push(Check::new(
        "losses-finite",
        nonfinite == 0 && reference.eval_failed == 0,
        format!(
            "{nonfinite} non-finite replayed losses, {} failed eval batches",
            reference.eval_failed
        ),
    ));
    let attempted = ref_losses.len() * bpe + reference.eval_s.len() + r.step_losses.len();
    let failed_checks = checks.iter().filter(|c| c.failed()).count();
    let failed = (nonfinite + reference.eval_failed + failed_checks).min(attempted);
    Ok((
        RunResult {
            workload: w.name,
            seed,
            attempted,
            failed,
            checks,
            metrics,
        },
        notes,
    ))
}
