//! The end-to-end run: drive the system exactly as a user does, through
//! one `Trainer::run` call, and time it from outside.
//!
//! A step is the gap between two consecutive `Task::batch` calls (batch
//! generation + panel checkout + forward/backward + optimizer apply +
//! trainer bookkeeping). Epoch 0 is warm-up (first pack, workspace
//! growth, page faults) and belongs to set-up; epochs 1.. are timed.

use crate::alloc;
use crate::report::{Check, Metric, RunResult};
use crate::spec::{Workload, NOMINAL_SECONDS};
use crate::stats;
use eta_lstm_core::{Batch, LossKind, Task, TrainingReport};
use std::cell::RefCell;
use std::time::Instant;

/// One `Task::batch` call as seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// When the trainer asked for the batch: the step boundary.
    pub start: Instant,
    /// When the batch was handed over.
    pub end: Instant,
    /// Allocator counters at `start`.
    pub heap: alloc::HeapSnapshot,
}

/// Wraps a task and records when each batch is asked for. The first
/// batch of epoch 1 opens the timed region: the heap peak restarts
/// there.
pub struct TimedTask<'a> {
    inner: &'a dyn Task,
    stamps: RefCell<Vec<Stamp>>,
}

impl<'a> TimedTask<'a> {
    /// `expected_calls` sizes the stamp buffer up front so recording
    /// never reallocates inside the timed region.
    pub fn new(inner: &'a dyn Task, expected_calls: usize) -> Self {
        TimedTask {
            inner,
            stamps: RefCell::new(Vec::with_capacity(expected_calls)),
        }
    }

    pub fn into_stamps(self) -> Vec<Stamp> {
        self.stamps.into_inner()
    }
}

impl Task for TimedTask<'_> {
    fn batch(&self, epoch: usize, index: usize) -> Batch {
        if epoch == 1 && index == 0 {
            alloc::reset_peak();
        }
        let heap = alloc::snapshot();
        let start = Instant::now();
        let batch = self.inner.batch(epoch, index);
        let end = Instant::now();
        self.stamps.borrow_mut().push(Stamp { start, end, heap });
        batch
    }

    fn batches_per_epoch(&self) -> usize {
        self.inner.batches_per_epoch()
    }

    fn loss_kind(&self) -> LossKind {
        self.inner.loss_kind()
    }
}

/// How a run is sized and judged.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    pub seed: u64,
    pub seconds: u64,
    /// Set-ups per run; `setup_s` is their median. All but the first are
    /// throw-away trainers that stop after the warm-up epoch.
    pub setup_reps: usize,
    /// `--quick`: a few steps per workload. Every metric is still
    /// printed, but the trajectory is not the nominal one.
    pub quick: bool,
}

impl RunPlan {
    pub fn nominal(seed: u64) -> Self {
        RunPlan {
            seed,
            seconds: NOMINAL_SECONDS,
            setup_reps: 3,
            quick: false,
        }
    }

    pub fn quick(seed: u64) -> Self {
        RunPlan {
            seed,
            seconds: 1,
            setup_reps: 1,
            quick: true,
        }
    }

    /// `w` as this plan runs it: timed epochs scaled to `seconds`, and at
    /// most two batches per epoch when quick.
    pub fn size(&self, w: &Workload) -> Workload {
        let mut sized = w.scaled(self.seconds);
        if self.quick {
            sized.batches_per_epoch = sized.batches_per_epoch.min(2);
        }
        sized
    }

    /// Whether the run covers the whole nominal trajectory, which the
    /// loss checks (and the traced run's MS2 epochs) need.
    pub fn full_length(&self) -> bool {
        !self.quick && self.seconds >= NOMINAL_SECONDS
    }
}

/// Everything measured in one end-to-end run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    /// Whole-step seconds over the timed region, in order.
    pub steps_s: Vec<f64>,
    /// `Task::batch` seconds over the timed region.
    pub batch_s: Vec<f64>,
    pub timed_wall_s: f64,
    /// Timed wall at the end of each timed epoch.
    pub epoch_end_s: Vec<f64>,
    pub report: TrainingReport,
    /// `LstmModel::evaluate` seconds per held-out batch.
    pub eval_s: Vec<f64>,
    pub eval_failed: usize,
    /// Peak live heap over the timed region and evaluation.
    pub peak_heap_bytes: usize,
    pub allocs_per_step: f64,
    pub alloc_bytes_per_step: f64,
}

/// Step boundaries of a timed region: each batch request, then the end
/// of the run.
fn step_boundaries(timed_stamps: &[Stamp], run_end: Instant) -> Vec<Instant> {
    let mut boundaries: Vec<Instant> = timed_stamps.iter().map(|s| s.start).collect();
    boundaries.push(run_end);
    boundaries
}

fn step_seconds(boundaries: &[Instant]) -> Vec<f64> {
    boundaries
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64())
        .collect()
}

/// Whole-step seconds of the stamps after the first `warm` ones.
pub fn timed_steps(stamps: &[Stamp], warm: usize, run_end: Instant) -> Vec<f64> {
    step_seconds(&step_boundaries(&stamps[warm..], run_end))
}

/// Trains and evaluates `workload` as `plan` sizes it.
pub fn run_workload(workload: &Workload, plan: &RunPlan) -> Result<Outcome, String> {
    run_scaled(&plan.size(workload), plan.seed, plan.setup_reps)
}

/// Trains and evaluates `w` exactly as sized.
pub fn run_scaled(w: &Workload, seed: u64, setup_reps: usize) -> Result<Outcome, String> {
    let bpe = w.batches_per_epoch;
    let epochs = 1 + w.timed_epochs;
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", w.name);

    let t0 = Instant::now();
    let task = w.task(seed);
    let mut trainer = w.trainer()?;
    let timed = TimedTask::new(task.as_ref(), epochs * bpe);
    let report = trainer
        .run(&timed, epochs)
        .map_err(|e| fail("Trainer::run", &e))?;
    let run_end = Instant::now();
    let stamps = timed.into_stamps();
    if stamps.len() != epochs * bpe {
        return Err(format!(
            "{}: trainer asked for {} batches, expected {}",
            w.name,
            stamps.len(),
            epochs * bpe
        ));
    }
    let timed_stamps = &stamps[bpe..];
    let region_start = timed_stamps[0].start;
    let mut setup_s = vec![(region_start - t0).as_secs_f64()];

    let boundaries = step_boundaries(timed_stamps, run_end);
    let steps_s = step_seconds(&boundaries);
    let epoch_end_s = (1..=w.timed_epochs)
        .map(|e| (boundaries[e * bpe] - region_start).as_secs_f64())
        .collect();
    let batch_s = timed_stamps
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect();

    // Allocation rate over the steps whose both boundaries carry a
    // snapshot (all but the last).
    let (first, last) = (
        timed_stamps[0].heap,
        timed_stamps[timed_stamps.len() - 1].heap,
    );
    let spanned = (timed_stamps.len() - 1).max(1) as f64;
    let allocs_per_step = (last.allocs - first.allocs) as f64 / spanned;
    let alloc_bytes_per_step = (last.bytes - first.bytes) as f64 / spanned;

    // Held-out, forward-only: the wrapper path through
    // `LstmModel::evaluate`. Batch generation is outside the timer.
    let mut eval_s = Vec::with_capacity(w.eval_batches);
    let mut eval_failed = 0;
    for i in 0..w.eval_batches {
        let batch = task.batch(epochs + 1000, i);
        let t = Instant::now();
        let result = trainer.model().evaluate(&batch.inputs, &batch.targets);
        eval_s.push(t.elapsed().as_secs_f64());
        if !matches!(result, Ok((loss, _)) if loss.is_finite()) {
            eval_failed += 1;
        }
    }
    let peak_heap_bytes = alloc::snapshot().peak;

    // The measured run goes first so that it sees a fresh process, as a
    // user's run does (on the large shapes step time depends on what the
    // allocator has been through); the extra set-ups follow it.
    drop(trainer);
    for _ in 1..setup_reps {
        let t0 = Instant::now();
        let task = w.task(seed);
        let mut trainer = w.trainer()?;
        trainer
            .run(task.as_ref(), 1)
            .map_err(|e| fail("warm-up epoch", &e))?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    Ok(Outcome {
        workload: *w,
        setup_s,
        steps_s,
        batch_s,
        timed_wall_s: (run_end - region_start).as_secs_f64(),
        epoch_end_s,
        report,
        eval_s,
        eval_failed,
        peak_heap_bytes,
        allocs_per_step,
        alloc_bytes_per_step,
    })
}

impl Outcome {
    /// Mean training loss of every epoch, warm-up included.
    pub fn epoch_losses(&self) -> Vec<f64> {
        self.report.epochs.iter().map(|e| e.mean_loss).collect()
    }

    pub fn step_s_p50(&self) -> f64 {
        stats::median(&self.steps_s)
    }

    /// The seven end-to-end metrics, the operation counts and the output
    /// checks.
    pub fn result(&self, plan: &RunPlan) -> RunResult {
        let w = &self.workload;
        let bpe = w.batches_per_epoch;
        let losses = self.epoch_losses();
        let timed_losses = &losses[1..];
        let final_loss = self.report.final_loss();
        let tokens = w.tokens_per_step() as f64;

        let crossing = stats::first_crossing(timed_losses, w.target_loss);
        let time_to_target_s = crossing.map_or(self.timed_wall_s, |e| self.epoch_end_s[e]);

        let nonfinite_epochs = losses.iter().filter(|l| !l.is_finite()).count();
        let enforce = plan.full_length();
        let skipped = |c: Check| if enforce { c } else { c.skipped("short run") };
        let checks = vec![
            Check::new(
                "losses-finite",
                nonfinite_epochs == 0 && self.eval_failed == 0,
                format!(
                    "{nonfinite_epochs} non-finite epoch losses, {} failed eval batches",
                    self.eval_failed
                ),
            ),
            skipped(Check::new(
                "loss-fell",
                final_loss < losses[0],
                format!("epoch 0 {:.6} -> final {final_loss:.6}", losses[0]),
            )),
            skipped(Check::new(
                "target-reached",
                crossing.is_some(),
                match crossing {
                    Some(e) => format!("loss <= {} at timed epoch {}", w.target_loss, e + 1),
                    None => format!("loss never reached {}", w.target_loss),
                },
            )),
        ];

        let attempted = losses.len() * bpe + self.eval_s.len();
        let failed_checks = checks.iter().filter(|c| c.failed()).count();
        let failed = (nonfinite_epochs * bpe + self.eval_failed + failed_checks).min(attempted);

        let metrics = vec![
            Metric::new(
                "tokens_per_s",
                tokens * self.steps_s.len() as f64 / self.timed_wall_s,
                "1/s",
            ),
            Metric::new("step_s_p50", self.step_s_p50(), "s"),
            Metric::new("time_to_target_s", time_to_target_s, "s"),
            Metric::new("final_loss", final_loss, "loss"),
            // Per-batch median: a handful of held-out batches, so one
            // disturbed batch must not move the rate.
            Metric::new(
                "eval_tokens_per_s",
                tokens / stats::median(&self.eval_s),
                "1/s",
            ),
            Metric::new("peak_heap_bytes", self.peak_heap_bytes as f64, "bytes"),
            Metric::new("setup_s", stats::median(&self.setup_s), "s"),
        ];
        RunResult {
            workload: w.name,
            seed: plan.seed,
            attempted,
            failed,
            checks,
            metrics,
        }
    }

    /// Lines a reader needs next to the metric table: what the medians
    /// are medians of.
    pub fn notes(&self) -> Vec<String> {
        let tail = stats::tail(&self.steps_s);
        // Four significant digits whether the loss is 4.0 or 1.8e-4.
        let losses: Vec<String> = self
            .epoch_losses()
            .iter()
            .map(|&l| {
                if l.abs() >= 0.01 {
                    format!("{l:.4}")
                } else {
                    format!("{l:.3e}")
                }
            })
            .collect();
        vec![
            format!(
                "step_s: {} timed steps, p50 {:.6} s, p{:.2} {:.6} s ({} samples beyond)",
                self.steps_s.len(),
                self.step_s_p50(),
                tail.percentile,
                tail.value,
                tail.beyond
            ),
            format!(
                "setup_s: median of {} set-ups {:?}",
                self.setup_s.len(),
                self.setup_s
            ),
            format!("epoch losses (0 = warm-up): {}", losses.join(" ")),
            format!(
                "heap: {:.0} allocations, {:.0} bytes per timed step",
                self.allocs_per_step, self.alloc_bytes_per_step
            ),
        ]
    }
}
