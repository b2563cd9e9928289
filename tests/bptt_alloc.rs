//! The per-timestep kernels allocate nothing once warm, and BPTT never
//! materialises a weight-sized tensor per cell.
//!
//! This file pins both from outside the libraries, with a counting
//! global allocator of its own. A warm `cell::forward_ws` makes no
//! allocation at all, on the scalar tier and on the packed one: its
//! record and preactivation buffer are reused, so a `vec![…]` or a
//! `Matrix::zeros` slipped into the cell shows up here. The paper's
//! accelerator sums the per-cell outer products of Eq. 3 in a streaming
//! accumulator; the software analogue is that a backward sweep adds
//! every cell's `δW`/`δU` straight into the layer's gradient, so once
//! the workspace is warm the only allocations as large as `δW` in a
//! whole `backward_sequence_ws` sweep are the two matrices of the
//! returned gradient (a per-cell `CellGrads::zeros_like` in the
//! sequence driver's body once hid here). And a training step forms no
//! input gradient for the bottom layer: nothing `[batch, in]`-sized is
//! allocated at all.

#![allow(
    clippy::disallowed_types,
    reason = "the counting allocator's counters are atomics"
)]

use eta_lstm::core::cell::{self, CellForward, CellParams};
use eta_lstm::core::layer::{Instruments, LstmLayer, StorageMode};
use eta_lstm::core::model::{LstmModel, StepPlan};
use eta_lstm::core::workspace::{LayerPanels, Workspace};
use eta_lstm::core::{LstmConfig, Targets};
use eta_lstm::tensor::{init, Matrix, ParallelConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted; `usize::MAX`
/// (nothing can be that large) while disarmed.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Allocations of exactly this many bytes are counted too; 0 while
/// disarmed.
static EXACT: AtomicUsize = AtomicUsize::new(0);
static EXACT_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and counts the large requests.
struct CountLarge;

fn note(size: usize) {
    // Relaxed: a statistic read after the sweep's threads have joined.
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    if size == EXACT.load(Ordering::Relaxed) {
        EXACT_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountLarge {
    // SAFETY: the caller vouches for `layout`; it goes to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller vouches for `layout`; it goes to `System` as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller passes a `ptr` this allocator (hence `System`)
    // returned for `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, per the
        // caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller passes a `ptr` this allocator returned for
    // `layout` and a `new_size` valid for `layout.align()`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` as the caller vouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountLarge = CountLarge;

/// The one test of this binary, so nothing else allocates while the
/// counter is armed.
#[test]
fn backward_sweep_allocates_nothing_weight_sized_but_the_returned_gradient() {
    let inst = Instruments::new();

    // Forward twin: ten warm cell steps allocate nothing, below and
    // above `PACK_MIN_FLOPS`.
    for (batch, input, hidden) in [(4usize, 24usize, 24usize), (32, 512, 512)] {
        let kernel = ParallelConfig::serial();
        let params = CellParams::new(input, hidden, 5);
        let panels = LayerPanels::pack_with(&params, &kernel);
        let x = init::uniform(batch, input, -1.0, 1.0, 11);
        let h_prev = init::uniform(batch, hidden, -1.0, 1.0, 12);
        let s_prev = init::uniform(batch, hidden, -1.0, 1.0, 13);
        let mut preact = Matrix::zeros(0, 0);
        let mut out = CellForward::empty();
        let mut step = || {
            cell::forward_ws(
                &params,
                &panels,
                &x,
                &h_prev,
                &s_prev,
                &kernel,
                &mut preact,
                &inst,
                &mut out,
            )
            .expect("forward")
        };
        step();
        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        THRESHOLD.store(0, Ordering::Relaxed);
        for _ in 0..10 {
            step();
        }
        THRESHOLD.store(usize::MAX, Ordering::Relaxed);
        assert_eq!(
            LARGE_ALLOCS.load(Ordering::Relaxed),
            0,
            "allocations in 10 warm forward_ws calls at batch {batch}, input {input}, \
             hidden {hidden}"
        );
    }

    // input < hidden: δW `[4H, in]` is the smaller of the two weight
    // gradients, and the two products of a flush differ in shape.
    let (seq, batch, input, hidden) = (6usize, 8usize, 96usize, 128usize);
    let dw_bytes = 4 * hidden * input * std::mem::size_of::<f32>();
    let layer = LstmLayer::new(input, hidden, 3);
    let xs: Vec<Matrix> = (0..seq)
        .map(|t| init::uniform(batch, input, -1.0, 1.0, 50 + t as u64))
        .collect();
    let dys: Vec<Matrix> = (0..seq)
        .map(|t| init::uniform(batch, hidden, -0.1, 0.1, 70 + t as u64))
        .collect();

    let mut forced = ParallelConfig::with_threads(2);
    forced.min_kernel_flops = 1;
    for kernel in [ParallelConfig::serial(), forced] {
        let panels = LayerPanels::pack_with(&layer.params, &kernel);
        let mut ws = Workspace::new();
        // One tape per sweep: the instruments release a tape's stored
        // bytes when its backward consumes it.
        let forward = |ws: &mut Workspace| {
            layer
                .forward_sequence_ws(
                    &xs,
                    StorageMode::Dense,
                    &[],
                    None,
                    &kernel,
                    &inst,
                    Some(&panels),
                    ws,
                )
                .expect("forward")
        };
        let sweep = |tape, ws: &mut Workspace| {
            layer
                .backward_sequence_ws(
                    &xs,
                    tape,
                    &dys,
                    1.0,
                    None,
                    &kernel,
                    &inst,
                    Some(&panels),
                    ws,
                )
                .expect("backward")
        };
        let (warm_tape, tape) = (forward(&mut ws), forward(&mut ws));
        let warm = sweep(&warm_tape, &mut ws);

        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        THRESHOLD.store(dw_bytes, Ordering::Relaxed);
        let back = sweep(&tape, &mut ws);
        THRESHOLD.store(usize::MAX, Ordering::Relaxed);

        assert_eq!(
            LARGE_ALLOCS.load(Ordering::Relaxed),
            2,
            "{} kernel thread(s): allocations of >= {dw_bytes} B (the size of dW) in one \
             backward sweep, beyond the returned gradient's dw and du",
            kernel.threads
        );
        assert_eq!(back.grads, warm.grads, "a warm workspace changes no bit");
    }

    // A one-layer model's step: its only layer is the bottom one, and a
    // `δX_t` would be the step's only `[batch, input]` allocation (the
    // inputs exist already; every other matrix is `H`-, `4H`- or
    // `out`-wide).
    let config = LstmConfig::builder()
        .input_size(input)
        .hidden_size(hidden)
        .layers(1)
        .seq_len(seq)
        .batch_size(batch)
        .output_size(5)
        .build()
        .expect("valid config");
    let model = LstmModel::new(&config, 3);
    let targets = Targets::Classes((0..batch).map(|r| r % 5).collect());
    let mut ws = Workspace::new();
    let mut step = || {
        model
            .train_step_ws(&xs, &targets, &StepPlan::baseline(), &inst, None, &mut ws)
            .expect("step")
    };
    step();
    EXACT_ALLOCS.store(0, Ordering::Relaxed);
    EXACT.store(
        batch * input * std::mem::size_of::<f32>(),
        Ordering::Relaxed,
    );
    step();
    EXACT.store(0, Ordering::Relaxed);
    assert_eq!(
        EXACT_ALLOCS.load(Ordering::Relaxed),
        0,
        "[batch, input]-sized allocations in a step whose bottom layer needs no dx"
    );
}
