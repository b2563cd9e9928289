//! Property-based equivalence of the training strategies and execution
//! engines (PR satellite: strategy-equivalence suite).
//!
//! On arbitrary small configs and seeds:
//!
//! - **MS1 at threshold 0 is *exactly* equal to Baseline** — execution
//!   reordering with lossless compression must be bit-exact, gradient
//!   for gradient;
//! - **warm-up CombinedMs equals Baseline within 1e-5** relative
//!   tolerance (during warm-up no cell is skipped, so only the MS1
//!   storage path differs);
//! - **the sharded data-parallel engine matches the serial step within
//!   1e-5** relative tolerance on every gradient, and within 1e-9 on
//!   the loss (the shard reduction re-orders f32 sums, nothing more).

use eta_lstm::core::layer::Instruments;
use eta_lstm::core::model::{LstmModel, StepPlan, StepResult};
use eta_lstm::core::ms1::Ms1Config;
use eta_lstm::core::parallel::{train_step_sharded_ws, Parallelism};
use eta_lstm::core::{LstmConfig, Targets, Workspace, WorkspacePool};
use eta_lstm::tensor::{init, Matrix};
use proptest::prelude::*;

fn random_case(
    input: usize,
    hidden: usize,
    layers: usize,
    seq: usize,
    batch: usize,
    seed: u64,
) -> (LstmModel, Vec<Matrix>, Targets) {
    let classes = 3usize;
    let cfg = LstmConfig::builder()
        .input_size(input)
        .hidden_size(hidden)
        .layers(layers)
        .seq_len(seq)
        .batch_size(batch)
        .output_size(classes)
        .build()
        .expect("valid config");
    let model = LstmModel::new(&cfg, seed);
    let xs: Vec<_> = (0..seq)
        .map(|t| init::uniform(batch, input, -1.0, 1.0, seed + t as u64))
        .collect();
    let targets = Targets::Classes((0..batch).map(|i| i % classes).collect());
    (model, xs, targets)
}

fn max_grad_rel_diff(a: &StepResult, b: &StepResult) -> f64 {
    let mut max = 0.0f64;
    for (ga, gb) in a.grads.cells.iter().zip(b.grads.cells.iter()) {
        max = max.max(ga.dw.rel_diff(&gb.dw));
        max = max.max(ga.du.rel_diff(&gb.du));
    }
    max.max(a.grads.head.dw.rel_diff(&b.grads.head.dw))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MS1 with threshold 0 keeps every P1 value, so the reordered
    /// backward must reproduce the baseline gradients **bit for bit**.
    #[test]
    fn ms1_threshold_zero_is_bitwise_baseline(
        input in 2usize..8,
        hidden in 2usize..10,
        layers in 1usize..4,
        seq in 2usize..8,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (model, xs, targets) = random_case(input, hidden, layers, seq, batch, seed);
        let inst = Instruments::new();
        let base = model
            .train_step_ws(
                &xs,
                &targets,
                &StepPlan::baseline(),
                &inst,
                None,
                &mut Workspace::new(),
            )
            .expect("baseline step");
        let ms1_plan = StepPlan {
            ms1: Some(Ms1Config { threshold: 0.0 }),
            ..StepPlan::baseline()
        };
        let ms1 = model
            .train_step_ws(&xs, &targets, &ms1_plan, &inst, None, &mut Workspace::new())
            .expect("ms1 step");
        prop_assert_eq!(base.loss.to_bits(), ms1.loss.to_bits());
        for (gb, gm) in base.grads.cells.iter().zip(ms1.grads.cells.iter()) {
            prop_assert_eq!(&gb.dw, &gm.dw);
            prop_assert_eq!(&gb.du, &gm.du);
            prop_assert_eq!(&gb.db, &gm.db);
        }
        prop_assert_eq!(&base.grads.head.dw, &ms1.grads.head.dw);
    }

    /// During MS2 warm-up no cell is skipped, so CombinedMs is the MS1
    /// storage path plus a no-op skip plan: gradients within 1e-5 of
    /// Baseline (identical up to the default MS1 pruning threshold 0 —
    /// we pin threshold 0 here; pruned thresholds are approximations by
    /// design and are covered by the looser layer-level tests).
    #[test]
    fn warmup_combined_matches_baseline(
        input in 2usize..8,
        hidden in 2usize..10,
        layers in 1usize..3,
        seq in 2usize..8,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (model, xs, targets) = random_case(input, hidden, layers, seq, batch, seed);
        let inst = Instruments::new();
        let base = model
            .train_step_ws(
                &xs,
                &targets,
                &StepPlan::baseline(),
                &inst,
                None,
                &mut Workspace::new(),
            )
            .expect("baseline step");
        // Warm-up CombinedMs: MS1 storage, skip: None (no plan yet).
        let combined_plan = StepPlan {
            ms1: Some(Ms1Config { threshold: 0.0 }),
            skip: None,
            ..StepPlan::baseline()
        };
        let combined = model
            .train_step_ws(&xs, &targets, &combined_plan, &inst, None, &mut Workspace::new())
            .expect("combined step");
        prop_assert!((base.loss - combined.loss).abs() < 1e-9);
        prop_assert!(max_grad_rel_diff(&base, &combined) < 1e-5);
    }

    /// The microbatch engine must agree with the serial step within the
    /// f32 reduction-reorder tolerance for every strategy's plan, and
    /// be bit-identical across thread counts.
    #[test]
    fn sharded_engine_matches_serial_for_every_strategy(
        input in 2usize..8,
        hidden in 2usize..10,
        layers in 1usize..3,
        seq in 2usize..6,
        batch in 2usize..9,
        seed in 0u64..1000,
        ms1 in proptest::bool::ANY,
    ) {
        let (model, xs, targets) = random_case(input, hidden, layers, seq, batch, seed);
        let inst = Instruments::new();
        let plan = if ms1 {
            StepPlan {
                ms1: Some(Ms1Config { threshold: 0.0 }),
                ..StepPlan::baseline()
            }
        } else {
            StepPlan::baseline()
        };
        let serial = model
            .train_step_ws(&xs, &targets, &plan, &inst, None, &mut Workspace::new())
            .expect("serial step");
        let sharded = train_step_sharded_ws(
            &model,
            &xs,
            &targets,
            &plan,
            &inst,
            &Parallelism::with_threads(2),
            None,
            &mut WorkspacePool::new(),
        )
        .expect("sharded step");
        prop_assert!((serial.loss - sharded.loss).abs() < 1e-9,
            "loss {} vs {}", serial.loss, sharded.loss);
        prop_assert!(max_grad_rel_diff(&serial, &sharded) < 1e-5);

        // Thread count is a pure latency knob: bit-identical results.
        let threads8 = train_step_sharded_ws(
            &model,
            &xs,
            &targets,
            &plan,
            &inst,
            &Parallelism::with_threads(8),
            None,
            &mut WorkspacePool::new(),
        )
        .expect("8-thread step");
        prop_assert_eq!(sharded.loss.to_bits(), threads8.loss.to_bits());
        for (a, b) in sharded.grads.cells.iter().zip(threads8.grads.cells.iter()) {
            prop_assert_eq!(&a.dw, &b.dw);
            prop_assert_eq!(&a.du, &b.du);
        }
    }
}
