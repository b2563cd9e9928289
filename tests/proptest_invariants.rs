//! Property-based invariants spanning crates: training produces finite
//! gradients for arbitrary small shapes, the skip planner respects its
//! structural guarantees, and the analytic models are monotone in the
//! optimization effects.

use eta_lstm::core::layer::Instruments;
use eta_lstm::core::model::{LstmModel, StepPlan};
use eta_lstm::core::ms2::{plan_skips, GradPredictor, Ms2Config, MAX_SKIP_FRACTION};
use eta_lstm::core::{LstmConfig, Targets, Workspace};
use eta_lstm::memsim::model::{footprint, traffic, LstmShape, OptEffects};
use eta_lstm::tensor::init;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn train_step_gradients_are_finite_for_any_small_shape(
        input in 2usize..8,
        hidden in 2usize..10,
        layers in 1usize..4,
        seq in 2usize..8,
        batch in 1usize..5,
        seed in 0u64..100,
    ) {
        let classes = 3usize;
        let cfg = LstmConfig::builder()
            .input_size(input)
            .hidden_size(hidden)
            .layers(layers)
            .seq_len(seq)
            .batch_size(batch)
            .output_size(classes)
            .build()
            .expect("valid");
        let model = LstmModel::new(&cfg, seed);
        let xs: Vec<_> = (0..seq)
            .map(|t| init::uniform(batch, input, -1.0, 1.0, seed + t as u64))
            .collect();
        let targets = Targets::Classes((0..batch).map(|i| i % classes).collect());
        let result = model
            .train_step_ws(
                &xs,
                &targets,
                &StepPlan::baseline(),
                &Instruments::new(),
                None,
                &mut Workspace::new(),
            )
            .expect("train step");
        prop_assert!(result.loss.is_finite());
        for g in &result.grads.cells {
            prop_assert!(g.dw.as_slice().iter().all(|v| v.is_finite()));
            prop_assert!(g.du.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn skip_plans_respect_cap_and_keep_guarantees(
        layers in 1usize..6,
        seq in 2usize..64,
        threshold in 0.0f64..1.5,
        beta_sign in proptest::bool::ANY,
        loss in 0.01f64..100.0,
    ) {
        let beta = if beta_sign { 1.0 } else { -1.0 };
        let predictor = GradPredictor { alpha: 1.0, beta };
        let cfg = Ms2Config { skip_threshold: threshold };
        let plan = plan_skips(&predictor, loss, layers, seq, &cfg);
        prop_assert_eq!(plan.keep.len(), layers);
        for (l, row) in plan.keep.iter().enumerate() {
            prop_assert_eq!(row.len(), seq);
            prop_assert!(row.iter().any(|&k| k), "layer {} keeps nothing", l);
            let skipped = row.iter().filter(|&&k| !k).count();
            prop_assert!(
                skipped as f64 <= (seq as f64 * MAX_SKIP_FRACTION).floor() + 1e-9,
                "layer {} skipped {} of {}",
                l, skipped, seq
            );
            prop_assert!(plan.scale[l] >= 1.0);
            prop_assert!(plan.scale[l].is_finite());
        }
    }

    #[test]
    fn footprint_and_traffic_are_monotone_in_effects(
        hidden in 64usize..512,
        layers in 1usize..5,
        seq in 8usize..64,
        density in 0.05f64..0.95,
        skip in 0.0f64..0.5,
    ) {
        let shape = LstmShape::new(hidden, hidden, layers, seq, 16);
        let base_f = footprint(&shape, &OptEffects::baseline()).total();
        let base_t = traffic(&shape, &OptEffects::baseline()).total();
        let opt = OptEffects::combined(density, skip);
        prop_assert!(footprint(&shape, &opt).total() <= base_f);
        prop_assert!(traffic(&shape, &opt).total() <= base_t);

        // Lower density (stronger pruning) never increases footprint.
        let denser = OptEffects::combined((density * 0.5).max(0.01), skip);
        prop_assert!(
            footprint(&shape, &denser).intermediates
                <= footprint(&shape, &opt).intermediates
        );
    }

    #[test]
    fn accelerator_time_and_energy_positive_and_improve_with_effects(
        hidden in 128usize..1024,
        layers in 1usize..4,
        seq in 8usize..64,
    ) {
        use eta_lstm::accel::arch::{AccelConfig, ArchKind, EtaAccel};
        let machine = EtaAccel::new(AccelConfig::paper_4board(), ArchKind::DynArch);
        let shape = LstmShape::new(hidden, hidden, layers, seq, 32);
        let base = machine.simulate(&shape, &OptEffects::baseline());
        let opt = machine.simulate(&shape, &OptEffects::combined(0.4, 0.4));
        prop_assert!(base.time_s > 0.0 && base.energy_j() > 0.0);
        prop_assert!(opt.time_s < base.time_s);
        prop_assert!(opt.energy_j() < base.energy_j());
        prop_assert!(base.utilization > 0.5);
    }
}
