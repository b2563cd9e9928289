//! MS3 footprint regression tests (PR satellite): memsim-backed
//! assertions that the recompute tape scales as ~1/k, that the
//! MS1×MS2×MS3 composition never regresses past any of its components,
//! and that the roadmap's headline — ≥ 40 % peak-footprint reduction on
//! the LN7 shape at k = 4 + bf16 on top of Combine-MS — holds in the
//! analytic model. The full strategy × shape matrix is committed as
//! `results/ms3_strategy_matrix.txt` (written by the `ms3_matrix`
//! harness binary) so reviewers see the numbers the assertions gate;
//! the test re-renders it and fails if the committed file has drifted.

use eta_lstm::core::strategy::StrategyParams;
use eta_lstm::core::TrainingStrategy;
use eta_lstm::memsim::model::{footprint, traffic, FootprintBreakdown, LstmShape, OptEffects};
use std::fmt::Write as _;
use std::path::Path;

/// Representative measured effects (Fig. 6 / Table II neighbourhood):
/// MS1 keeps ~35 % of P1 values, MS2 skips ~49 % of BP cells.
const P1_DENSITY: f64 = 0.35;
const SKIP_FRACTION: f64 = 0.49;

fn ln_shape(layers: usize) -> LstmShape {
    LstmShape::new(2048, 2048, layers, 35, 128)
}

/// Strategy → memsim effects, with MS3 knobs from the repo-default
/// `StrategyParams` (k = 4, bf16) — the same mapping the bench harness
/// uses.
fn effects_for(strategy: TrainingStrategy) -> OptEffects {
    let ms3 = StrategyParams::default().ms3;
    let (k, bytes) = (ms3.k, ms3.precision.bytes_per_element());
    match strategy {
        TrainingStrategy::Baseline => OptEffects::baseline(),
        TrainingStrategy::Ms1 => OptEffects::ms1(P1_DENSITY),
        TrainingStrategy::Ms2 => OptEffects::ms2(SKIP_FRACTION),
        TrainingStrategy::CombinedMs => OptEffects::combined(P1_DENSITY, SKIP_FRACTION),
        TrainingStrategy::Ms3 => OptEffects::ms3(k, bytes),
        TrainingStrategy::CombinedAll => {
            OptEffects::combined(P1_DENSITY, SKIP_FRACTION).with_ms3(k, bytes)
        }
    }
}

#[test]
fn tape_bytes_scale_as_one_over_k() {
    let shape = ln_shape(7);
    let base = footprint(&shape, &OptEffects::baseline());
    for k in [2usize, 4, 8] {
        // f32 storage isolates the checkpointing lever.
        let ckpt = footprint(&shape, &OptEffects::ms3(k, 4));
        let ratio = ckpt.intermediates as f64 / base.intermediates as f64;
        let expect = 1.0 / k as f64;
        assert!(
            (ratio - expect).abs() < 1e-9,
            "k={k}: tape ratio {ratio} != 1/k = {expect}"
        );
        // Checkpointing alone must not touch activations or weights.
        assert_eq!(ckpt.activations, base.activations);
        assert_eq!(ckpt.weights, base.weights);
    }
}

#[test]
fn narrow_storage_halves_what_checkpointing_leaves() {
    let shape = ln_shape(7);
    let f32_k4 = footprint(&shape, &OptEffects::ms3(4, 4));
    let bf16_k4 = footprint(&shape, &OptEffects::ms3(4, 2));
    assert_eq!(bf16_k4.intermediates * 2, f32_k4.intermediates);
    assert_eq!(bf16_k4.activations * 2, f32_k4.activations);
    assert_eq!(bf16_k4.weights, f32_k4.weights);
}

/// The three-way composition must never exceed any single component's
/// footprint, in total or per category — the savings compose
/// multiplicatively, they don't fight.
#[test]
fn composition_never_exceeds_any_component() {
    for layers in 5..=8usize {
        let shape = ln_shape(layers);
        let all = footprint(&shape, &effects_for(TrainingStrategy::CombinedAll));
        for component in [
            TrainingStrategy::Ms1,
            TrainingStrategy::Ms2,
            TrainingStrategy::Ms3,
            TrainingStrategy::CombinedMs,
        ] {
            let part = footprint(&shape, &effects_for(component));
            assert!(
                all.total() <= part.total(),
                "LN{layers}: Combine-All total {} exceeds {component} total {}",
                all.total(),
                part.total()
            );
            assert!(
                all.intermediates <= part.intermediates,
                "LN{layers}/{component}"
            );
            assert!(
                all.activations <= part.activations,
                "LN{layers}/{component}"
            );
            assert!(all.weights <= part.weights, "LN{layers}/{component}");
        }
    }
}

/// Roadmap acceptance gate: MS1×MS2×MS3 at k = 4 + bf16 cuts the LN7
/// peak footprint by at least 40 % relative to baseline — and MS3 must
/// contribute beyond what Combine-MS achieves alone.
#[test]
fn ln7_combined_all_footprint_reduction_at_least_forty_percent() {
    let shape = ln_shape(7);
    let base = footprint(&shape, &OptEffects::baseline());
    let combined_ms = footprint(&shape, &effects_for(TrainingStrategy::CombinedMs));
    let all = footprint(&shape, &effects_for(TrainingStrategy::CombinedAll));
    let reduction = 1.0 - all.total() as f64 / base.total() as f64;
    assert!(
        reduction >= 0.40,
        "LN7 Combine-All footprint reduction {reduction:.4} below the 40 % gate"
    );
    assert!(
        all.total() < combined_ms.total(),
        "MS3 adds nothing on top of Combine-MS at LN7"
    );
}

/// Recompute is not free: MS3 must show *more* weight traffic than
/// baseline (the replayed FW weight stream) while still reducing total
/// traffic — the paper-faithful compute-for-memory trade.
#[test]
fn ms3_trades_weight_traffic_for_footprint() {
    let shape = ln_shape(7);
    let base = traffic(&shape, &OptEffects::baseline());
    let ms3 = traffic(&shape, &effects_for(TrainingStrategy::Ms3));
    assert!(
        ms3.weights > base.weights,
        "recompute has no weight-traffic cost?"
    );
    assert!(ms3.total() < base.total());
}

/// Renders the strategy × LN-shape footprint matrix and compares it
/// with the committed `results/` artifact, so the artifact cannot drift
/// from the model — without the test writing into the source tree.
#[test]
fn strategy_matrix_artifact_is_current() {
    const GIB: f64 = (1u64 << 30) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "MS3 strategy matrix — peak footprint per training iteration (GiB)\n\
         p1_density={P1_DENSITY}, skip_fraction={SKIP_FRACTION}, \
         MS3: k=4, bf16 storage (StrategyParams defaults)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "strategy", "LN5", "LN6", "LN7", "LN8", "LN7 red."
    );
    let baseline_ln7 = footprint(&ln_shape(7), &OptEffects::baseline()).total();
    for strategy in TrainingStrategy::ALL_WITH_MS3 {
        let eff = effects_for(strategy);
        let totals: Vec<FootprintBreakdown> =
            (5..=8).map(|l| footprint(&ln_shape(l), &eff)).collect();
        let ln7 = totals[2].total();
        let _ = writeln!(
            out,
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9.1}%",
            strategy.to_string(),
            totals[0].total() as f64 / GIB,
            totals[1].total() as f64 / GIB,
            totals[2].total() as f64 / GIB,
            totals[3].total() as f64 / GIB,
            (1.0 - ln7 as f64 / baseline_ln7 as f64) * 100.0,
        );
    }
    assert_eq!(
        out.lines().count(),
        4 + TrainingStrategy::ALL_WITH_MS3.len()
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/ms3_strategy_matrix.txt");
    let committed = std::fs::read_to_string(&path).expect("read results/ms3_strategy_matrix.txt");
    assert_eq!(
        committed, out,
        "results/ms3_strategy_matrix.txt is stale; regenerate it with \
         `cargo run --release -p eta-bench --bin ms3_matrix`"
    );
}
