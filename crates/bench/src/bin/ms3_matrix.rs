//! MS3 strategy matrix — peak footprint and DRAM traffic for every
//! training strategy (Baseline, MS1, MS2, Combine-MS, MS3, Combine-All)
//! across the LN layer sweep, with per-strategy reduction vs baseline.
//!
//! Companion to Fig. 5/Fig. 12: shows what recompute checkpointing plus
//! narrow storage (k = 4, bf16) adds on top of the paper's MS1×MS2
//! combination.
//!
//! Also regenerates `results/ms3_strategy_matrix.txt`, the GiB footprint
//! matrix `tests/ms3_footprint.rs` compares against the model.

use eta_bench::table::{gb, pct};
use eta_bench::{BenchEffects, Table};
use eta_lstm_core::strategy::StrategyParams;
use eta_lstm_core::TrainingStrategy;
use eta_memsim::model::{footprint, traffic, LstmShape, OptEffects};
use std::fmt::Write as _;

/// Representative measured effects (Fig. 6 / Table II neighbourhood).
const P1_DENSITY: f64 = 0.35;
const SKIP_FRACTION: f64 = 0.49;

fn main() {
    let (telemetry, _trace) = eta_bench::instrumentation_from_env("ms3_matrix");
    let ms3 = StrategyParams::default().ms3;
    let effects = BenchEffects {
        p1_density: P1_DENSITY,
        skip_fraction: SKIP_FRACTION,
        ms3_k: ms3.k,
        ms3_bytes_per_element: ms3.precision.bytes_per_element(),
    };

    let shapes: Vec<(String, LstmShape)> = (5..=8)
        .map(|ln| (format!("LN{ln}"), LstmShape::new(2048, 2048, ln, 35, 128)))
        .collect();

    let mut fp_table = Table::new(
        &format!(
            "MS3 matrix — peak footprint per training iteration (GB), \
             MS3: k={}, {} storage",
            ms3.k,
            ms3.precision.label()
        ),
        &["strategy", "LN5", "LN6", "LN7", "LN8", "LN7 reduction"],
    );
    let mut tr_table = Table::new(
        "MS3 matrix — DRAM traffic per training iteration (GB)",
        &["strategy", "LN5", "LN6", "LN7", "LN8", "LN7 reduction"],
    );

    const GIB: f64 = (1u64 << 30) as f64;
    let mut matrix = format!(
        "MS3 strategy matrix — peak footprint per training iteration (GiB)\n\
         p1_density={P1_DENSITY}, skip_fraction={SKIP_FRACTION}, \
         MS3: k=4, bf16 storage (StrategyParams defaults)\n\n\
         {:<12} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "strategy", "LN5", "LN6", "LN7", "LN8", "LN7 red."
    );

    let ln7 = &shapes[2].1;
    let base_fp = footprint(ln7, &OptEffects::baseline()).total();
    let base_tr = traffic(ln7, &OptEffects::baseline()).total();
    for strategy in TrainingStrategy::ALL_WITH_MS3 {
        let eff = effects.for_strategy(strategy);
        let fps: Vec<u64> = shapes
            .iter()
            .map(|(_, s)| footprint(s, &eff).total())
            .collect();
        let trs: Vec<u64> = shapes
            .iter()
            .map(|(_, s)| traffic(s, &eff).total())
            .collect();
        if let Some(t) = &telemetry {
            t.gauge_with(
                eta_telemetry::keys::FOOTPRINT_BYTES,
                eta_telemetry::labels!(config = "LN7", component = strategy.to_string()),
                fps[2] as f64,
            );
        }
        let _ = writeln!(
            matrix,
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9.1}%",
            strategy.to_string(),
            fps[0] as f64 / GIB,
            fps[1] as f64 / GIB,
            fps[2] as f64 / GIB,
            fps[3] as f64 / GIB,
            (1.0 - fps[2] as f64 / base_fp as f64) * 100.0,
        );
        fp_table.row(&[
            strategy.to_string(),
            gb(fps[0]),
            gb(fps[1]),
            gb(fps[2]),
            gb(fps[3]),
            pct(1.0 - fps[2] as f64 / base_fp as f64),
        ]);
        tr_table.row(&[
            strategy.to_string(),
            gb(trs[0]),
            gb(trs[1]),
            gb(trs[2]),
            gb(trs[3]),
            pct(1.0 - trs[2] as f64 / base_tr as f64),
        ]);
    }
    fp_table.print();
    println!();
    tr_table.print();
    println!(
        "\ncontract: Combine-All <= each component per category; LN7\n\
         footprint reduction >= 40% (gated by tests/ms3_footprint.rs)."
    );
    // The artifact goes to the tree, the note to stderr: stdout stays
    // what `results/ms3_matrix.txt` records.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/ms3_strategy_matrix.txt"
    );
    match std::fs::write(path, matrix) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if let Some(t) = telemetry {
        t.flush();
    }
}
