//! End-to-end training integration tests across the facade crate: every
//! strategy must train a learnable task to convergence, with the
//! instrumented memory behavior the paper claims.

use eta_lstm::core::ms1::Ms1Config;
use eta_lstm::core::strategy::StrategyParams;
use eta_lstm::core::{LstmConfig, Trainer, TrainingStrategy};
use eta_lstm::workloads::SyntheticTask;

fn config() -> LstmConfig {
    LstmConfig::builder()
        .input_size(16)
        .hidden_size(24)
        .layers(2)
        .seq_len(24)
        .batch_size(6)
        .output_size(4)
        .build()
        .expect("valid config")
}

fn task() -> SyntheticTask {
    SyntheticTask::classification(16, 4, 24, 3).with_batch_size(6)
}

#[test]
fn every_strategy_converges() {
    for strategy in TrainingStrategy::ALL {
        let mut trainer = Trainer::new(config(), strategy, 42).expect("trainer");
        let report = trainer.run(&task(), 8).expect("training");
        assert!(
            report.final_loss() < report.epochs[0].mean_loss * 0.6,
            "{strategy}: loss {} -> {} did not converge",
            report.epochs[0].mean_loss,
            report.final_loss()
        );
    }
}

#[test]
fn ms1_zero_threshold_is_bit_exact_over_epochs() {
    let t = task();
    let mut baseline = Trainer::new(config(), TrainingStrategy::Baseline, 42).expect("trainer");
    let mut exact_ms1 = Trainer::new(config(), TrainingStrategy::Ms1, 42)
        .expect("trainer")
        .with_params(StrategyParams {
            ms1: Ms1Config { threshold: 0.0 },
            ..StrategyParams::default()
        });
    let rb = baseline.run(&t, 4).expect("training");
    let rm = exact_ms1.run(&t, 4).expect("training");
    for (b, m) in rb.epochs.iter().zip(rm.epochs.iter()) {
        assert!(
            (b.mean_loss - m.mean_loss).abs() < 1e-9,
            "execution reordering must be exact at threshold 0: {} vs {}",
            b.mean_loss,
            m.mean_loss
        );
    }
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "a lookup table of per-strategy peaks; nothing iterates it"
)]
fn footprint_ordering_matches_paper() {
    // Peak intermediate footprint: baseline > MS1 > Combine-MS, and
    // baseline > MS2 (after warm-up).
    let t = task();
    let mut peaks = std::collections::HashMap::new();
    for strategy in TrainingStrategy::ALL {
        let mut trainer = Trainer::new(config(), strategy, 42).expect("trainer");
        let report = trainer.run(&t, 6).expect("training");
        peaks.insert(
            strategy,
            report.epochs.last().expect("epochs").peak_intermediates,
        );
    }
    let base = peaks[&TrainingStrategy::Baseline];
    assert!(peaks[&TrainingStrategy::Ms1] < base);
    assert!(peaks[&TrainingStrategy::Ms2] < base);
    assert!(peaks[&TrainingStrategy::CombinedMs] < peaks[&TrainingStrategy::Ms1]);
    assert!(peaks[&TrainingStrategy::CombinedMs] < peaks[&TrainingStrategy::Ms2]);
}

#[test]
fn traffic_ordering_matches_paper() {
    let t = task();
    let run = |strategy| {
        let mut trainer = Trainer::new(config(), strategy, 42).expect("trainer");
        let report = trainer.run(&t, 6).expect("training");
        report.epochs.last().expect("epochs").traffic
    };
    let base = run(TrainingStrategy::Baseline);
    let comb = run(TrainingStrategy::CombinedMs);
    // Intermediate-variable traffic must drop sharply (paper: −80 %).
    assert!(
        (comb[2] as f64) < base[2] as f64 * 0.7,
        "combined intermediates traffic {} vs baseline {}",
        comb[2],
        base[2]
    );
}

#[test]
fn convergence_is_not_slowed_by_combine_ms() {
    // Paper Table II: no convergence-speed impact. Compare per-epoch
    // loss trajectories.
    let t = task();
    let mut baseline = Trainer::new(config(), TrainingStrategy::Baseline, 42).expect("trainer");
    let mut combined = Trainer::new(config(), TrainingStrategy::CombinedMs, 42).expect("trainer");
    let rb = baseline.run(&t, 10).expect("training");
    let rc = combined.run(&t, 10).expect("training");
    for (i, (b, c)) in rb.epochs.iter().zip(rc.epochs.iter()).enumerate() {
        assert!(
            c.mean_loss < b.mean_loss * 2.0 + 0.1,
            "epoch {i}: combined loss {} far above baseline {}",
            c.mean_loss,
            b.mean_loss
        );
    }
    assert!(rc.final_loss() < rc.epochs[0].mean_loss * 0.6);
}

#[test]
fn facade_reexports_are_wired() {
    // Compile-time sanity that the facade exposes all subsystems.
    let _ = eta_lstm::tensor::Matrix::zeros(1, 1);
    let _ = eta_lstm::memsim::MemoryTracker::new();
    let _ = eta_lstm::gpu::GpuSpec::v100();
    let _ = eta_lstm::accel::accumulator::AccumulatorSim::default();
    let _ = eta_lstm::workloads::Benchmark::Ptb.spec();
}
