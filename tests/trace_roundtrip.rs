//! Trace-export contract (PR acceptance): a traced training run must
//! produce Chrome trace-event JSON that a strict validator accepts
//! (B/E pairs nest LIFO per thread, timestamps are monotonic, every
//! nested path resolves to its parent), a non-empty collapsed-stack
//! export, and — the determinism half — a span *structure* (multiset
//! of hierarchical paths) that is bit-identical across worker thread
//! counts. Threads are a latency knob, never a structure knob: shard
//! spans are rooted per shard, not per OS thread.

use std::collections::BTreeMap;

use eta_lstm::core::parallel::Parallelism;
use eta_lstm::core::{LstmConfig, Trainer, TrainingStrategy};
use eta_lstm::workloads::SyntheticTask;
use eta_prof::validate_chrome_trace;
use eta_telemetry::{keys, RunManifest, Telemetry};

fn config() -> LstmConfig {
    LstmConfig::builder()
        .input_size(12)
        .hidden_size(16)
        .layers(2)
        .seq_len(12)
        .batch_size(8)
        .output_size(4)
        .build()
        .expect("valid config")
}

fn task() -> SyntheticTask {
    SyntheticTask::classification(12, 4, 12, 3).with_batch_size(8)
}

struct TracedRun {
    structure: BTreeMap<String, u64>,
    chrome_json: String,
    folded: String,
    spans_total: u64,
    kernel_flops: u64,
}

/// Runs one traced training; `test` names the calling test so every
/// test (and every process) exports into a directory of its own —
/// sibling tests run concurrently and each run removes its directory.
fn run_traced(test: &str, threads: usize) -> TracedRun {
    let dir = std::env::temp_dir().join(format!(
        "eta_trace_roundtrip_{test}_t{threads}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let telemetry = Telemetry::new(RunManifest::capture(
        "trace_roundtrip",
        eta_telemetry::config_hash(&42u64),
        42,
    ));
    let session = eta_prof::TraceSession::start(telemetry.clone(), &dir, "trace_roundtrip");
    let mut trainer = Trainer::new(config(), TrainingStrategy::Baseline, 42)
        .expect("trainer")
        .with_telemetry(telemetry.clone())
        .with_parallelism(Parallelism::with_threads(threads));
    trainer.run(&task(), 2).expect("training");
    let structure = session.tracer().structure();
    let trace_path = session.finish().expect("trace export");
    let chrome_json = std::fs::read_to_string(&trace_path).expect("trace file");
    let folded =
        std::fs::read_to_string(dir.join("trace_roundtrip.folded.txt")).expect("folded file");
    let snap = telemetry.snapshot();
    let out = TracedRun {
        structure,
        chrome_json,
        folded,
        spans_total: snap.counter_total(keys::TRACE_SPANS_TOTAL),
        kernel_flops: snap.counter_total(keys::KERNEL_GEMM_FLOPS_TOTAL),
    };
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn chrome_trace_round_trips_and_spans_nest() {
    let run = run_traced("round_trips", 2);
    // Perfetto-loadable: the strict validator parses the JSON, replays
    // every thread's B/E stream, and rejects exit-before-enter,
    // crossed nesting, unparented nested paths, and dangling opens.
    validate_chrome_trace(&run.chrome_json).expect("valid Chrome trace");
    assert!(!run.folded.is_empty(), "collapsed-stack export is empty");
    assert!(run.spans_total > 0, "no spans recorded");
    assert!(run.kernel_flops > 0, "kernel FLOP accounting missing");
}

#[test]
fn trace_structure_covers_the_training_hierarchy() {
    let run = run_traced("hierarchy", 2);
    for path in [
        "epoch",
        "epoch/batch",
        "epoch/batch/pack_panels",
        "epoch/batch/step",
        "epoch/batch/apply",
        "shard",
        "shard/layer_fw",
        "shard/layer_fw/fw_cell",
        "shard/layer_fw/fw_cell/gemm",
        "shard/layer_bp",
        "shard/layer_bp/bp_cell",
    ] {
        assert!(
            run.structure.contains_key(path),
            "span path {path:?} missing from trace structure: {:?}",
            run.structure.keys().collect::<Vec<_>>()
        );
    }
    // The flamegraph folds the same hierarchy by name.
    assert!(run.folded.contains("epoch;batch;step"), "{}", run.folded);
}

#[test]
fn trace_structure_is_identical_across_thread_counts() {
    let reference = run_traced("thread_counts", 1);
    for threads in [2, 4] {
        let run = run_traced("thread_counts", threads);
        assert_eq!(
            reference.structure, run.structure,
            "span structure diverged between 1 and {threads} threads"
        );
    }
}
