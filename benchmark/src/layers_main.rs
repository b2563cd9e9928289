//! `eta-e2e-layers`: the traced run (`--trace 1`), which prints the
//! per-layer metrics and writes the span files.

mod drive;

use eta_e2e_bench::cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::run_workloads("eta-e2e-layers", &args, 1, drive::trace_workload)
}
