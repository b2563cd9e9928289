//! `eta-e2e`: the end-to-end run (`--trace 0`) and `compare`.

use eta_e2e_bench::{cli, e2e, report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: eta-e2e compare A.jsonl B.jsonl");
            return ExitCode::FAILURE;
        };
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("eta-e2e compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    cli::run_workloads("eta-e2e", &args, 0, |w, plan| {
        let outcome = e2e::run_workload(w, plan)?;
        Ok((outcome.result(plan), outcome.notes()))
    })
}
