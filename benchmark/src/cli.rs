//! Command line shared by the two binaries. The driver appends
//! `--workload W --seed N --seconds S --trace 0|1`.

use crate::e2e::RunPlan;
use crate::env;
use crate::report::RunResult;
use crate::spec::{self, Workload, WORKLOADS};
use std::process::ExitCode;

#[derive(Debug)]
pub struct Args {
    pub workloads: Vec<&'static Workload>,
    pub plan: RunPlan,
    /// Run-set file each result is appended to (for `eta-e2e compare`).
    pub out: Option<String>,
}

pub const USAGE: &str = "\
  --workload NAME | --all    which workload(s) to run
  --seed N                   model init and task generation (default 42)
  --seconds S                run length; scales timed epochs (default: nominal)
  --quick                    a few steps per workload, loss checks skipped
  --out FILE                 append each result to a run-set file
  --trace 0|1                accepted for the driver; 0 = eta-e2e, 1 = eta-e2e-layers";

/// Parses the arguments of the binary that serves `--trace trace`.
pub fn parse(args: &[String], trace: u8) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut seed = 42u64;
    let mut seconds = None;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workloads.push(spec::find(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--all" => workloads = WORKLOADS.iter().collect(),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                let t: u8 = value()?.parse().map_err(|e| format!("--trace: {e}"))?;
                if t != trace {
                    return Err(format!(
                        "--trace {t} is served by the other binary (run.sh dispatches on it)"
                    ));
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("give --workload NAME or --all".into());
    }
    let mut plan = if quick {
        RunPlan::quick(seed)
    } else {
        RunPlan::nominal(seed)
    };
    if let Some(s) = seconds {
        plan.seconds = s;
    }
    Ok(Args {
        workloads,
        plan,
        out,
    })
}

/// The body both binaries share: pin the environment, print the header,
/// run `one` on every requested workload, print each table, and end —
/// when a single workload was asked for — with the result line the
/// driver reads. Exits 0 only if every output check passed.
pub fn run_workloads(
    bin: &str,
    args: &[String],
    trace: u8,
    one: impl Fn(&Workload, &RunPlan) -> Result<(RunResult, Vec<String>), String>,
) -> ExitCode {
    let run = || -> Result<bool, String> {
        env::check_pinned()?;
        let args = parse(args, trace)?;
        env::print_header(args.plan.seed, args.plan.seconds);
        let mut all_correct = true;
        let mut last_line = None;
        for w in &args.workloads {
            let (result, notes) = one(w, &args.plan)?;
            result.print_table(&notes);
            if let Some(path) = &args.out {
                result.append_to(path)?;
            }
            all_correct &= result.correct();
            last_line = Some(result.result_line()?);
        }
        if let ([_], Some(line)) = (args.workloads.as_slice(), last_line) {
            println!("{line}");
        }
        Ok(all_correct)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("{bin}: an output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{bin}: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
