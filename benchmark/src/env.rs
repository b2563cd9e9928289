//! Pins the environment and says what machine the numbers come from.

use crate::spec::WORKLOADS;
use std::process::Command;

/// Variables that would silently change the engine or the kernel tier.
/// Engines are set only through `Parallelism` in `spec.rs`.
const FORBIDDEN_ENV: [&str; 2] = ["ETA_THREADS", "ETA_SIMD"];

/// Refuses to run when the environment would pick the engine.
pub fn check_pinned() -> Result<(), String> {
    match FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set: the benchmark fixes engines through Parallelism only; unset it"
        )),
        None => Ok(()),
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of cpu0's cache at `index` (sysfs prints e.g. `1280K`).
fn cache_bytes(index: usize) -> Option<u64> {
    let s = read_trimmed(&format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))?;
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        _ => (&s[..], 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout in the current directory, read from
/// `.git` directly (the driver's checkout has none).
fn git_sha() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The header every run starts with.
pub fn print_header(seed: u64, seconds: u64) {
    let (l2, l3) = (cache_bytes(2), cache_bytes(3));
    let show = |b: Option<u64>| b.map_or("unknown".to_string(), |b| format!("{} KiB", b >> 10));
    println!("# eta-lstm training benchmark");
    println!("# cpu: {} | nproc {}", cpu_model(), threads_available());
    println!(
        "# caches: L1d {} | L2 {} | L3 {}",
        show(cache_bytes(0)),
        show(l2),
        show(l3)
    );
    println!("# rustc: {} | git: {}", rustc_version(), git_sha());
    println!("# seed {seed} | --seconds {seconds}");
    for w in &WORKLOADS {
        let ws = w.working_set_bytes();
        let ratio =
            |c: Option<u64>| c.map_or("?".to_string(), |c| format!("{:.2}", ws as f64 / c as f64));
        println!(
            "# {:<18} working set {:>9} KiB (weights + panels + gradients, computed) = {} x L2, {} x L3",
            w.name,
            ws >> 10,
            ratio(l2),
            ratio(l3)
        );
    }
}
