//! The GRASS workspace benchmark: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <quick-suite|scale-dispatch|trace-io|sweep-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and the metric-to-layer map.

mod harness;
mod quick_suite;
mod scale_dispatch;
mod sweep_fleet;
mod timed;
mod trace_io;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{per_layer_metrics, result_line, RunResult, END_TO_END};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["quick-suite", "scale-dispatch", "trace-io", "sweep-fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    Ok(match args.workload.as_str() {
        "quick-suite" => quick_suite::run(seed, seconds, trace),
        "scale-dispatch" => scale_dispatch::run(seed, seconds, trace),
        "trace-io" => trace_io::run(seed, seconds, trace, &WorkDir::create("trace-io")?.0),
        "sweep-fleet" => sweep_fleet::run(seed, seconds, trace, &WorkDir::create("sweep-fleet")?.0),
        other => unreachable!("workload {other} was validated"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    result
        .metrics
        .set("failed_frac", result.checks.failed_frac());

    for note in &result.notes {
        println!("# {note}");
    }
    for message in &result.checks.messages {
        println!("# FAILED {message}");
    }
    println!(
        "# host {}",
        harness::host_facts(&args.workload, args.seed, args.seconds, args.trace)
    );
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let units: BTreeMap<String, &str> = per_layer_metrics()
        .into_iter()
        .chain(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect();
    for name in result.metrics.names() {
        let value = result.metrics.get(name).unwrap_or(0.0);
        let unit = units.get(name).copied().unwrap_or("");
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{}", result_line(&result.checks, &result.metrics, &wanted));
    ExitCode::SUCCESS
}
