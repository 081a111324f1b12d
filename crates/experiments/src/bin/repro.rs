//! `repro` — regenerate the tables and figures of the GRASS paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--csv] [<experiment-id>...]
//! repro trace record --out <dir> [--jobs N] [--policy P] [--format text|binary|compressed] [...]
//! repro trace gen --out <file> [--jobs N] [--seed S] [--format text|binary|compressed] [...]
//! repro trace replay <workload.trace> [--policy P]
//! repro trace convert <in> <out> --format text|binary|compressed
//! repro trace stats <trace-file>...
//! repro sweep <workload.trace|dir> [--machines 20,50,100] [--policies late,gs,ras,grass]
//!             [--baseline late] [--threads N] [--seeds a,b,c] [--slots N] [--quick]
//!             [--resume <cache-dir>]
//! repro fleet serve <workload.trace|dir> [grid flags] [--port P] [--cache <dir>]
//! repro fleet work --connect <host:port> [--id NAME] [--stall-ms N]
//! repro fleet run <workload.trace|dir> [grid flags] [--workers N] [--cache <dir>]
//! repro lint [--format text|json] [--root <dir>] [paths...]
//! ```
//!
//! With no experiment ids, every experiment is run in paper order. `--quick` uses the
//! reduced configuration (fewer jobs, one seed, smaller cluster) intended for smoke
//! tests; the default configuration averages three seeds on the 200-slot cluster.
//! The `trace` subcommand records, generates, replays, converts and inspects workload/execution
//! traces in either wire format (see `grass_experiments::trace_cli`); `sweep` replays
//! one recorded workload across a cluster-size × policy grid (see
//! `grass_experiments::sweep`).

use std::process::ExitCode;

use grass_experiments::{
    experiment_ids, run_experiment, run_fleet_command, run_lint_command, run_sweep_command,
    run_trace_command, ExpConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("trace") {
        return match run_trace_command(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("repro trace: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return match run_sweep_command(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("repro sweep: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("lint") {
        return match run_lint_command(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("repro lint: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("fleet") {
        return match run_fleet_command(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("repro fleet: {message}");
                ExitCode::FAILURE
            }
        };
    }

    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }

    let config = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    let ids: Vec<&str> = if requested.is_empty() {
        experiment_ids()
    } else {
        requested
    };

    let mut failed = false;
    for id in ids {
        match run_experiment(id, &config) {
            Some(report) => {
                if csv {
                    for table in &report.tables {
                        println!("# {}", table.title);
                        println!("{}", table.render_csv());
                    }
                } else {
                    println!("{}", report.render_text());
                }
            }
            None => {
                eprintln!(
                    "unknown experiment id '{id}'; known ids: {}",
                    experiment_ids().join(", ")
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_help() {
    println!("repro — regenerate the tables and figures of the GRASS (NSDI '14) paper");
    println!();
    println!("USAGE: repro [--quick] [--csv] [<experiment-id>...]");
    println!("       repro trace record --out <dir> [--jobs N] [--gen-seed S] [--sim-seed S]");
    println!("                          [--policy P] [--profile facebook|bing]");
    println!(
        "                          [--framework hadoop|spark] [--bound deadlines|errors|exact]"
    );
    println!(
        "                          [--machines N] [--slots N] [--format text|binary|compressed]"
    );
    println!("       repro trace gen --out <file> [--jobs N] [--seed S] [--sim-seed S]");
    println!("                       [--policy P] [--profile facebook|bing]");
    println!("                       [--framework hadoop|spark] [--bound deadlines|errors|exact]");
    println!("                       [--machines N] [--slots N] [--format text|binary|compressed]");
    println!("       repro trace replay <workload.trace|dir> [--policy P]");
    println!("       repro trace convert <in> <out> --format text|binary|compressed");
    println!("       repro trace stats <trace-file>...");
    println!("       repro sweep <workload.trace|dir> [--machines 20,50,100]");
    println!("                   [--policies late,gs,ras,grass] [--baseline late]");
    println!("                   [--threads N] [--seeds a,b,c] [--slots N] [--quick]");
    println!("                   [--resume <cache-dir>]");
    println!("       repro fleet serve <workload.trace|dir> [grid flags] [--port P]");
    println!("                         [--cache <dir>] [--test-profile] [timing flags]");
    println!("       repro fleet work --connect <host:port> [--id NAME] [--stall-ms N]");
    println!("       repro fleet run <workload.trace|dir> [grid flags] [--workers N]");
    println!("                       [--cache <dir>] [--test-profile] [timing flags]");
    println!("       repro lint [--format text|json] [--root <dir>] [paths...]");
    println!();
    println!("Experiment ids:");
    for id in experiment_ids() {
        println!("  {id}");
    }
}
