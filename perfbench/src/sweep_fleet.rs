//! `sweep-fleet`: a 120-job trace, recorded to disk in compressed format as
//! set-up, run through the 12-cell quick grid twice per pass: once by
//! `run_sweep` on `nproc` threads, once through an in-process broker with
//! `nproc` worker threads running the real `SweepCellRunner` over loopback.
//!
//! The seed is the trace's recorded simulator seed, which every cell runs
//! with; the 120 jobs come from [`TRACE_SEED`] for every seed, so that seeds
//! vary the simulations and not the amount of work (as in `scale-dispatch`).

use std::path::Path;
use std::time::{Duration, Instant};

use grass_experiments::{
    assemble_sweep_result, merge_seed_sets, run_sweep, run_sweep_cell, ExpConfig, FleetPlan,
    SweepCellRunner, SweepConfig,
};
use grass_fleet::{run_worker, serve_broker, CellRunner, FleetConfig, FleetStats};
use grass_metrics::OutcomeSet;
use grass_sim::ClusterConfig;
use grass_trace::{open_workload_source, record_workload, TraceFormat, WorkloadMeta};
use grass_workload::{BoundSpec, Framework, StreamedWorkload, TraceProfile, WorkloadConfig};

use crate::harness::{
    check_pin, claim_in_order, digest_note, median, nproc, pass_times, repeated_setup, timed,
    Checks, Metrics, Passes, Pin, RunResult,
};
use crate::timed::TimedRunner;

pub const DEFAULT_SEED: u64 = 11;
pub const JOBS: usize = 120;

/// Generator seed of the recorded jobs.
pub const TRACE_SEED: u64 = 11;

/// FNV-1a 64 of the sweep digest at [`DEFAULT_SEED`]; equal to what
/// `repro sweep <trace> --quick` prints for the trace `repro trace record
/// --jobs 120 --gen-seed 11 --format compressed` writes.
pub const PINS: &[Pin] = &[Pin {
    key: "sweep",
    fnv: 0xfaa1d161f2504ba0,
}];

/// Record the trace as `repro trace record --jobs 120 --format compressed
/// --gen-seed 11 --sim-seed <seed>` would, and open it the way `repro sweep`
/// does.
fn record_and_open(
    jobs: usize,
    seed: u64,
    path: &Path,
) -> Result<(WorkloadMeta, StreamedWorkload, f64), String> {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(jobs)
        .with_bound(BoundSpec::paper_errors());
    record_workload(&config, TRACE_SEED, seed, "grass", 20, 4)
        .save_as(path, TraceFormat::Compressed)
        .map_err(|e| format!("record {}: {e}", path.display()))?;
    let (opened, open_s) = timed(|| open_workload_source(path));
    let (meta, source) = opened.map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok((meta, source, open_s))
}

/// The grid `repro sweep <trace> --quick --threads <nproc>` builds.
fn quick_grid(meta: &WorkloadMeta, source: &StreamedWorkload, threads: usize) -> SweepConfig {
    let base = ExpConfig {
        jobs_per_run: source.total_jobs(),
        seeds: vec![meta.sim_seed],
        cluster: ClusterConfig {
            machines: meta.machines,
            slots_per_machine: meta.slots_per_machine,
            ..ClusterConfig::ec2_scaled()
        },
        ..ExpConfig::full()
    };
    SweepConfig {
        threads,
        ..SweepConfig::quick_grid(base)
    }
}

#[derive(Default)]
struct SweepSpans {
    cell_s: Vec<f64>,
    assemble_s: f64,
    digest_s: f64,
}

/// The sweep with a span around every cell: `run_sweep`'s own steps, driven
/// through its public pieces.
fn traced_sweep(source: &StreamedWorkload, config: &SweepConfig) -> (String, SweepSpans) {
    let units = config.units();
    let started = Instant::now();
    let cells = claim_in_order(units.len(), config.threads, |k| {
        let (machines, policy) = &units[k];
        timed(|| {
            merge_seed_sets(
                config
                    .base
                    .seeds
                    .iter()
                    .map(|&seed| run_sweep_cell(source, &config.base, *machines, policy, seed)),
            )
        })
    });
    let mut spans = SweepSpans::default();
    let sets: Vec<OutcomeSet> = cells
        .into_iter()
        .map(|(set, t)| {
            spans.cell_s.push(t);
            set
        })
        .collect();
    let elapsed = started.elapsed();
    let (result, assemble_s) = timed(|| assemble_sweep_result(source, config, sets, elapsed));
    let (digest, digest_s) = timed(|| result.digest());
    spans.assemble_s = assemble_s;
    spans.digest_s = digest_s;
    (digest, spans)
}

#[derive(Default)]
struct FleetSpans {
    cell_s: f64,
    sync_s: f64,
    stats: Option<FleetStats>,
}

/// The grid through an in-process broker and `workers` worker threads.
fn fleet(
    path: &Path,
    meta: &WorkloadMeta,
    source: &StreamedWorkload,
    config: &SweepConfig,
    workers: usize,
    traced: bool,
) -> Result<(String, FleetSpans), String> {
    let started = Instant::now();
    let plan = FleetPlan::new(path, meta.clone(), source.clone(), config.clone())?;
    let specs = plan.specs()?;
    let cached = vec![None; specs.len()];
    let handle = serve_broker(specs, cached, FleetConfig::production())
        .map_err(|e| format!("broker: {e}"))?;
    let addr = handle.addr();
    let runners: Vec<TimedRunner<SweepCellRunner>> = (0..workers)
        .map(|_| TimedRunner::new(SweepCellRunner::new()))
        .collect();
    let reports: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = runners
            .iter()
            .enumerate()
            .map(|(i, runner)| {
                let runner: &dyn CellRunner = if traced { runner } else { runner.inner() };
                scope.spawn(move || {
                    run_worker(addr, &format!("worker-{i}"), runner)
                        .map(|_| ())
                        .map_err(|e| format!("worker-{i}: {e}"))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".into()))
            })
            .collect()
    });
    if let Some(Err(e)) = reports.into_iter().find(Result::is_err) {
        return Err(e);
    }
    // Workers leave only after the broker reports the grid finished.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.done() {
        if Instant::now() > deadline {
            return Err("broker did not finish after every worker left".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let outcome = handle.wait().map_err(|e| e.to_string())?;
    if outcome.stats.completed != plan.cells.len() as u64 {
        return Err(format!(
            "fleet completed {} of {} cells",
            outcome.stats.completed,
            plan.cells.len()
        ));
    }
    let result = plan.merge(&outcome.results, started.elapsed())?;
    let digest = result.digest();
    let spans = FleetSpans {
        cell_s: runners.iter().map(TimedRunner::cell_s).sum(),
        sync_s: runners.iter().map(TimedRunner::sync_s).sum(),
        stats: Some(outcome.stats),
    };
    Ok((digest, spans))
}

/// Per-cell problems of `digest` against `reference`: line `i + 1` of a sweep
/// digest is cell `i`; the header and summary lines belong to cell 0.
fn cell_problems(digest: &str, reference: &str, cell: usize, against: &str) -> Vec<String> {
    let (got, want): (Vec<&str>, Vec<&str>) =
        (digest.lines().collect(), reference.lines().collect());
    let mut problems = Vec::new();
    if got.get(cell + 1) != want.get(cell + 1) {
        problems.push(format!(
            "cell line {:?} differs from {against} {:?}",
            got.get(cell + 1),
            want.get(cell + 1)
        ));
    }
    if cell == 0
        && (got.first() != want.first() || got.len() != want.len() || got.last() != want.last())
    {
        problems.push(format!("digest header or summary differs from {against}"));
    }
    problems
}

pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> RunResult {
    run_with(JOBS, seed, seconds, trace, dir)
}

pub fn run_with(jobs: usize, seed: u64, seconds: f64, trace: bool, dir: &Path) -> RunResult {
    let pins: &[Pin] = if seed == DEFAULT_SEED { PINS } else { &[] };
    let path = dir.join("workload.trace");
    let mut checks = Checks::default();
    let (opened, setup_s) = repeated_setup(5, || record_and_open(jobs, seed, &path));
    let (meta, source, open_s) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            checks.op("record", vec![e]);
            return RunResult {
                metrics: Metrics::default(),
                checks,
                notes: Vec::new(),
            };
        }
    };
    let threads = nproc();
    let config = quick_grid(&meta, &source, threads);
    let cells = config.units().len();

    let mut first: Option<String> = None;
    let (mut sweep_s, mut fleet_s, mut untraced_s, mut traced_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sweep_spans, mut fleet_spans) = (Vec::new(), Vec::new());
    let mut passes = Passes::new(seconds, trace);
    loop {
        let traced = passes.traced();
        let ((sweep_digest, spans), s) = timed(|| {
            if traced {
                let (d, spans) = traced_sweep(&source, &config);
                (d, Some(spans))
            } else {
                (run_sweep(&source, &config).digest(), None)
            }
        });
        for cell in 0..cells {
            let mut problems = Vec::new();
            if cell == 0 {
                problems.extend(check_pin(pins, "sweep", &sweep_digest));
            }
            if let Some(reference) = &first {
                problems.extend(cell_problems(
                    &sweep_digest,
                    reference,
                    cell,
                    "the first pass",
                ));
            }
            checks.op(&format!("sweep cell {cell}"), problems);
        }
        // The in-process fleet's worker threads stand in for worker processes;
        // the allocator arenas they add (1-9 MiB, varying with thread timing)
        // are no memory a fleet user's processes hold, so the peak RSS is the
        // sweep's.
        passes.take_peak_rss();
        let (fleet_out, f) = timed(|| fleet(&path, &meta, &source, &config, threads, traced));
        match &fleet_out {
            Ok((fleet_digest, _)) => {
                for cell in 0..cells {
                    checks.op(
                        &format!("fleet cell {cell}"),
                        cell_problems(fleet_digest, &sweep_digest, cell, "the sweep"),
                    );
                }
            }
            Err(e) => {
                for cell in 0..cells {
                    checks.op(&format!("fleet cell {cell}"), vec![e.clone()]);
                }
            }
        }
        if traced {
            traced_s.push(s + f);
            sweep_spans.push((s, spans.expect("traced sweep has spans")));
            if let Ok((_, spans)) = fleet_out {
                fleet_spans.push((f, spans));
            }
        } else {
            sweep_s.push(s);
            fleet_s.push(f);
            untraced_s.push(s + f);
        }
        first.get_or_insert(sweep_digest);
        if passes.finish() {
            break;
        }
    }

    let mut metrics = Metrics::default();
    metrics.set("peak_rss_mib", passes.peak_rss_mib.unwrap_or(0.0));
    let wall_s = median(&untraced_s);
    metrics.set("wall_s", wall_s);
    metrics.set("setup_s", setup_s);
    metrics.set("sweep_s", median(&sweep_s));
    metrics.set("fleet_s", median(&fleet_s));
    if trace {
        metrics.set("workload.jobs", source.total_jobs() as f64);
        metrics.set("trace.open_s", open_s);
        let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
        let sweep_total = med(sweep_spans.iter().map(|(s, _)| *s).collect());
        let cell_sum = med(sweep_spans
            .iter()
            .map(|(_, sp)| sp.cell_s.iter().sum())
            .collect());
        metrics.set("sweep.cells", cells as f64);
        metrics.set("sweep.cell_s.sum", cell_sum);
        metrics.set(
            "sweep.cell_s.max",
            med(sweep_spans
                .iter()
                .map(|(_, sp)| sp.cell_s.iter().copied().fold(0.0, f64::max))
                .collect()),
        );
        metrics.set(
            "sweep.assemble_s",
            med(sweep_spans.iter().map(|(_, sp)| sp.assemble_s).collect()),
        );
        metrics.set(
            "sweep.digest_s",
            med(sweep_spans.iter().map(|(_, sp)| sp.digest_s).collect()),
        );
        metrics.set(
            "sweep.parallel_efficiency",
            cell_sum / (threads as f64 * sweep_total),
        );
        let fleet_total = med(fleet_spans.iter().map(|(f, _)| *f).collect());
        let fleet_cells = med(fleet_spans.iter().map(|(_, sp)| sp.cell_s).collect());
        metrics.set("fleet.cell_s.sum", fleet_cells);
        metrics.set(
            "fleet.sync_s",
            med(fleet_spans.iter().map(|(_, sp)| sp.sync_s).collect()),
        );
        metrics.set(
            "fleet.overhead_s",
            fleet_total - fleet_cells / threads as f64,
        );
        if let Some(stats) = fleet_spans.last().and_then(|(_, sp)| sp.stats) {
            metrics.set("fleet.dispatched", stats.dispatched as f64);
            metrics.set("fleet.completed", stats.completed as f64);
            metrics.set("fleet.expired_leases", stats.expired_leases as f64);
            metrics.set("fleet.crash_releases", stats.crash_releases as f64);
            metrics.set("fleet.sync_exchanges", stats.sync_exchanges as f64);
        }
        metrics.set("bench.trace_overhead_frac", med(traced_s) / wall_s - 1.0);
    }
    RunResult {
        metrics,
        checks,
        notes: vec![
            format!(
                "sweep-fleet: {} pass(es) of a {cells}-cell grid over {} jobs, {threads} \
                 sweep thread(s) and {threads} fleet worker(s)",
                passes.count,
                source.total_jobs()
            ),
            pass_times("untraced", &untraced_s),
            digest_note("sweep", first.as_deref().unwrap_or_default()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_and_traced_sweep_reproduce_the_sweep_digest() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-sweep-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = run_with(10, 4, 1e-3, true, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        // Two passes of 12 sweep cells and 12 fleet cells.
        assert_eq!(result.checks.attempted, 48);
        assert_eq!(result.checks.failed, 0, "{:?}", result.checks.messages);
        assert_eq!(result.metrics.get("fleet.completed"), Some(12.0));
        assert_eq!(result.metrics.get("sweep.cells"), Some(12.0));
    }

    #[test]
    fn a_differing_cell_line_fails_only_that_cell() {
        let reference = "sweep a\ncell 0\ncell 1\nsummary cells=2\n";
        let digest = "sweep a\ncell 0\ncell X\nsummary cells=2\n";
        assert!(cell_problems(digest, reference, 0, "ref").is_empty());
        assert_eq!(cell_problems(digest, reference, 1, "ref").len(), 1);
        let header = "sweep b\ncell 0\ncell 1\nsummary cells=2\n";
        assert_eq!(cell_problems(header, reference, 0, "ref").len(), 1);
    }
}
