//! `trace-io`: a 20k-job workload, generated once as set-up, is encoded to a
//! text, a binary and a compressed file, and each file is decoded back by the
//! streaming reader folding `TraceStats`; the binary file is also decoded
//! through `MappedWorkload`. No simulation runs.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use grass_trace::{record_workload, TraceFormat, TraceStats, WorkloadTrace};
use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};

use crate::harness::{
    median, pass_times, repeated_setup, timed, Checks, Metrics, Passes, RunResult,
};

pub const JOBS: usize = 20_000;

const FORMATS: [TraceFormat; 3] = [
    TraceFormat::Text,
    TraceFormat::Binary,
    TraceFormat::Compressed,
];

/// Decode paths with the index of the file each reads: the streaming reader
/// per format, then the mapped binary file.
const DECODES: [(&str, usize); 4] = [("text", 0), ("binary", 1), ("compressed", 2), ("mmap", 1)];

pub fn workload(jobs: usize, seed: u64) -> WorkloadTrace {
    let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
        .with_jobs(jobs)
        .with_bound(BoundSpec::paper_errors());
    record_workload(&config, seed, 11, "grass", 20, 4)
}

fn encode(trace: &WorkloadTrace, path: &Path, format: TraceFormat) -> Result<u64, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    trace
        .write_as(BufWriter::new(file), format)
        .map_err(|e| format!("encode {format}: {e}"))?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

fn decode(path: &Path, which: &str) -> Result<TraceStats, String> {
    let stats = if which == "mmap" {
        TraceStats::load_mmap(path)
    } else {
        TraceStats::load(path)
    };
    stats.map_err(|e| format!("decode {which}: {e}"))
}

/// Problems with a decoded `TraceStats` against the in-memory reference. The
/// `format` field names the file's format, so it is compared separately.
fn stats_problems(got: &TraceStats, want: &TraceStats, format: TraceFormat) -> Vec<String> {
    let mut problems = Vec::new();
    if got.format != format {
        problems.push(format!("format {} instead of {format}", got.format));
    }
    let same = got.kind == want.kind
        && got.jobs == want.jobs
        && got.tasks == want.tasks
        && got.records_by_tag == want.records_by_tag
        && got.total_work.to_bits() == want.total_work.to_bits()
        && got.horizon.to_bits() == want.horizon.to_bits();
    if !same {
        problems.push(format!(
            "stats {got:?} differ from the encoded workload's {want:?}"
        ));
    }
    problems
}

pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> RunResult {
    run_with(JOBS, seed, seconds, trace, dir)
}

pub fn run_with(jobs: usize, seed: u64, seconds: f64, trace: bool, dir: &Path) -> RunResult {
    let (workload, setup_s) = repeated_setup(3, || workload(jobs, seed));
    let reference = TraceStats::of_workload(&workload);
    let paths: Vec<PathBuf> = FORMATS
        .iter()
        .map(|f| dir.join(format!("workload.{}", f.label())))
        .collect();

    let mut checks = Checks::default();
    let mut sizes: [Option<u64>; 3] = [None; 3];
    let mut encode_s = vec![Vec::new(); FORMATS.len()];
    let mut decode_s = vec![Vec::new(); DECODES.len()];
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut passes = Passes::new(seconds, trace);
    loop {
        let traced = passes.traced();
        let pass_started = Instant::now();
        for (i, format) in FORMATS.iter().enumerate() {
            let (written, t) = timed(|| encode(&workload, &paths[i], *format));
            encode_s[i].push(t);
            let problems = match (written, sizes[i]) {
                (Err(e), _) => vec![e],
                (Ok(n), Some(before)) if n != before => {
                    vec![format!("{n} bytes written, {before} in the first pass")]
                }
                (Ok(n), _) => {
                    sizes[i] = Some(n);
                    Vec::new()
                }
            };
            checks.op(&format!("encode {format}"), problems);
        }
        for (i, (which, file)) in DECODES.iter().enumerate() {
            let (stats, t) = timed(|| decode(&paths[*file], which));
            decode_s[i].push(t);
            let problems = match stats {
                Ok(s) => stats_problems(&s, &reference, FORMATS[*file]),
                Err(e) => vec![e],
            };
            checks.op(&format!("decode {which}"), problems);
        }
        let pass_s = pass_started.elapsed().as_secs_f64();
        if traced {
            traced_s.push(pass_s);
        } else {
            untraced_s.push(pass_s);
        }
        if passes.finish() {
            break;
        }
    }

    let mib = |bytes: Option<u64>| bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0);
    let mut metrics = Metrics::default();
    metrics.set("peak_rss_mib", passes.peak_rss_mib.unwrap_or(0.0));
    let wall_s = median(&untraced_s);
    metrics.set("wall_s", wall_s);
    metrics.set("setup_s", setup_s);
    for (i, (which, file)) in DECODES.iter().enumerate() {
        metrics.set(
            format!("decode_mib_per_s.{which}"),
            mib(sizes[*file]) / median(&decode_s[i]),
        );
        if trace {
            metrics.set(format!("trace.decode_s.{which}"), median(&decode_s[i]));
        }
    }
    if trace {
        metrics.set("workload.generate_s", setup_s);
        metrics.set("workload.jobs", reference.jobs as f64);
        metrics.set("workload.tasks", reference.tasks as f64);
        for (i, format) in FORMATS.iter().enumerate() {
            metrics.set(
                format!("trace.encode_s.{}", format.label()),
                median(&encode_s[i]),
            );
            metrics.set(
                format!("trace.bytes.{}", format.label()),
                sizes[i].unwrap_or(0) as f64,
            );
        }
        metrics.set(
            "bench.trace_overhead_frac",
            median(&traced_s) / wall_s - 1.0,
        );
    }
    RunResult {
        metrics,
        checks,
        notes: vec![
            pass_times("untraced", &untraced_s),
            format!(
                "trace-io: {} pass(es) over {} jobs; file MiB text {:.1}, binary {:.1}, \
             compressed {:.1}",
                passes.count,
                reference.jobs,
                mib(sizes[0]),
                mib(sizes[1]),
                mib(sizes[2])
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_format_and_the_mapped_path_decode_to_the_same_stats() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = run_with(200, 3, 1e-3, true, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        // Two passes of three encodes and four decodes.
        assert_eq!(result.checks.attempted, 14);
        assert_eq!(result.checks.failed, 0, "{:?}", result.checks.messages);
        for which in ["text", "binary", "compressed", "mmap"] {
            assert!(
                result
                    .metrics
                    .get(&format!("decode_mib_per_s.{which}"))
                    .unwrap()
                    > 0.0
            );
        }
    }

    #[test]
    fn stats_that_differ_are_reported() {
        let trace = workload(20, 5);
        let want = TraceStats::of_workload(&trace);
        let mut got = want.clone();
        assert!(stats_problems(&got, &want, TraceFormat::Text).is_empty());
        got.tasks += 1;
        assert_eq!(stats_problems(&got, &want, TraceFormat::Text).len(), 1);
        assert_eq!(stats_problems(&got, &want, TraceFormat::Binary).len(), 2);
    }
}
