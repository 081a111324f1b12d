//! Shared measurement plumbing: the metric registry every workload fills, the
//! output checks that feed `failed`, medians, peak RSS and host facts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with tracing off. Each is
/// non-zero on every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Experiment ids in paper order (the `exp_s.<id>` metrics).
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1", "sec2-3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "exact",
];

/// Per-layer metrics, reported by every workload in a traced run. A layer the
/// workload does not call reads 0. `exp_s.<id>` rows are appended by
/// [`per_layer_metrics`].
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    // Workload-scoped results that are end-to-end on one workload only.
    ("failed_frac", "frac"),
    ("sim_events_per_s", "1/s"),
    ("sweep_s", "s"),
    ("fleet_s", "s"),
    ("decode_mib_per_s.text", "MiB/s"),
    ("decode_mib_per_s.binary", "MiB/s"),
    ("decode_mib_per_s.compressed", "MiB/s"),
    ("decode_mib_per_s.mmap", "MiB/s"),
    // grass-workload
    ("workload.generate_s", "s"),
    ("workload.jobs", "count"),
    ("workload.tasks", "count"),
    // grass-trace
    ("trace.encode_s.text", "s"),
    ("trace.encode_s.binary", "s"),
    ("trace.encode_s.compressed", "s"),
    ("trace.decode_s.text", "s"),
    ("trace.decode_s.binary", "s"),
    ("trace.decode_s.compressed", "s"),
    ("trace.decode_s.mmap", "s"),
    ("trace.bytes.text", "bytes"),
    ("trace.bytes.binary", "bytes"),
    ("trace.bytes.compressed", "bytes"),
    ("trace.open_s", "s"),
    // grass-sim
    ("sim.run_s", "s"),
    ("sim.dispatch_self_s", "s"),
    ("sim.events", "count"),
    ("sim.job_touches", "count"),
    ("sim.policy_consultations", "count"),
    ("sim.touches_per_event", "ratio"),
    // grass-core / grass-policies
    ("policy.choose_s", "s"),
    ("policy.choose_calls", "count"),
    ("policy.choose_accepts", "count"),
    ("policy.accept_ratio", "ratio"),
    ("policy.choose_ns_mean", "ns"),
    ("policy.on_job_complete_s", "s"),
    ("policy.store_samples", "count"),
    // grass-experiments
    ("report.render_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.cell_s.sum", "s"),
    ("sweep.cell_s.max", "s"),
    ("sweep.assemble_s", "s"),
    ("sweep.digest_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    // grass-fleet
    ("fleet.cell_s.sum", "s"),
    ("fleet.sync_s", "s"),
    ("fleet.overhead_s", "s"),
    ("fleet.dispatched", "count"),
    ("fleet.completed", "count"),
    ("fleet.expired_leases", "count"),
    ("fleet.crash_releases", "count"),
    ("fleet.sync_exchanges", "count"),
    // The benchmark itself
    ("bench.trace_overhead_frac", "frac"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    let at = all
        .iter()
        .position(|(n, _)| n == "report.render_s")
        .expect("report.render_s is listed");
    for (i, id) in EXPERIMENT_IDS.iter().enumerate() {
        all.insert(at + i, (format!("exp_s.{id}"), "s"));
    }
    all
}

/// Counters that must repeat exactly between two runs of the same input: a
/// mismatch is an output failure, not noise.
pub const EXACT_COUNTERS: &[&str] = &[
    "sim.events",
    "sim.job_touches",
    "sim.policy_consultations",
    "policy.choose_calls",
    "policy.choose_accepts",
    "fleet.completed",
];

/// Output checks of one run. Every checked operation counts as attempted; it
/// counts as failed when any of its checks fails. A failing check is recorded,
/// never raised, so `failed` reaches the result line.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Record one operation whose checks all hold when `problems` is empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.messages.push(format!("{what}: {p}"));
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A digest pinned for the workload's default seed.
pub struct Pin {
    pub key: &'static str,
    pub fnv: u64,
}

/// Compare `digest` against the pin for `key`, if one exists for this seed.
/// Returns the problem, if any.
pub fn check_pin(pins: &[Pin], key: &str, digest: &str) -> Option<String> {
    let pin = pins.iter().find(|p| p.key == key)?;
    let got = grass_fleet::fnv1a64(digest.as_bytes());
    (got != pin.fnv).then(|| format!("digest {got:016x} differs from pinned {:016x}", pin.fnv))
}

/// A note line with the FNV-1a 64 of a digest, the value a pin records.
pub fn digest_note(key: &str, digest: &str) -> String {
    format!(
        "digest {key} {:016x}",
        grass_fleet::fnv1a64(digest.as_bytes())
    )
}

/// Names of the exact counters on which `a` and `b` disagree.
pub fn counter_mismatches(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    EXACT_COUNTERS
        .iter()
        .filter(|name| a.get(**name) != b.get(**name))
        .map(|name| {
            format!(
                "counter {name} differs between runs: {:?} vs {:?}",
                a.get(*name),
                b.get(*name)
            )
        })
        .collect()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `f` and return its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Run `setup` `reps` times and return the last result with the median time.
/// Set-up is repeated so that `setup_s` is a median, not one sample.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (value, t) = timed(&mut setup);
        times.push(t);
        last = Some(value);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Pass times for a note line, in milliseconds.
pub fn pass_times(label: &str, times: &[f64]) -> String {
    let ms: Vec<String> = times.iter().map(|t| format!("{:.0}", t * 1e3)).collect();
    format!("{label} pass ms: {}", ms.join(" "))
}

/// The measured phase: whole passes until `seconds` have passed. With tracing,
/// untraced and traced passes alternate and at least one of each runs.
pub struct Passes {
    started: Instant,
    seconds: f64,
    trace: bool,
    /// Passes finished so far.
    pub count: usize,
    /// Peak RSS after set-up and the first pass, or the part of it that
    /// [`Passes::take_peak_rss`] closes (see [`vm_hwm_mib`]).
    pub peak_rss_mib: Option<f64>,
}

impl Passes {
    pub fn new(seconds: f64, trace: bool) -> Self {
        Passes {
            started: Instant::now(),
            seconds,
            trace,
            count: 0,
            peak_rss_mib: None,
        }
    }

    /// Whether the next pass is a traced one.
    pub fn traced(&self) -> bool {
        self.trace && self.count % 2 == 1
    }

    /// Read the peak RSS now, if this is the first pass and it was not read
    /// yet.
    pub fn take_peak_rss(&mut self) {
        if self.count == 0 && self.peak_rss_mib.is_none() {
            self.peak_rss_mib = Some(vm_hwm_mib());
        }
    }

    /// Close a pass; true when the measured phase is over.
    pub fn finish(&mut self) -> bool {
        self.take_peak_rss();
        self.count += 1;
        self.started.elapsed() >= Duration::from_secs_f64(self.seconds)
            && (!self.trace || self.count >= 2)
    }
}

/// Peak resident set size of this process so far in MiB (Linux `VmHWM`; 0
/// where unavailable). [`Passes`] reads it after set-up and the first pass:
/// later passes repeat the same work, but each spawns its threads anew and the
/// allocator's per-thread arenas keep memory, so a high-water mark taken at
/// exit grows with the number of passes that fit in the run.
fn vm_hwm_mib() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    };
    read().unwrap_or(0.0)
}

/// Run `work(k)` for every `k` in `0..n` on `threads` scoped threads that
/// claim indices in order. Results come back indexed by `k`, so scheduling
/// cannot reorder them.
pub fn claim_in_order<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let out = work(k);
                done.lock()
                    .expect("a worker thread panicked")
                    .push((k, out));
            });
        }
    });
    let mut done = done.into_inner().expect("worker threads have exited");
    done.sort_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Worker threads a workload may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// Everything a workload hands back to `main`.
pub struct RunResult {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Host facts printed with every result, so numbers from different hosts are
/// never compared blindly.
pub fn host_facts(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let command_line = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]);
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"nproc\": {}, \"commit\": {}, \"date\": {}, \"rustc\": {}}}",
        json_str(workload),
        u8::from(trace),
        nproc(),
        json_str(&commit),
        json_str(&utc_now()),
        json_str(&rustc),
    )
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after Howard Hinnant's algorithm.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// with `metrics` holding exactly the `wanted` names. A name the workload did
/// not set reads 0 (a layer it does not call).
pub fn result_line(checks: &Checks, metrics: &Metrics, wanted: &[(String, &str)]) -> String {
    let body: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn date_is_iso_8601() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'), "{d}");
    }

    #[test]
    fn a_failed_check_counts_once_per_operation() {
        let mut checks = Checks::default();
        checks.op("a", vec![]);
        checks.op("b", vec!["x".into(), "y".into()]);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.failed_frac(), 0.5);
    }

    #[test]
    fn corrupted_pin_is_reported_and_absent_pin_is_not() {
        let digest = "summary jobs=1\n";
        let good = [Pin {
            key: "k",
            fnv: grass_fleet::fnv1a64(digest.as_bytes()),
        }];
        let bad = [Pin {
            key: "k",
            fnv: good[0].fnv ^ 1,
        }];
        assert_eq!(check_pin(&good, "k", digest), None);
        assert!(check_pin(&bad, "k", digest).is_some());
        assert_eq!(check_pin(&bad, "other", digest), None);
    }

    #[test]
    fn exact_counters_that_disagree_are_flagged() {
        let mut a = BTreeMap::new();
        for (i, name) in EXACT_COUNTERS.iter().enumerate() {
            a.insert(name.to_string(), i as u64);
        }
        let same = a.clone();
        assert!(counter_mismatches(&a, &same).is_empty());
        for name in EXACT_COUNTERS {
            let mut b = a.clone();
            *b.get_mut(*name).unwrap() += 1;
            let found = counter_mismatches(&a, &b);
            assert_eq!(found.len(), 1, "{name}");
            assert!(found[0].contains(name));
        }
    }

    #[test]
    fn result_line_has_exactly_the_wanted_metrics() {
        let mut metrics = Metrics::default();
        metrics.set("wall_s", 1.25);
        metrics.set("unlisted", 3.0);
        let wanted: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        let line = result_line(&Checks::default(), &metrics, &wanted);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0"));
        assert!(!line.contains("unlisted"));
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            text[open..close]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                        let rest = &entry[at..];
                        let q1 = rest.find('"').unwrap() + 1;
                        let q2 = q1 + rest[q1..].find('"').unwrap();
                        rest[q1..q2].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layer);
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
