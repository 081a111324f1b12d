//! Scale pin for the two-layer sample store: at 100× the sample volume the
//! sketched layer's memory must stay flat (binned aggregates and a lifetime count,
//! no retained samples) while the exact layer grows linearly (retained-sample
//! rings, no bins) — that growth is measured and reported, not pinned, since it
//! is the expected cost of bit-exactness.
//!
//! Profiles, following `tests/sim_scale.rs`:
//!
//! * `GRASS_SMOKE=1` — 10k samples (10× the 1k base), structural assertions
//!   only, runs in tier-1 CI.
//! * `GRASS_HEAVY=1` — 1M samples (100× the 10k base) with a pinned `VmHWM`
//!   growth budget for the sketched store (Linux only). Run with `--nocapture`
//!   to see the numbers EXPERIMENTS.md records.
//!
//! With neither variable set the test skips.

use std::time::Instant;

use grass::prelude::*;
use grass_core::grass::{BoundKind, QueryContext, Sample};

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Linux peak resident set size (`VmHWM`), if available.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A varied-but-bounded sample stream: all four partitions, 12 size buckets,
/// bound values spanning several powers of two, utilization/accuracy across
/// their decile bins — rich enough to populate many sketch bins, bounded so
/// the bin count saturates the way real workloads do.
fn scale_sample(i: usize) -> Sample {
    let mode = if i.is_multiple_of(2) {
        SpeculationMode::Gs
    } else {
        SpeculationMode::Ras
    };
    let kind = if (i / 2).is_multiple_of(2) {
        BoundKind::Deadline
    } else {
        BoundKind::Error
    };
    Sample {
        mode,
        kind,
        size_bucket: SizeBucket((i % 12) as u8),
        bound_value: 2.0 + ((i * 37) % 900) as f64,
        performance: 0.5 + ((i * 13) % 400) as f64,
        utilization: ((i * 7) % 100) as f64 / 100.0,
        accuracy: ((i * 11) % 100) as f64 / 100.0,
    }
}

#[test]
fn sketched_store_memory_stays_flat_at_100x_sample_scale() {
    let (label, samples, pin_rss) = if env_on("GRASS_SMOKE") {
        ("smoke", 10_000usize, false)
    } else if env_on("GRASS_HEAVY") {
        ("heavy", 1_000_000usize, true)
    } else {
        eprintln!("skipping: set GRASS_HEAVY=1 (full) or GRASS_SMOKE=1 (small) to run");
        return;
    };
    let base = samples / if pin_rss { 100 } else { 10 };

    // Sketched store first: VmHWM is a monotone high-water mark, so the flat
    // bound must be taken before the exact store inflates the peak.
    let peak0 = peak_rss_bytes();
    let started = Instant::now();
    let sketched = SampleStore::sketched();
    for i in 0..samples {
        sketched.record(scale_sample(i));
    }
    let sketched_elapsed = started.elapsed();
    let peak1 = peak_rss_bytes();
    assert_eq!(
        sketched.len(),
        samples,
        "lifetime count tracks every record"
    );
    let bins = sketched.sketch_bins();
    eprintln!("# sketched ({label}): {samples} samples -> {bins} bins in {sketched_elapsed:.2?}");
    // Structural flatness: bins saturate far below the sample count (they are
    // capped by the key space, not the stream length).
    assert!(
        bins <= samples / 10,
        "sketch bins ({bins}) must stay far below the sample count ({samples})"
    );
    // And the bin population must already be saturated at 1/100 (or 1/10) of
    // the stream: re-recording the base prefix discovers no new bins.
    let saturation = SampleStore::sketched();
    for i in 0..base {
        saturation.record(scale_sample(i));
    }
    let base_bins = saturation.sketch_bins();
    eprintln!("# sketched ({label}): base {base} samples -> {base_bins} bins");
    assert!(
        bins <= base_bins.saturating_mul(2),
        "bin count must saturate: {base_bins} bins at {base} samples but {bins} at {samples}"
    );

    if let (Some(p0), Some(p1)) = (peak0, peak1) {
        let growth = p1.saturating_sub(p0);
        eprintln!(
            "# sketched ({label}): peak RSS {:.1} MiB -> {:.1} MiB (+{:.1} MiB)",
            mib(p0),
            mib(p1),
            mib(growth)
        );
        if pin_rss {
            // 1M samples would retain ~64 MiB of raw `Sample`s; the sketched
            // layer must stay an order below that.
            let budget = 16 * 1024 * 1024;
            assert!(
                growth <= budget,
                "sketched store grew peak RSS by {:.1} MiB (budget {:.1} MiB)",
                mib(growth),
                mib(budget)
            );
        }
    }

    // The exact store at the same volume: linear retention, measured and
    // reported so EXPERIMENTS.md can quote the contrast honestly.
    let started = Instant::now();
    let exact = SampleStore::with_capacity(samples);
    for i in 0..samples {
        exact.record(scale_sample(i));
    }
    let exact_elapsed = started.elapsed();
    let peak2 = peak_rss_bytes();
    assert_eq!(exact.len(), samples);
    if let (Some(p1), Some(p2)) = (peak1, peak2) {
        eprintln!(
            "# exact ({label}): {samples} samples retained in {exact_elapsed:.2?}, \
             peak RSS +{:.1} MiB over the sketched run",
            mib(p2.saturating_sub(p1))
        );
    }

    // Both layers still answer the same query; the sketched answer must stay
    // within the recorded rate range (its convexity guarantee).
    let ctx = QueryContext {
        kind: BoundKind::Deadline,
        size_bucket: SizeBucket(4),
        bound_value: 50.0,
        utilization: 0.5,
        accuracy: 0.5,
    };
    let exact_p = exact
        .predict_rate(SpeculationMode::Gs, &ctx, FactorSet::all(), 1)
        .expect("exact prediction");
    let sketched_p = sketched
        .predict_rate(SpeculationMode::Gs, &ctx, FactorSet::all(), 1)
        .expect("sketched prediction");
    eprintln!("# predict ({label}): exact={exact_p:.6} sketched={sketched_p:.6}");
    assert!(exact_p.is_finite() && sketched_p.is_finite());
    assert!(sketched_p > 0.0);
}
