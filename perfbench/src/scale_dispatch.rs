//! `scale-dispatch`: one GRASS simulation of 500 Facebook-Spark error-bound
//! jobs on 500 machines x 2 slots, generated in memory. The dispatch loop and
//! `choose()` are nearly all of its time; it decodes no trace and runs on one
//! thread.
//!
//! The seed drives the simulation's random draws (stragglers, estimate error,
//! GRASS's perturbed jobs). The job mix is generated from [`JOB_SEED`] for
//! every seed: with a per-seed mix, `choose()` calls varied by ±9% between
//! seeds, against ±2% with a fixed mix, and that variance would swamp the
//! bound a later change is judged by.

use std::collections::BTreeMap;

use grass_core::{GrassFactory, JobSpec};
use grass_experiments::outcome_digest;
use grass_sim::{run_simulation, ClusterConfig, SimConfig, SimResult, SimStats};
use grass_workload::{generate, BoundSpec, Framework, TraceProfile, WorkloadConfig};

use crate::harness::{
    check_pin, counter_mismatches, digest_note, median, pass_times, repeated_setup, timed, Checks,
    Metrics, Passes, Pin, RunResult,
};
use crate::timed::{PolicyClock, TimedFactory};

pub const DEFAULT_SEED: u64 = 11;

/// Generator seed of the job mix.
pub const JOB_SEED: u64 = 11;

/// FNV-1a 64 of the outcome digest plus the exact `SimStats` counters at
/// [`DEFAULT_SEED`].
pub const PINS: &[Pin] = &[Pin {
    key: "simulation",
    fnv: 0xcb601187dba9b6fe,
}];

/// Simulation size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub jobs: usize,
    pub machines: usize,
    pub slots: usize,
}

pub const SIZE: Size = Size {
    jobs: 500,
    machines: 500,
    slots: 2,
};

/// The jobs of one run. The Facebook-Spark inter-arrival rate is calibrated
/// for a 200-slot cluster, so it is scaled with cluster size to keep the same
/// contended, multi-wave regime (as `tests/sim_scale.rs` does).
pub fn jobs(size: Size, seed: u64) -> Vec<JobSpec> {
    let mut profile = TraceProfile::facebook(Framework::Spark);
    profile.interarrival.mean *= 200.0 / (size.machines * size.slots) as f64;
    let config = WorkloadConfig::new(profile)
        .with_jobs(size.jobs)
        .with_bound(BoundSpec::paper_errors());
    generate(&config, seed)
}

/// The digest that is pinned and compared between passes: every outcome plus
/// the engine's exact work counters.
pub fn digest(result: &SimResult) -> String {
    let s = result.stats;
    format!(
        "{}stats events={} job_touches={} policy_consultations={}\n",
        outcome_digest(result),
        s.events_processed,
        s.job_touches,
        s.policy_consultations
    )
}

fn counters(result: &SimResult, clock: Option<&PolicyClock>) -> BTreeMap<String, u64> {
    let s = result.stats;
    let mut c = BTreeMap::from([
        ("sim.events".to_string(), s.events_processed),
        ("sim.job_touches".to_string(), s.job_touches),
        (
            "sim.policy_consultations".to_string(),
            s.policy_consultations,
        ),
    ]);
    if let Some(clock) = clock {
        c.insert(
            "policy.choose_calls".into(),
            PolicyClock::read(&clock.choose_calls),
        );
        c.insert(
            "policy.choose_accepts".into(),
            PolicyClock::read(&clock.choose_accepts),
        );
    }
    c
}

struct Traced {
    run_s: f64,
    hooks_s: f64,
    choose_s: f64,
    choose_calls: u64,
    choose_accepts: u64,
    on_job_complete_s: f64,
    store_samples: usize,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    run_with(SIZE, seed, seconds, trace, PINS)
}

pub fn run_with(size: Size, seed: u64, seconds: f64, trace: bool, pins: &[Pin]) -> RunResult {
    let pins: &[Pin] = if seed == DEFAULT_SEED { pins } else { &[] };
    let (jobs, setup_s) = repeated_setup(7, || jobs(size, JOB_SEED));
    let sim = SimConfig {
        cluster: ClusterConfig::small(size.machines, size.slots),
        seed,
        ..SimConfig::default()
    };

    let mut checks = Checks::default();
    let mut first: Option<(String, BTreeMap<String, u64>)> = None;
    let mut first_policy: Option<BTreeMap<String, u64>> = None;
    let (mut untraced_s, mut traced) = (Vec::new(), Vec::<Traced>::new());
    let mut stats: SimStats;
    let mut passes = Passes::new(seconds, trace);
    loop {
        let is_traced = passes.traced();
        let input = jobs.clone();
        let factory = GrassFactory::new(seed);
        let (result, clock) = if is_traced {
            let timed_factory = TimedFactory::new(&factory);
            let (result, run_s) = timed(|| run_simulation(&sim, input, &timed_factory));
            let clock = timed_factory.clock();
            traced.push(Traced {
                run_s,
                hooks_s: clock.hooks_s(),
                choose_s: PolicyClock::read(&clock.choose_ns) as f64 / 1e9,
                choose_calls: PolicyClock::read(&clock.choose_calls),
                choose_accepts: PolicyClock::read(&clock.choose_accepts),
                on_job_complete_s: PolicyClock::read(&clock.on_job_complete_ns) as f64 / 1e9,
                store_samples: factory.store().len(),
            });
            let c = counters(&result, Some(clock));
            (result, Some(c))
        } else {
            let (result, run_s) = timed(|| run_simulation(&sim, input, &factory));
            untraced_s.push(run_s);
            (result, None)
        };

        let mut problems = Vec::new();
        if result.outcomes.len() != jobs.len() {
            problems.push(format!(
                "{} outcomes for {} jobs",
                result.outcomes.len(),
                jobs.len()
            ));
        }
        let d = digest(&result);
        problems.extend(check_pin(pins, "simulation", &d));
        let c = counters(&result, None);
        match &first {
            None => first = Some((d, c)),
            Some((d0, c0)) => {
                if *d0 != d {
                    problems.push("outcome digest differs from the first pass".to_string());
                }
                problems.extend(counter_mismatches(c0, &c));
            }
        }
        if let Some(policy_counters) = clock {
            match &first_policy {
                None => first_policy = Some(policy_counters),
                Some(p0) => problems.extend(counter_mismatches(p0, &policy_counters)),
            }
        }
        checks.op("simulation", problems);
        stats = result.stats;
        if passes.finish() {
            break;
        }
    }

    let mut metrics = Metrics::default();
    metrics.set("peak_rss_mib", passes.peak_rss_mib.unwrap_or(0.0));
    let wall_s = median(&untraced_s);
    metrics.set("wall_s", wall_s);
    metrics.set("setup_s", setup_s);
    metrics.set("sim_events_per_s", stats.events_processed as f64 / wall_s);
    if trace {
        let med = |f: fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let t = traced.last().expect("a traced pass");
        let run_s = med(|t| t.run_s);
        metrics.set("workload.generate_s", setup_s);
        metrics.set("workload.jobs", jobs.len() as f64);
        metrics.set(
            "workload.tasks",
            jobs.iter().map(JobSpec::total_tasks).sum::<usize>() as f64,
        );
        metrics.set("sim.run_s", run_s);
        metrics.set("sim.dispatch_self_s", run_s - med(|t| t.hooks_s));
        metrics.set("sim.events", stats.events_processed as f64);
        metrics.set("sim.job_touches", stats.job_touches as f64);
        metrics.set(
            "sim.policy_consultations",
            stats.policy_consultations as f64,
        );
        metrics.set(
            "sim.touches_per_event",
            stats.job_touches as f64 / stats.events_processed.max(1) as f64,
        );
        let choose_s = med(|t| t.choose_s);
        metrics.set("policy.choose_s", choose_s);
        metrics.set("policy.choose_calls", t.choose_calls as f64);
        metrics.set("policy.choose_accepts", t.choose_accepts as f64);
        metrics.set(
            "policy.accept_ratio",
            t.choose_accepts as f64 / t.choose_calls.max(1) as f64,
        );
        metrics.set(
            "policy.choose_ns_mean",
            choose_s * 1e9 / t.choose_calls.max(1) as f64,
        );
        metrics.set("policy.on_job_complete_s", med(|t| t.on_job_complete_s));
        metrics.set("policy.store_samples", t.store_samples as f64);
        metrics.set("bench.trace_overhead_frac", run_s / wall_s - 1.0);
    }
    RunResult {
        metrics,
        checks,
        notes: vec![
            format!(
                "scale-dispatch: {} simulation(s) of {} jobs on {} x {} slots, {} events each",
                passes.count, size.jobs, size.machines, size.slots, stats.events_processed
            ),
            pass_times("untraced", &untraced_s),
            digest_note("simulation", &first.expect("at least one pass").0),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::EXACT_COUNTERS;

    const TINY: Size = Size {
        jobs: 12,
        machines: 6,
        slots: 2,
    };

    fn pin_of(result: &RunResult) -> u64 {
        let note = result
            .notes
            .iter()
            .find(|n| n.starts_with("digest simulation "))
            .expect("digest note");
        u64::from_str_radix(note.rsplit(' ').next().unwrap(), 16).unwrap()
    }

    #[test]
    fn traced_passes_reproduce_untraced_digests_and_counters() {
        let result = run_with(TINY, DEFAULT_SEED, 1e-3, true, &[]);
        assert!(result.checks.attempted >= 2);
        assert_eq!(result.checks.failed, 0, "{:?}", result.checks.messages);
        for name in EXACT_COUNTERS.iter().filter(|n| !n.starts_with("fleet.")) {
            assert!(result.metrics.get(name).unwrap() > 0.0, "{name}");
        }
    }

    #[test]
    fn a_corrupted_pin_raises_failed_frac() {
        let clean = run_with(TINY, DEFAULT_SEED, 1e-3, false, &[]);
        let fnv = pin_of(&clean);
        let good = [Pin {
            key: "simulation",
            fnv,
        }];
        let bad = [Pin {
            key: "simulation",
            fnv: fnv ^ 0x10,
        }];
        assert_eq!(
            run_with(TINY, DEFAULT_SEED, 1e-3, false, &good)
                .checks
                .failed,
            0
        );
        let corrupted = run_with(TINY, DEFAULT_SEED, 1e-3, false, &bad);
        assert!(corrupted.checks.failed_frac() > 0.0);
        // Pins hold only for the default seed.
        assert_eq!(
            run_with(TINY, DEFAULT_SEED + 1, 1e-3, false, &bad)
                .checks
                .failed,
            0
        );
    }
}
