//! `quick-suite`: all 16 experiments of `repro --quick`, in paper order, with
//! the given seed, each report rendered and digested.
//!
//! One pass takes about a minute of CPU, so `nproc` threads claim the
//! experiments, longest first; reports are collected by index, so the digests
//! do not depend on scheduling.

use grass_experiments::{run_experiment, ExpConfig};

use crate::harness::{
    check_pin, claim_in_order, digest_note, median, nproc, pass_times, repeated_setup, timed,
    Checks, Metrics, Passes, Pin, RunResult, EXPERIMENT_IDS,
};

/// Seed of `ExpConfig::quick()`: with it the suite reproduces `repro --quick`.
pub const DEFAULT_SEED: u64 = 11;

/// FNV-1a 64 (`grass_fleet::fnv1a64`) of each rendered report at
/// [`DEFAULT_SEED`]; equal to the reports `repro --quick` prints.
pub const PINS: &[Pin] = &[
    Pin {
        key: "table1",
        fnv: 0x2b3220ba0c54498a,
    },
    Pin {
        key: "sec2-3",
        fnv: 0x29818148d115ce3e,
    },
    Pin {
        key: "fig3",
        fnv: 0x77503b52b8176ec7,
    },
    Pin {
        key: "fig4",
        fnv: 0x0410e16b051722c9,
    },
    Pin {
        key: "fig5",
        fnv: 0x8a9d48262b46d503,
    },
    Pin {
        key: "fig6",
        fnv: 0x713b3607ba56db74,
    },
    Pin {
        key: "fig7",
        fnv: 0xd46ec3e4470a3eb8,
    },
    Pin {
        key: "fig8",
        fnv: 0xed56eb9e7f30305c,
    },
    Pin {
        key: "fig9",
        fnv: 0x36bd665c4274377d,
    },
    Pin {
        key: "fig10",
        fnv: 0xfdf71219e3e7ca90,
    },
    Pin {
        key: "fig11",
        fnv: 0x5cc1fb7c844d9a38,
    },
    Pin {
        key: "fig12",
        fnv: 0x0abce30680a23d69,
    },
    Pin {
        key: "fig13",
        fnv: 0x394243728af0a616,
    },
    Pin {
        key: "fig14",
        fnv: 0xe251b87e2a7353a2,
    },
    Pin {
        key: "fig15",
        fnv: 0xef5c228949ea97be,
    },
    Pin {
        key: "exact",
        fnv: 0x1c093e7c337ff4b8,
    },
];

/// The experiments that take longest at quick scale (fig9 alone is about 40% of
/// a serial pass), claimed first so that no thread is left running one of them
/// alone at the end of a pass. The rest follow in paper order.
const LONGEST: &[&str] = &["fig9", "fig6", "fig15"];

/// Experiments the set-up runs once to fault in code and allocator state.
const WARM_UP: &[&str] = &["table1", "fig3", "fig4"];

struct Rendered {
    text: String,
    exp_s: f64,
    render_s: f64,
}

fn run_one(id: &str, config: &ExpConfig) -> Result<Rendered, String> {
    let (report, exp_s) = timed(|| run_experiment(id, config));
    let report = report.ok_or_else(|| format!("unknown experiment id {id}"))?;
    let (text, render_s) = timed(|| report.render_text());
    if report.tables.is_empty() && report.series.is_empty() {
        return Err("report has no table and no series".to_string());
    }
    Ok(Rendered {
        text,
        exp_s,
        render_s,
    })
}

/// One pass over every experiment on `threads` threads, results in paper order.
fn pass(config: &ExpConfig, threads: usize) -> Vec<Result<Rendered, String>> {
    let order: Vec<usize> = (0..EXPERIMENT_IDS.len())
        .filter(|&i| LONGEST.contains(&EXPERIMENT_IDS[i]))
        .chain((0..EXPERIMENT_IDS.len()).filter(|&i| !LONGEST.contains(&EXPERIMENT_IDS[i])))
        .collect();
    let mut done = claim_in_order(order.len(), threads, |k| {
        (order[k], run_one(EXPERIMENT_IDS[order[k]], config))
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let pins: &[Pin] = if seed == DEFAULT_SEED { PINS } else { &[] };
    let config = ExpConfig {
        seeds: vec![seed],
        ..ExpConfig::quick()
    };
    let threads = nproc();
    let (_, setup_s) = repeated_setup(3, || {
        WARM_UP
            .iter()
            .map(|id| run_one(id, &config).map(|r| r.text.len()))
            .collect::<Vec<_>>()
    });

    let mut checks = Checks::default();
    let mut first: Option<Vec<String>> = None;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut exp_s = vec![Vec::new(); EXPERIMENT_IDS.len()];
    let mut render_s = Vec::new();
    let mut passes = Passes::new(seconds, trace);
    loop {
        let traced = passes.traced();
        let (results, pass_s) = timed(|| pass(&config, threads));
        let mut texts = Vec::with_capacity(results.len());
        let mut render_sum = 0.0;
        for (i, (id, result)) in EXPERIMENT_IDS.iter().zip(results).enumerate() {
            let mut problems = Vec::new();
            let text = match result {
                Ok(r) => {
                    if traced {
                        exp_s[i].push(r.exp_s);
                        render_sum += r.render_s;
                    }
                    r.text
                }
                Err(e) => {
                    problems.push(e);
                    String::new()
                }
            };
            problems.extend(check_pin(pins, id, &text));
            if let Some(previous) = first.as_ref().and_then(|f| f.get(i)) {
                if *previous != text {
                    problems.push("report differs from the first pass".to_string());
                }
            }
            checks.op(&format!("experiment {id}"), problems);
            texts.push(text);
        }
        if first.is_none() {
            first = Some(texts);
        }
        if traced {
            traced_s.push(pass_s);
            render_s.push(render_sum);
        } else {
            untraced_s.push(pass_s);
        }
        if passes.finish() {
            break;
        }
    }

    let mut metrics = Metrics::default();
    metrics.set("peak_rss_mib", passes.peak_rss_mib.unwrap_or(0.0));
    let wall_s = median(&untraced_s);
    metrics.set("wall_s", wall_s);
    metrics.set("setup_s", setup_s);
    if trace {
        for (id, times) in EXPERIMENT_IDS.iter().zip(&exp_s) {
            metrics.set(format!("exp_s.{id}"), median(times));
        }
        metrics.set("report.render_s", median(&render_s));
        metrics.set(
            "bench.trace_overhead_frac",
            median(&traced_s) / wall_s - 1.0,
        );
    }
    let mut notes = vec![
        format!(
            "quick-suite: {} pass(es) of {} experiments on {threads} thread(s)",
            passes.count,
            EXPERIMENT_IDS.len()
        ),
        pass_times("untraced", &untraced_s),
    ];
    let first = first.expect("at least one pass");
    notes.extend(
        EXPERIMENT_IDS
            .iter()
            .zip(&first)
            .map(|(id, text)| digest_note(id, text)),
    );
    RunResult {
        metrics,
        checks,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_reports_of_the_cheap_experiments_still_match() {
        let config = ExpConfig::quick();
        for id in WARM_UP {
            let text = run_one(id, &config).expect("report").text;
            assert_eq!(check_pin(PINS, id, &text), None, "{id}");
            let corrupted: Vec<Pin> = PINS
                .iter()
                .map(|p| Pin {
                    key: p.key,
                    fnv: p.fnv.rotate_left(1),
                })
                .collect();
            assert!(check_pin(&corrupted, id, &text).is_some(), "{id}");
        }
        assert_eq!(PINS.len(), EXPERIMENT_IDS.len());
    }
}
