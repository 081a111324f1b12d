//! GRASS glue for the `grass-fleet` broker/worker service, plus the
//! `repro fleet` CLI verbs.
//!
//! `grass-fleet` moves opaque cell specs and result payloads; this module
//! defines both encodings for sweep work:
//!
//! * a **cell spec** names one `(trace, machines, policy, seed, slots)` cell
//!   of a sweep grid, so a worker can stream the shared on-disk trace via
//!   `open_workload_source` and run the cell through [`run_sweep_cell`] — the
//!   exact code path `run_sweep` uses in-process;
//! * a **result payload** encodes every [`JobOutcome`] field at full precision
//!   (shortest-round-trip float formatting), so the broker-side merge
//!   reconstructs bit-identical outcome sets and the fleet digest is
//!   byte-identical to a single-process sweep;
//! * a **cell key** hashes the cell's inputs (trace identity, machines,
//!   policy, seed, slots, experiment profile) for the persistent
//!   [`DigestCache`], which doubles as the `repro sweep --resume` cache.

// grass: allow(unordered-iter-on-digest-path, "keyed lookup only; the trace cache is never iterated for results")
use std::collections::HashMap;
use std::env;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use grass_core::{Bound, JobId, JobOutcome};
use grass_fleet::broker::serve_broker_on;
use grass_fleet::{run_fleet, run_worker, CellRunner, DigestCache, FleetConfig, FleetOutcome};
use grass_metrics::OutcomeSet;
use grass_sim::ClusterConfig;
use grass_trace::codec::{escape, unescape};
use grass_trace::{open_workload_source, open_workload_source_mmap, WorkloadMeta};
use grass_workload::{JobSource, StreamedWorkload};

use crate::common::ExpConfig;
use crate::sweep::{
    assemble_sweep_result, merge_seed_sets, parse_policy, run_sweep_cell, sweep_config_from_flags,
    SweepConfig, SweepResult,
};
use crate::trace_cli::{resolve_workload_path, Flags};
use crate::PolicyKind;

// ---------------------------------------------------------------------------
// Trace identity and cell keys
// ---------------------------------------------------------------------------

/// Content identity of a trace file: FNV-1a 64 over its bytes plus its length.
/// Part of every cell key, so editing or re-recording a trace invalidates all
/// of its cached cells.
pub fn trace_identity(path: &Path) -> Result<String, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len: u64 = 0;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        len += n as u64;
        for &b in &buf[..n] {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    Ok(format!("fnv64-{hash:016x}-len{len}"))
}

/// CLI/wire name of a policy ([`parse_policy`]'s inverse). Only the named
/// policy set is encodable — a custom-tuned `Grass(config)` has no wire name,
/// and refusing it here keeps cache keys and cell specs unambiguous.
fn policy_wire_name(policy: &PolicyKind) -> Result<&'static str, String> {
    match policy {
        PolicyKind::Late => Ok("late"),
        PolicyKind::Mantri => Ok("mantri"),
        PolicyKind::NoSpec => Ok("nospec"),
        PolicyKind::GsOnly => Ok("gs"),
        PolicyKind::RasOnly => Ok("ras"),
        PolicyKind::Oracle => Ok("oracle"),
        PolicyKind::Grass(_) if *policy == PolicyKind::grass() => Ok("grass"),
        PolicyKind::Grass(_) if *policy == PolicyKind::grass_sketched() => Ok("grass-sketch"),
        PolicyKind::Grass(_) => Err(
            "fleet cells carry named policies only; a custom GRASS config is not encodable"
                .to_string(),
        ),
    }
}

/// The digest-cache key for one sweep cell: every input that determines the
/// cell's outcomes. Cluster shape beyond the machine count is normalised
/// (machines are keyed separately) and included so heterogeneity/straggler
/// profile changes can never serve stale results.
pub fn cell_key(
    trace_id: &str,
    machines: usize,
    policy: &PolicyKind,
    seed: u64,
    base: &ExpConfig,
) -> Result<String, String> {
    let cluster_profile = ClusterConfig {
        machines: 0,
        ..base.cluster
    };
    Ok(format!(
        "grass-fleet cell v1 trace={} machines={} policy={} seed={} slots={} warmup={} estimator={} cluster={}",
        trace_id,
        machines,
        policy_wire_name(policy)?,
        seed,
        base.cluster.slots_per_machine,
        base.warmup_fraction,
        escape(&format!("{:?}", base.estimator)),
        escape(&format!("{cluster_profile:?}")),
    ))
}

// ---------------------------------------------------------------------------
// Cell spec codec (broker -> worker)
// ---------------------------------------------------------------------------

/// One cell of a fleet grid: the seed-level unit a worker runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellSpec {
    pub machines: usize,
    pub policy: PolicyKind,
    pub seed: u64,
}

fn encode_cell_spec(trace: &Path, cell: &FleetCellSpec, slots: usize) -> Result<String, String> {
    Ok(format!(
        "machines={} policy={} seed={} slots={} trace={}",
        cell.machines,
        policy_wire_name(&cell.policy)?,
        cell.seed,
        slots,
        escape(&trace.display().to_string()),
    ))
}

struct ParsedCellSpec {
    machines: usize,
    policy: PolicyKind,
    seed: u64,
    slots: usize,
    trace: PathBuf,
}

fn parse_cell_spec(spec: &str) -> Result<ParsedCellSpec, String> {
    let fields = FieldMap::parse(spec)?;
    Ok(ParsedCellSpec {
        machines: fields.number("machines")? as usize,
        policy: parse_policy(&fields.text("policy")?)?,
        seed: fields.number("seed")?,
        slots: fields.number("slots")? as usize,
        trace: PathBuf::from(fields.text("trace")?),
    })
}

/// `key=value` fields of one line (specs and payload lines share the format).
struct FieldMap<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> FieldMap<'a> {
    fn parse(line: &'a str) -> Result<FieldMap<'a>, String> {
        let mut fields = Vec::new();
        for part in line.split_whitespace() {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("field `{part}` is not key=value"))?;
            fields.push((key, value));
        }
        Ok(FieldMap { fields })
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn text(&self, key: &str) -> Result<String, String> {
        unescape(self.raw(key)?).map_err(|e| format!("field `{key}`: {e}"))
    }

    fn number(&self, key: &str) -> Result<u64, String> {
        let raw = self.raw(key)?;
        raw.parse::<u64>()
            .map_err(|e| format!("field `{key}`={raw}: {e}"))
    }

    fn float(&self, key: &str) -> Result<f64, String> {
        let raw = self.raw(key)?;
        raw.parse::<f64>()
            .map_err(|e| format!("field `{key}`={raw}: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Result payload codec (worker -> broker, and the digest cache value)
// ---------------------------------------------------------------------------

/// Encode one cell's outcomes at full precision. Floats use Rust's
/// shortest-round-trip `Display`, so decode is bit-exact for every finite
/// value and the merged digest cannot drift from the in-process one.
pub fn encode_cell_outcomes(set: &OutcomeSet) -> String {
    let mut out = format!("cellresult v1 outcomes={}\n", set.len());
    for o in set.all() {
        let bound = match o.bound {
            Bound::Deadline(d) => format!("deadline:{d}"),
            Bound::Error(e) => format!("error:{e}"),
        };
        out.push_str(&format!(
            "outcome job={} policy={} bound={} input_tasks={} total_tasks={} dag_length={} \
             arrival={} finish={} completed_input_tasks={} completed_tasks={} \
             speculative_copies={} killed_copies={} slot_seconds={} avg_wave_width={} \
             avg_cluster_utilization={} avg_estimation_accuracy={}\n",
            o.job.0,
            escape(&o.policy),
            bound,
            o.input_tasks,
            o.total_tasks,
            o.dag_length,
            o.arrival,
            o.finish,
            o.completed_input_tasks,
            o.completed_tasks,
            o.speculative_copies,
            o.killed_copies,
            o.slot_seconds,
            o.avg_wave_width,
            o.avg_cluster_utilization,
            o.avg_estimation_accuracy,
        ));
    }
    out
}

/// Decode a payload produced by [`encode_cell_outcomes`].
pub fn decode_cell_outcomes(payload: &str) -> Result<OutcomeSet, String> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or("empty cell payload")?;
    let expected = header
        .strip_prefix("cellresult v1 outcomes=")
        .ok_or_else(|| format!("bad cell payload header `{header}`"))?
        .parse::<usize>()
        .map_err(|e| format!("bad outcome count: {e}"))?;
    let mut outcomes = Vec::with_capacity(expected);
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let line = line
            .strip_prefix("outcome ")
            .ok_or_else(|| format!("bad outcome line `{line}`"))?;
        let fields = FieldMap::parse(line)?;
        let bound_raw = fields.raw("bound")?;
        let bound = match bound_raw.split_once(':') {
            Some(("deadline", v)) => {
                Bound::Deadline(v.parse::<f64>().map_err(|e| format!("bad deadline: {e}"))?)
            }
            Some(("error", v)) => {
                Bound::Error(v.parse::<f64>().map_err(|e| format!("bad error: {e}"))?)
            }
            _ => return Err(format!("bad bound `{bound_raw}`")),
        };
        outcomes.push(JobOutcome {
            job: JobId(fields.number("job")?),
            policy: fields.text("policy")?,
            bound,
            input_tasks: fields.number("input_tasks")? as usize,
            total_tasks: fields.number("total_tasks")? as usize,
            dag_length: fields.number("dag_length")? as usize,
            arrival: fields.float("arrival")?,
            finish: fields.float("finish")?,
            completed_input_tasks: fields.number("completed_input_tasks")? as usize,
            completed_tasks: fields.number("completed_tasks")? as usize,
            speculative_copies: fields.number("speculative_copies")? as usize,
            killed_copies: fields.number("killed_copies")? as usize,
            slot_seconds: fields.float("slot_seconds")?,
            avg_wave_width: fields.float("avg_wave_width")?,
            avg_cluster_utilization: fields.float("avg_cluster_utilization")?,
            avg_estimation_accuracy: fields.float("avg_estimation_accuracy")?,
        });
    }
    if outcomes.len() != expected {
        return Err(format!(
            "cell payload declared {expected} outcomes, carried {}",
            outcomes.len()
        ));
    }
    Ok(OutcomeSet::new(outcomes))
}

// ---------------------------------------------------------------------------
// The fleet plan: grid enumeration, cache lookup, grid-order merge
// ---------------------------------------------------------------------------

/// A sweep grid prepared for fleet execution: the trace it runs over, the
/// seed-level cells in dispatch order, and the merge back into a
/// [`SweepResult`].
///
/// Cell order is `SweepConfig::units()` (machines outer, policy inner) with
/// the seed innermost — per-unit payload chunks are contiguous, and pooling
/// them in seed order reproduces exactly what `run_policy` computes
/// in-process.
pub struct FleetPlan {
    pub trace_path: PathBuf,
    pub trace_id: String,
    pub meta: WorkloadMeta,
    pub source: StreamedWorkload,
    pub config: SweepConfig,
    pub cells: Vec<FleetCellSpec>,
}

impl FleetPlan {
    /// Build a plan for `config` over the trace at `path` (already opened as
    /// `meta`/`source`). Fails when the grid is not fleet-encodable: unnamed
    /// policies, or a `base` that deviates from the standard sweep profile a
    /// worker reconstructs from the cell spec.
    pub fn new(
        path: &Path,
        meta: WorkloadMeta,
        source: StreamedWorkload,
        config: SweepConfig,
    ) -> Result<FleetPlan, String> {
        // Workers may run in another working directory: ship an absolute path.
        let trace_path = std::fs::canonicalize(path)
            .map_err(|e| format!("cannot canonicalize {}: {e}", path.display()))?;
        let trace_id = trace_identity(&trace_path)?;

        // A worker rebuilds its ExpConfig from the spec as "ExpConfig::full()
        // with the spec's slots, over an ec2_scaled cluster". Reject bases that
        // would make that reconstruction diverge from the broker's merge.
        let canonical = ExpConfig::full();
        let expected_cluster = ClusterConfig {
            machines: config.base.cluster.machines,
            slots_per_machine: config.base.cluster.slots_per_machine,
            ..ClusterConfig::ec2_scaled()
        };
        if format!("{:?}", config.base.cluster) != format!("{expected_cluster:?}")
            || format!("{:?}", config.base.estimator) != format!("{:?}", canonical.estimator)
            || config.base.warmup_fraction != canonical.warmup_fraction
        {
            return Err(
                "fleet sweeps assume the standard experiment profile (ExpConfig::full over an \
                 ec2_scaled cluster); custom estimator/heterogeneity/warmup settings are not \
                 encodable in cell specs"
                    .to_string(),
            );
        }

        let mut cells = Vec::new();
        for (machines, policy) in config.units() {
            policy_wire_name(&policy)?;
            for &seed in &config.base.seeds {
                cells.push(FleetCellSpec {
                    machines,
                    policy: policy.clone(),
                    seed,
                });
            }
        }
        Ok(FleetPlan {
            trace_path,
            trace_id,
            meta,
            source,
            config,
            cells,
        })
    }

    /// Open the trace at `path` and build the plan in one step. With `mmap`,
    /// binary traces decode zero-copy out of a memory map (other formats fall
    /// back to the streamed open; the plan is identical either way).
    pub fn open(
        path: &Path,
        mmap: bool,
        config_for: impl FnOnce(&WorkloadMeta, &StreamedWorkload) -> Result<SweepConfig, String>,
    ) -> Result<FleetPlan, String> {
        let path = resolve_workload_path(path);
        let (meta, source) = if mmap {
            open_workload_source_mmap(&path)
        } else {
            open_workload_source(&path)
        }
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let config = config_for(&meta, &source)?;
        FleetPlan::new(&path, meta, source, config)
    }

    /// Wire specs for every cell, in dispatch (grid) order.
    pub fn specs(&self) -> Result<Vec<String>, String> {
        let slots = self.config.base.cluster.slots_per_machine;
        self.cells
            .iter()
            .map(|cell| encode_cell_spec(&self.trace_path, cell, slots))
            .collect()
    }

    /// Digest-cache key per cell, in dispatch order.
    pub fn keys(&self) -> Result<Vec<String>, String> {
        self.cells
            .iter()
            .map(|cell| {
                cell_key(
                    &self.trace_id,
                    cell.machines,
                    &cell.policy,
                    cell.seed,
                    &self.config.base,
                )
            })
            .collect()
    }

    /// Look every cell up in `cache`. A hit must also decode cleanly —
    /// corrupt entries are treated as misses, never merged.
    pub fn lookup_cached(&self, cache: &DigestCache) -> Result<Vec<Option<String>>, String> {
        Ok(self
            .keys()?
            .into_iter()
            .map(|key| {
                cache
                    .get(&key)
                    .filter(|payload| decode_cell_outcomes(payload).is_ok())
            })
            .collect())
    }

    /// Persist the payloads of cells that were actually run (`cached[i]` was
    /// `None`). Returns the number of entries written.
    pub fn write_back(
        &self,
        cache: &DigestCache,
        cached: &[Option<String>],
        payloads: &[String],
    ) -> Result<usize, String> {
        let keys = self.keys()?;
        let mut written = 0;
        for (i, key) in keys.iter().enumerate() {
            if cached.get(i).is_some_and(Option::is_none) {
                cache
                    .put(key, &payloads[i])
                    .map_err(|e| format!("cannot write cache entry: {e}"))?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Merge grid-order cell payloads into the [`SweepResult`] a
    /// single-process `run_sweep` of the same grid would produce.
    pub fn merge(&self, payloads: &[String], elapsed: Duration) -> Result<SweepResult, String> {
        if payloads.len() != self.cells.len() {
            return Err(format!(
                "fleet returned {} payloads for {} cells",
                payloads.len(),
                self.cells.len()
            ));
        }
        let decoded: Vec<OutcomeSet> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                decode_cell_outcomes(p).map_err(|e| format!("cell {i} payload invalid: {e}"))
            })
            .collect::<Result<_, String>>()?;
        let seeds = self.config.base.seeds.len().max(1);
        let sets: Vec<OutcomeSet> = decoded
            .chunks(seeds)
            .map(|chunk| merge_seed_sets(chunk.to_vec()))
            .collect();
        Ok(assemble_sweep_result(
            &self.source,
            &self.config,
            sets,
            elapsed,
        ))
    }
}

// ---------------------------------------------------------------------------
// The worker-side runner
// ---------------------------------------------------------------------------

/// Runs sweep cells from their wire specs — the [`CellRunner`] behind
/// `repro fleet work`. Opened traces are cached per path and the streamed
/// source is shared: no per-worker in-memory copy of the workload.
///
/// The runner keeps no learned state between cells: each cell warms its own
/// sample store from the trace, exactly as `run_sweep` does in-process.
pub struct SweepCellRunner {
    stall_ms: u64,
    mmap: bool,
    // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; cells fetch their own trace by path")
    sources: Mutex<HashMap<PathBuf, StreamedWorkload>>,
}

impl SweepCellRunner {
    pub fn new() -> SweepCellRunner {
        SweepCellRunner::with_stall(0)
    }

    /// A runner that sleeps `stall_ms` before every cell — fault-injection
    /// hook (`repro fleet work --stall-ms N`) so tests can SIGKILL a worker
    /// reliably mid-cell.
    pub fn with_stall(stall_ms: u64) -> SweepCellRunner {
        SweepCellRunner {
            stall_ms,
            mmap: false,
            // grass: allow(unordered-iter-on-digest-path, "keyed lookup only; cells fetch their own trace by path")
            sources: Mutex::new(HashMap::new()),
        }
    }

    /// Open traces through the zero-copy mmap path (`repro fleet work --mmap`).
    /// Cell payloads are identical either way; only the read path differs.
    pub fn with_mmap(mut self, mmap: bool) -> SweepCellRunner {
        self.mmap = mmap;
        self
    }

    fn source_for(&self, path: &Path) -> Result<StreamedWorkload, String> {
        let mut sources = self.sources.lock().unwrap();
        if let Some(source) = sources.get(path) {
            return Ok(source.clone());
        }
        let (_meta, source) = if self.mmap {
            open_workload_source_mmap(path)
        } else {
            open_workload_source(path)
        }
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.insert(path.to_path_buf(), source.clone());
        Ok(source)
    }
}

impl Default for SweepCellRunner {
    fn default() -> Self {
        SweepCellRunner::new()
    }
}

impl CellRunner for SweepCellRunner {
    fn run(&self, _cell: usize, spec: &str) -> Result<String, String> {
        let parsed = parse_cell_spec(spec)?;
        if self.stall_ms > 0 {
            thread::sleep(Duration::from_millis(self.stall_ms));
        }
        let source = self.source_for(&parsed.trace)?;
        // The profile FleetPlan::new validated: ExpConfig::full() over an
        // ec2_scaled cluster with the spec's slot count.
        let base = ExpConfig {
            cluster: ClusterConfig {
                slots_per_machine: parsed.slots,
                ..ClusterConfig::ec2_scaled()
            },
            ..ExpConfig::full()
        };
        let set = run_sweep_cell(&source, &base, parsed.machines, &parsed.policy, parsed.seed);
        Ok(encode_cell_outcomes(&set))
    }
}

// ---------------------------------------------------------------------------
// Cache-aware in-process sweep (`repro sweep --resume`)
// ---------------------------------------------------------------------------

/// What a cache-aware sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeStats {
    pub cells: usize,
    pub cached: usize,
    pub ran: usize,
}

/// Run `config` over `source` in-process, serving cells from `cache` where
/// the input hash matches and persisting every cell that had to run. The
/// result is byte-identical to [`crate::run_sweep`] of the same grid.
pub fn run_sweep_with_cache(
    source: &(dyn JobSource + Sync),
    config: &SweepConfig,
    cache: &DigestCache,
    trace_id: &str,
) -> Result<(SweepResult, ResumeStats), String> {
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let units = config.units();
    let seeds = config.base.seeds.clone();
    let mut cells = Vec::new();
    for (machines, policy) in &units {
        for &seed in &seeds {
            cells.push((*machines, policy.clone(), seed));
        }
    }
    let keys: Vec<String> = cells
        .iter()
        .map(|(m, p, s)| cell_key(trace_id, *m, p, *s, &config.base))
        .collect::<Result<_, String>>()?;

    let mut sets: Vec<Option<OutcomeSet>> = keys
        .iter()
        .map(|key| {
            cache
                .get(key)
                .and_then(|payload| decode_cell_outcomes(&payload).ok())
        })
        .collect();
    let cached = sets.iter().flatten().count();
    let misses: Vec<usize> = (0..cells.len()).filter(|&i| sets[i].is_none()).collect();

    // Run the misses on the sweep's thread pool (claim-counter indexing, so
    // the fill order — and therefore the digest — is scheduling-independent).
    let workers = config.threads.max(1).min(misses.len().max(1));
    let ran: Vec<(usize, OutcomeSet)> = if workers <= 1 {
        misses
            .iter()
            .map(|&i| {
                let (m, p, s) = &cells[i];
                (i, run_sweep_cell(source, &config.base, *m, p, *s))
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, OutcomeSet)>> =
            Mutex::new(Vec::with_capacity(misses.len()));
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= misses.len() {
                        break;
                    }
                    let i = misses[slot];
                    let (m, p, s) = &cells[i];
                    let set = run_sweep_cell(source, &config.base, *m, p, *s);
                    collected.lock().unwrap().push((i, set));
                });
            }
        });
        collected.into_inner().unwrap()
    };
    for (i, set) in ran {
        cache
            .put(&keys[i], &encode_cell_outcomes(&set))
            .map_err(|e| format!("cannot write cache entry: {e}"))?;
        sets[i] = Some(set);
    }

    let per_unit: Vec<OutcomeSet> = sets
        .into_iter()
        .map(|s| s.expect("every cell resolved"))
        .collect::<Vec<_>>()
        .chunks(seeds.len().max(1))
        .map(|chunk| merge_seed_sets(chunk.to_vec()))
        .collect();
    let stats = ResumeStats {
        cells: cells.len(),
        cached,
        ran: misses.len(),
    };
    Ok((
        assemble_sweep_result(source, config, per_unit, started.elapsed()),
        stats,
    ))
}

// ---------------------------------------------------------------------------
// CLI: repro fleet serve | work | run
// ---------------------------------------------------------------------------

const GRID_FLAGS: &[&str] = &["machines", "slots", "policies", "baseline", "seeds"];
const TIMING_FLAGS: &[&str] = &[
    "heartbeat-ms",
    "lease-timeout-ms",
    "backoff-base-ms",
    "backoff-jitter-ms",
    "max-retries",
    "backoff-seed",
    "poll-ms",
];

fn fleet_config_from_flags(flags: &Flags) -> Result<FleetConfig, String> {
    let mut cfg = if flags.has("test-profile") {
        FleetConfig::test_profile()
    } else {
        FleetConfig::production()
    };
    cfg.heartbeat_ms = flags.get_u64("heartbeat-ms", cfg.heartbeat_ms)?;
    cfg.lease_timeout_ms = flags.get_u64("lease-timeout-ms", cfg.lease_timeout_ms)?;
    cfg.backoff_base_ms = flags.get_u64("backoff-base-ms", cfg.backoff_base_ms)?;
    cfg.backoff_jitter_ms = flags.get_u64("backoff-jitter-ms", cfg.backoff_jitter_ms)?;
    cfg.max_retries = flags.get_u64("max-retries", cfg.max_retries as u64)? as u32;
    cfg.backoff_seed = flags.get_u64("backoff-seed", cfg.backoff_seed)?;
    cfg.poll_ms = flags.get_u64("poll-ms", cfg.poll_ms)?;
    Ok(cfg)
}

/// Entry point for `repro fleet <serve|work|run> ...`.
pub fn run_fleet_command(args: &[String]) -> Result<(), String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(
            "fleet expects a verb: serve <trace>, work --connect <addr>, or run <trace> \
             --workers N"
                .to_string(),
        );
    };
    match verb.as_str() {
        "serve" => fleet_serve_command(rest),
        "work" => fleet_work_command(rest),
        "run" => fleet_run_command(rest),
        other => Err(format!(
            "unknown fleet verb '{other}'; expected serve, work or run"
        )),
    }
}

fn fleet_serve_command(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_switches(args, &["quick", "test-profile", "mmap"])?;
    let mut allowed = vec!["quick", "test-profile", "cache", "port", "mmap"];
    allowed.extend_from_slice(GRID_FLAGS);
    allowed.extend_from_slice(TIMING_FLAGS);
    flags.reject_unknown(&allowed)?;
    let [path] = flags.positional.as_slice() else {
        return Err("fleet serve expects exactly one workload trace path".to_string());
    };
    let plan = FleetPlan::open(Path::new(path), flags.has("mmap"), |meta, source| {
        sweep_config_from_flags(&flags, meta, source)
    })?;
    let fleet_config = fleet_config_from_flags(&flags)?;
    let port = flags.get_u64("port", 0)? as u16;
    let cache = open_cache(&flags)?;
    run_plan(
        plan,
        fleet_config,
        cache.as_ref(),
        |handle_addr| {
            eprintln!(
                "fleet broker listening on {handle_addr}; start workers with: \
                 repro fleet work --connect {handle_addr}"
            );
            Ok(Vec::new())
        },
        port,
    )
}

fn fleet_run_command(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_switches(args, &["quick", "test-profile", "mmap"])?;
    let mut allowed = vec![
        "quick",
        "test-profile",
        "cache",
        "workers",
        "stall-ms",
        "mmap",
    ];
    allowed.extend_from_slice(GRID_FLAGS);
    allowed.extend_from_slice(TIMING_FLAGS);
    flags.reject_unknown(&allowed)?;
    let [path] = flags.positional.as_slice() else {
        return Err("fleet run expects exactly one workload trace path".to_string());
    };
    let fleet_config = fleet_config_from_flags(&flags)?;
    let workers = flags.get_usize("workers", 2)?;
    if workers == 0 {
        return Err("fleet run needs --workers >= 1".to_string());
    }
    let stall_ms = flags.get_u64("stall-ms", 0)?;
    let mmap = flags.has("mmap");
    let plan = FleetPlan::open(Path::new(path), mmap, |meta, source| {
        sweep_config_from_flags(&flags, meta, source)
    })?;
    let cache = open_cache(&flags)?;

    let specs = plan.specs()?;
    let cached = match cache.as_ref() {
        Some(cache) => plan.lookup_cached(cache)?,
        None => vec![None; specs.len()],
    };
    let cached_count = cached.iter().flatten().count();
    eprintln!(
        "fleet run: {} cells ({cached_count} cached), {workers} local worker(s)",
        specs.len()
    );
    let exe = env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let report = run_fleet(specs, cached.clone(), fleet_config, workers, |i, addr| {
        let mut cmd = Command::new(&exe);
        cmd.arg("fleet")
            .arg("work")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--id")
            .arg(format!("worker-{i}"));
        if stall_ms > 0 {
            cmd.arg("--stall-ms").arg(stall_ms.to_string());
        }
        if mmap {
            cmd.arg("--mmap");
        }
        // Workers log to stderr; keep stdout digest-clean.
        cmd.stdout(Stdio::null());
        cmd
    })
    .map_err(|e| e.to_string())?;
    finish_fleet(
        &plan,
        cache.as_ref(),
        &cached,
        report.outcome,
        started.elapsed(),
    )
}

fn fleet_work_command(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_switches(args, &["mmap"])?;
    flags.reject_unknown(&["connect", "id", "stall-ms", "mmap"])?;
    if !flags.positional.is_empty() {
        return Err("fleet work takes no positional arguments".to_string());
    }
    let Some(addr) = flags.get("connect") else {
        return Err("fleet work needs --connect <host:port>".to_string());
    };
    let default_id = format!("worker-{}", std::process::id());
    let id = flags.get("id").unwrap_or(default_id.as_str());
    let stall_ms = flags.get_u64("stall-ms", 0)?;
    let runner = SweepCellRunner::with_stall(stall_ms).with_mmap(flags.has("mmap"));
    eprintln!("fleet worker {id} connecting to {addr}");
    let report = run_worker(addr, id, &runner).map_err(|e| e.to_string())?;
    eprintln!(
        "fleet worker {id} done: completed={} failed={} stale={}",
        report.completed, report.failed, report.stale
    );
    Ok(())
}

fn open_cache(flags: &Flags) -> Result<Option<DigestCache>, String> {
    match flags.get("cache") {
        Some(dir) => DigestCache::open(dir)
            .map(Some)
            .map_err(|e| format!("cannot open cache {dir}: {e}")),
        None => Ok(None),
    }
}

/// Serve `plan` on a broker, let `before_wait` start (or announce) workers,
/// wait for the grid, then merge/report. Shared by `fleet serve` (external
/// workers) and tests.
fn run_plan(
    plan: FleetPlan,
    fleet_config: FleetConfig,
    cache: Option<&DigestCache>,
    before_wait: impl FnOnce(std::net::SocketAddr) -> Result<Vec<std::process::Child>, String>,
    port: u16,
) -> Result<(), String> {
    let specs = plan.specs()?;
    let cached = match cache {
        Some(cache) => plan.lookup_cached(cache)?,
        None => vec![None; specs.len()],
    };
    // grass: allow(wall-clock-in-core, "elapsed is operator-facing metadata; digests and comparisons never read it")
    let started = Instant::now();
    let handle = serve_broker_on(specs, cached.clone(), fleet_config, port)
        .map_err(|e| format!("cannot start broker: {e}"))?;
    let _children = before_wait(handle.addr())?;
    let outcome = handle.wait().map_err(|e| e.to_string())?;
    finish_fleet(&plan, cache, &cached, outcome, started.elapsed())
}

/// Write back fresh cells, merge in grid order, render tables (stderr) and
/// the digest (stdout) exactly like `repro sweep`.
fn finish_fleet(
    plan: &FleetPlan,
    cache: Option<&DigestCache>,
    cached: &[Option<String>],
    outcome: FleetOutcome,
    elapsed: Duration,
) -> Result<(), String> {
    if let Some(cache) = cache {
        plan.write_back(cache, cached, &outcome.results)?;
    }
    let result = plan.merge(&outcome.results, elapsed)?;
    eprintln!(
        "{}",
        result
            .improvement_table()
            .render_text()
            .trim_end_matches('\n')
    );
    eprintln!(
        "{}",
        result.mean_table().render_text().trim_end_matches('\n')
    );
    let stats = outcome.stats;
    eprintln!(
        "fleet cells={} cached={} ran={} dispatched={} expired_leases={} crash_releases={} \
         failed_reports={} stale_completes={} elapsed={elapsed:.2?}",
        plan.cells.len(),
        stats.cached,
        stats.completed,
        stats.dispatched,
        stats.expired_leases,
        stats.crash_releases,
        stats.failed_reports,
        stats.stale_completes,
    );
    print!("{}", result.digest());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grass_trace::record_workload;
    use grass_workload::{BoundSpec, Framework, TraceProfile, WorkloadConfig};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!("grass-fleet-exp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record_trace(dir: &Path) -> PathBuf {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(6)
            .with_bound(BoundSpec::paper_errors());
        let trace = record_workload(&config, 7, 11, "late", 10, 4);
        let path = dir.join("workload.trace");
        trace
            .save_as(&path, grass_trace::TraceFormat::Text)
            .unwrap();
        path
    }

    fn tiny_config(meta: &WorkloadMeta, source: &StreamedWorkload) -> SweepConfig {
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
            machines: vec![6, 10],
            policies: vec![PolicyKind::Late, PolicyKind::GsOnly],
            baseline: PolicyKind::Late,
            threads: 1,
            base,
        }
    }

    #[test]
    fn outcome_payloads_round_trip_bit_exactly() {
        let outcomes = vec![
            JobOutcome {
                job: JobId(3),
                policy: "GS then RAS".into(),
                bound: Bound::Deadline(0.1 + 0.2), // 0.30000000000000004
                input_tasks: 50,
                total_tasks: 75,
                dag_length: 2,
                arrival: 1.5e-300,
                finish: f64::MAX,
                completed_input_tasks: 48,
                completed_tasks: 70,
                speculative_copies: 3,
                killed_copies: 1,
                slot_seconds: 123.45678901234568,
                avg_wave_width: 4.000000000000001,
                avg_cluster_utilization: 0.9999999999999999,
                avg_estimation_accuracy: -0.0,
            },
            JobOutcome {
                job: JobId(4),
                policy: "LATE".into(),
                bound: Bound::Error(0.05),
                input_tasks: 1,
                total_tasks: 1,
                dag_length: 1,
                arrival: 0.0,
                finish: 7.25,
                completed_input_tasks: 1,
                completed_tasks: 1,
                speculative_copies: 0,
                killed_copies: 0,
                slot_seconds: 7.25,
                avg_wave_width: 1.0,
                avg_cluster_utilization: 0.5,
                avg_estimation_accuracy: 1.0,
            },
        ];
        let set = OutcomeSet::new(outcomes);
        let payload = encode_cell_outcomes(&set);
        let decoded = decode_cell_outcomes(&payload).unwrap();
        assert_eq!(decoded.all(), set.all());
        // Re-encoding is canonical: byte-identical payloads.
        assert_eq!(encode_cell_outcomes(&decoded), payload);
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        assert!(decode_cell_outcomes("").is_err());
        assert!(decode_cell_outcomes("cellresult v2 outcomes=0\n").is_err());
        assert!(decode_cell_outcomes("cellresult v1 outcomes=1\n").is_err());
        assert!(
            decode_cell_outcomes("cellresult v1 outcomes=1\noutcome job=1\n").is_err(),
            "missing fields must not decode"
        );
    }

    #[test]
    fn cell_specs_round_trip_and_name_every_standard_policy() {
        let spec = FleetCellSpec {
            machines: 50,
            policy: PolicyKind::grass(),
            seed: 23,
        };
        let line = encode_cell_spec(Path::new("/tmp/some dir/workload.trace"), &spec, 4).unwrap();
        let parsed = parse_cell_spec(&line).unwrap();
        assert_eq!(parsed.machines, 50);
        assert_eq!(parsed.policy, PolicyKind::grass());
        assert_eq!(parsed.seed, 23);
        assert_eq!(parsed.slots, 4);
        assert_eq!(parsed.trace, PathBuf::from("/tmp/some dir/workload.trace"));

        for policy in [
            PolicyKind::Late,
            PolicyKind::Mantri,
            PolicyKind::NoSpec,
            PolicyKind::GsOnly,
            PolicyKind::RasOnly,
            PolicyKind::Oracle,
            PolicyKind::grass(),
            PolicyKind::grass_sketched(),
        ] {
            let name = policy_wire_name(&policy).unwrap();
            assert_eq!(parse_policy(name).unwrap(), policy);
        }
        // A tuned GRASS config has no wire name.
        let mut tuned = match PolicyKind::grass() {
            PolicyKind::Grass(cfg) => cfg,
            _ => unreachable!(),
        };
        tuned.xi += 0.01;
        assert!(policy_wire_name(&PolicyKind::Grass(tuned)).is_err());
    }

    #[test]
    fn cell_keys_separate_every_input() {
        let base = ExpConfig::full();
        let key = |trace: &str, m: usize, p: PolicyKind, s: u64| {
            cell_key(trace, m, &p, s, &base).unwrap()
        };
        let reference = key("t1", 20, PolicyKind::Late, 11);
        assert_eq!(reference, key("t1", 20, PolicyKind::Late, 11));
        assert_ne!(reference, key("t2", 20, PolicyKind::Late, 11));
        assert_ne!(reference, key("t1", 50, PolicyKind::Late, 11));
        assert_ne!(reference, key("t1", 20, PolicyKind::GsOnly, 11));
        assert_ne!(reference, key("t1", 20, PolicyKind::Late, 12));
        let mut other_slots = base.clone();
        other_slots.cluster.slots_per_machine += 1;
        assert_ne!(
            reference,
            cell_key("t1", 20, &PolicyKind::Late, 11, &other_slots).unwrap()
        );
    }

    #[test]
    fn resume_cache_reruns_nothing_and_reproduces_the_digest() {
        let dir = temp_dir("resume");
        let trace_path = record_trace(&dir);
        let (meta, source) = open_workload_source(&trace_path).unwrap();
        let config = tiny_config(&meta, &source);
        let expected = crate::run_sweep(&source, &config);

        let cache = DigestCache::open(dir.join("cache")).unwrap();
        let trace_id = trace_identity(&trace_path).unwrap();
        let (first, first_stats) =
            run_sweep_with_cache(&source, &config, &cache, &trace_id).unwrap();
        assert_eq!(first.digest(), expected.digest());
        assert_eq!(first_stats.cached, 0);
        assert_eq!(first_stats.ran, first_stats.cells);

        let (second, second_stats) =
            run_sweep_with_cache(&source, &config, &cache, &trace_id).unwrap();
        assert_eq!(second.digest(), expected.digest());
        assert_eq!(second_stats.cached, second_stats.cells);
        assert_eq!(second_stats.ran, 0);

        // A threaded resume fills the same digest.
        let mut threaded = config.clone();
        threaded.threads = 3;
        let fresh_cache = DigestCache::open(dir.join("cache2")).unwrap();
        let (third, _) = run_sweep_with_cache(&source, &threaded, &fresh_cache, &trace_id).unwrap();
        assert_eq!(third.digest(), expected.digest());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_plan_rejects_non_standard_profiles() {
        let dir = temp_dir("plan-reject");
        let trace_path = record_trace(&dir);
        let (meta, source) = open_workload_source(&trace_path).unwrap();
        let mut config = tiny_config(&meta, &source);
        config.base.warmup_fraction = 0.25;
        let err = match FleetPlan::new(&trace_path, meta, source, config) {
            Ok(_) => panic!("non-standard profile accepted"),
            Err(e) => e,
        };
        assert!(err.contains("standard experiment profile"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_command_rejects_bad_invocations() {
        assert!(run_fleet_command(&[]).unwrap_err().contains("verb"));
        let err = run_fleet_command(&["sow".into()]).unwrap_err();
        assert!(err.contains("unknown fleet verb"), "{err}");
        let err = run_fleet_command(&["work".into()]).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = run_fleet_command(&["run".into(), "x".into(), "--workers".into(), "0".into()])
            .unwrap_err();
        assert!(err.contains("--workers >= 1"), "{err}");
        let err = run_fleet_command(&["serve".into()]).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }
}
