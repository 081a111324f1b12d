//! GRASS's shared sample store (§4.1–4.2 of the paper).
//!
//! GRASS learns *when to switch* from RAS to GS by comparing the performance of past
//! jobs that ran **pure GS** or **pure RAS** throughout (those samples are produced by
//! the ξ-perturbation in [`crate::grass::GrassFactory`]). Samples are bucketed by job
//! size and annotated with the three factors the paper identifies (§4.1):
//!
//! 1. the approximation bound (remaining deadline / tasks still needed),
//! 2. cluster utilisation,
//! 3. estimation accuracy of `trem` / `tnew`.
//!
//! A query asks: "for a job of roughly this size, under these cluster conditions, how
//! fast does GS (or RAS) complete tasks?" The answer is a *task completion rate*
//! (tasks per second), estimated as a similarity-weighted average over stored samples.
//! Which factors participate in the similarity weighting is controlled by a
//! [`FactorSet`], which is how the Best-1 / Best-2 ablations of §6.3.2 are expressed.
//!
//! # Two-layer layout
//!
//! Internally the store is **partitioned by `(BoundKind, SpeculationMode)`** — the
//! exact pair every prediction filters on — so `predict_rate` touches only the
//! relevant partition instead of scanning the whole history. Within a partition,
//! samples keep their global insertion order (each carries a global sequence number),
//! so the float summation order of the similarity-weighted mean is *identical* to the
//! historical whole-vector scan and predictions are bit-for-bit unchanged. Eviction
//! at the retention cap pops the globally oldest sample (smallest sequence number
//! across partition fronts), reproducing the historical FIFO exactly — but as an O(1)
//! `VecDeque::pop_front` instead of an O(cap) front drain.
//!
//! A store built with [`SampleStore::sketched`] keeps a **sketched layer** instead:
//! per-partition binned aggregates keyed by size bucket × coarse bound / utilisation /
//! accuracy bins, each bin holding `(Σw, Σw·rate)`, plus a lifetime observation count.
//! It answers predictions *from the bins* — O(bins) per query and O(1) memory per
//! partition regardless of job count. Each layer maintains only the state it reads:
//! exact stores keep no bins, sketched stores keep no raw samples. See
//! `docs/sample-store.md` for the full contract.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::bins::SizeBucket;
use crate::job::Bound;
use crate::outcome::JobOutcome;
use crate::speculation::SpeculationMode;

/// Which of the three learning factors participate in sample matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FactorSet {
    /// Match on the approximation bound (remaining deadline / tasks needed).
    pub bound: bool,
    /// Match on cluster utilisation.
    pub utilization: bool,
    /// Match on estimation accuracy.
    pub accuracy: bool,
}

impl FactorSet {
    /// All three factors — full GRASS.
    pub fn all() -> Self {
        FactorSet {
            bound: true,
            utilization: true,
            accuracy: true,
        }
    }

    /// Only the approximation bound (the paper's "Best-1" configuration: when a single
    /// factor is used, the bound gives the best results).
    pub fn best_one() -> Self {
        FactorSet {
            bound: true,
            utilization: false,
            accuracy: false,
        }
    }

    /// Bound + cluster utilisation (the paper's "Best-2" for the Hadoop prototype).
    pub fn best_two_utilization() -> Self {
        FactorSet {
            bound: true,
            utilization: true,
            accuracy: false,
        }
    }

    /// Bound + estimation accuracy (the paper's "Best-2" for the Spark prototype).
    pub fn best_two_accuracy() -> Self {
        FactorSet {
            bound: true,
            utilization: false,
            accuracy: true,
        }
    }

    /// Number of active factors.
    pub fn count(&self) -> usize {
        usize::from(self.bound) + usize::from(self.utilization) + usize::from(self.accuracy)
    }
}

impl Default for FactorSet {
    fn default() -> Self {
        FactorSet::all()
    }
}

/// Whether a sample (or query) concerns a deadline-bound or error-bound job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundKind {
    /// Deadline-bound: performance is "input tasks completed within the deadline".
    Deadline,
    /// Error-bound: performance is "seconds to complete the needed tasks".
    Error,
}

impl BoundKind {
    /// Classify a [`Bound`].
    pub fn of(bound: &Bound) -> Self {
        match bound {
            Bound::Deadline(_) => BoundKind::Deadline,
            Bound::Error(_) => BoundKind::Error,
        }
    }
}

/// One recorded sample: a job that ran pure GS or pure RAS throughout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Which algorithm the job ran.
    pub mode: SpeculationMode,
    /// Deadline- or error-bound.
    pub kind: BoundKind,
    /// Geometric size bucket of the job.
    pub size_bucket: SizeBucket,
    /// The bound value: deadline seconds (deadline jobs) or number of tasks that had
    /// to complete (error jobs).
    pub bound_value: f64,
    /// The measured performance: input tasks completed (deadline jobs) or job duration
    /// in seconds (error jobs).
    pub performance: f64,
    /// Average cluster utilisation observed while the job ran, in `[0, 1]`.
    pub utilization: f64,
    /// Average measured estimation accuracy while the job ran, in `[0, 1]`.
    pub accuracy: f64,
}

impl Sample {
    /// Task completion rate implied by this sample, in tasks per second.
    ///
    /// * Deadline jobs: `completed tasks / deadline`.
    /// * Error jobs: `tasks needed / duration`.
    pub fn rate(&self) -> f64 {
        match self.kind {
            BoundKind::Deadline => {
                if self.bound_value <= 0.0 {
                    0.0
                } else {
                    self.performance / self.bound_value
                }
            }
            BoundKind::Error => {
                if self.performance <= 0.0 {
                    0.0
                } else {
                    self.bound_value / self.performance
                }
            }
        }
    }

    /// Build a sample from a completed job outcome. Returns `None` for outcomes that
    /// carry no usable signal (zero tasks, zero duration).
    pub fn from_outcome(mode: SpeculationMode, outcome: &JobOutcome) -> Option<Sample> {
        let kind = BoundKind::of(&outcome.bound);
        let (bound_value, performance) = match outcome.bound {
            Bound::Deadline(d) => {
                if d <= 0.0 {
                    return None;
                }
                (d, outcome.completed_input_tasks as f64)
            }
            Bound::Error(e) => {
                let needed = Bound::Error(e).tasks_needed(outcome.input_tasks);
                let duration = outcome.duration();
                if needed == 0 || duration <= 0.0 {
                    return None;
                }
                (needed as f64, duration)
            }
        };
        Some(Sample {
            mode,
            kind,
            size_bucket: SizeBucket::of(outcome.input_tasks),
            bound_value,
            performance,
            utilization: outcome.avg_cluster_utilization,
            accuracy: outcome.avg_estimation_accuracy,
        })
    }
}

/// Query context for a rate prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryContext {
    /// Deadline- or error-bound job.
    pub kind: BoundKind,
    /// Size bucket of the querying job.
    pub size_bucket: SizeBucket,
    /// The bound value being considered (remaining deadline seconds / tasks still
    /// needed for the segment in question).
    pub bound_value: f64,
    /// Current cluster utilisation.
    pub utilization: f64,
    /// Current measured estimation accuracy.
    pub accuracy: f64,
}

/// O(1) snapshot of the store's per-(kind, mode) sample counts, tagged with the
/// store generation it was taken at. Taken under a single lock acquisition, so the
/// counts are mutually consistent and the generation identifies exactly which store
/// state they describe — a [`crate::grass::SwitchScanCache`] holds one of these and
/// reuses it for every switching evaluation until the generation moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounts {
    /// [`SampleStore::generation`] at snapshot time.
    pub generation: u64,
    /// `(GS, RAS)` sample counts for deadline-bound samples.
    pub deadline: (usize, usize),
    /// `(GS, RAS)` sample counts for error-bound samples.
    pub error: (usize, usize),
}

impl StoreCounts {
    /// `(GS, RAS)` counts for one bound kind.
    pub fn for_kind(&self, kind: BoundKind) -> (usize, usize) {
        match kind {
            BoundKind::Deadline => self.deadline,
            BoundKind::Error => self.error,
        }
    }
}

/// Number of `(BoundKind, SpeculationMode)` partitions.
const NUM_PARTITIONS: usize = 4;

fn kind_idx(kind: BoundKind) -> usize {
    match kind {
        BoundKind::Deadline => 0,
        BoundKind::Error => 1,
    }
}

fn mode_idx(mode: SpeculationMode) -> usize {
    match mode {
        SpeculationMode::Gs => 0,
        SpeculationMode::Ras => 1,
    }
}

/// Partition index for a `(mode, kind)` pair.
fn par_idx(mode: SpeculationMode, kind: BoundKind) -> usize {
    kind_idx(kind) * 2 + mode_idx(mode)
}

/// `floor(log2(x))` for finite positive `x`, read straight off the exponent bits so
/// the result is exact and identical on every platform (no libm rounding).
fn floor_log2(x: f64) -> i32 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // Subnormal: below 2^-1022, far under the bound-bin floor; clamp hard.
        -1075
    } else {
        exp - 1023
    }
}

/// Exact power of two `2^e` built from the exponent bits (for `e` in normal range).
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Sentinel bound bin for non-positive / non-finite bound values, which the exact
/// kernel assigns infinite log-distance (zero weight) whenever the bound factor is
/// active.
const BOUND_BIN_NONE: u8 = 255;

/// Coarse bound bin: one bin per power of two over `[2^-31, 2^31]`, clamped at the
/// edges; [`BOUND_BIN_NONE`] for values without a usable logarithm.
fn bound_bin(value: f64) -> u8 {
    if value > 0.0 && value.is_finite() {
        (floor_log2(value) + 31).clamp(0, 62) as u8
    } else {
        BOUND_BIN_NONE
    }
}

/// Geometric centre `1.5 · 2^(bin-31)` of a (non-sentinel) bound bin.
fn bound_bin_center(bin: u8) -> f64 {
    1.5 * pow2(i32::from(bin) - 31)
}

/// Decile bin for utilisation / accuracy values nominally in `[0, 1]`; out-of-range
/// and NaN values clamp into the edge deciles.
fn decile_bin(value: f64) -> u8 {
    ((value * 10.0) as i32).clamp(0, 9) as u8
}

/// Centre of a decile bin.
fn decile_center(bin: u8) -> f64 {
    (f64::from(bin) + 0.5) / 10.0
}

/// Key of one sketched-layer bin: size bucket × coarse factor bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BinKey {
    size: u8,
    bound: u8,
    util: u8,
    acc: u8,
}

impl BinKey {
    fn of(sample: &Sample) -> BinKey {
        BinKey {
            size: sample.size_bucket.0,
            bound: bound_bin(sample.bound_value),
            util: decile_bin(sample.utilization),
            acc: decile_bin(sample.accuracy),
        }
    }
}

/// Aggregates of one sketched-layer bin: `(Σw, Σw·rate)` over the samples that
/// landed in it, where `w` is each sample's kernel weight against its own bin's
/// centres (its "self weight").
#[derive(Debug, Clone, Copy, Default)]
struct BinAgg {
    w_sum: f64,
    wr_sum: f64,
}

/// Kernel weight of a sample against the centres of its own bin — strictly positive,
/// so every recorded rate contributes to the bin's weighted mean.
fn self_weight(sample: &Sample, key: BinKey) -> f64 {
    // Size-bucket distance to the sample's own bucket is zero, so that kernel is 1.
    let mut w = 1.0;
    if key.bound != BOUND_BIN_NONE {
        w *= 1.0 / (1.0 + log_ratio(sample.bound_value, bound_bin_center(key.bound)));
    }
    w *= 1.0 / (1.0 + 5.0 * (sample.utilization - decile_center(key.util)).abs());
    w *= 1.0 / (1.0 + 5.0 * (sample.accuracy - decile_center(key.acc)).abs());
    w
}

/// Kernel weight of a query against a bin's centres, honouring the active factors —
/// the sketched analogue of the exact per-sample kernel.
fn query_weight(key: &BinKey, ctx: &QueryContext, factors: FactorSet) -> f64 {
    let mut q = 1.0 / (1.0 + f64::from(SizeBucket(key.size).distance(&ctx.size_bucket)));
    if factors.bound {
        if key.bound == BOUND_BIN_NONE {
            // Exact kernel: log_ratio is infinite for non-positive bounds => weight 0.
            return 0.0;
        }
        q *= 1.0 / (1.0 + log_ratio(bound_bin_center(key.bound), ctx.bound_value));
    }
    if factors.utilization {
        q *= 1.0 / (1.0 + 5.0 * (decile_center(key.util) - ctx.utilization).abs());
    }
    if factors.accuracy {
        q *= 1.0 / (1.0 + 5.0 * (decile_center(key.acc) - ctx.accuracy).abs());
    }
    q
}

/// One `(BoundKind, SpeculationMode)` partition. Exact stores fill only the FIFO of
/// retained samples; sketched stores fill only the binned aggregates and the lifetime
/// observation count (never decremented; bins are eviction-free).
#[derive(Debug, Clone, Default)]
struct Partition {
    fifo: VecDeque<(u64, Sample)>,
    bins: BTreeMap<BinKey, BinAgg>,
    lifetime: u64,
}

impl Partition {
    /// Fold a sample into the sketched layer.
    fn fold(&mut self, sample: &Sample) {
        let key = BinKey::of(sample);
        let w = self_weight(sample, key);
        let agg = self.bins.entry(key).or_default();
        agg.w_sum += w;
        agg.wr_sum += w * sample.rate();
        self.lifetime += 1;
    }
}

/// All four partitions plus the global sequence counter that preserves cross-partition
/// FIFO order for eviction.
#[derive(Debug, Default)]
struct Inner {
    parts: [Partition; NUM_PARTITIONS],
    retained: usize,
    next_seq: u64,
}

impl Inner {
    /// Evict the globally oldest retained sample: the smallest sequence number among
    /// the partition fronts. O(partitions) compare + O(1) pop, versus the historical
    /// O(cap) front drain of a flat `Vec`.
    fn evict_oldest(&mut self) {
        let mut oldest: Option<usize> = None;
        let mut oldest_seq = u64::MAX;
        for (i, part) in self.parts.iter().enumerate() {
            if let Some(&(seq, _)) = part.fifo.front() {
                if seq < oldest_seq {
                    oldest_seq = seq;
                    oldest = Some(i);
                }
            }
        }
        if let Some(i) = oldest {
            self.parts[i].fifo.pop_front();
            self.retained -= 1;
        }
    }
}

/// Whether a store answers predictions from the exact partitions or the sketched
/// bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreLayer {
    Exact,
    Sketched,
}

/// Thread-safe store of GS / RAS performance samples shared by every GRASS job in a
/// simulation run.
///
/// Per-(kind, mode) sample counts are maintained incrementally alongside the sample
/// partitions, and a monotonically increasing *generation* is bumped on every
/// mutation. Together they let the switching evaluation's sparse-store pre-flight run
/// without scanning — and, via `StoreCounts` memoisation, usually without even taking
/// the lock.
#[derive(Debug)]
pub struct SampleStore {
    inner: RwLock<Inner>,
    max_samples: usize,
    layer: StoreLayer,
    generation: AtomicU64,
}

impl Default for SampleStore {
    fn default() -> Self {
        SampleStore::new()
    }
}

/// Default cap on retained samples; old samples are evicted FIFO beyond this, which
/// mirrors the paper's choice to keep adapting to changing cluster conditions rather
/// than damping learning over time (§4.2).
const DEFAULT_MAX_SAMPLES: usize = 50_000;

impl SampleStore {
    /// Empty exact store with the default retention cap.
    pub fn new() -> Self {
        SampleStore::with_layer(DEFAULT_MAX_SAMPLES, StoreLayer::Exact)
    }

    /// Empty exact store with an explicit retention cap (primarily for tests).
    pub fn with_capacity(max_samples: usize) -> Self {
        SampleStore::with_layer(max_samples.max(1), StoreLayer::Exact)
    }

    /// Empty *sketched* store: raw samples are not retained at all — predictions are
    /// answered from the O(1)-memory binned aggregates, and counts report lifetime
    /// observations rather than retained samples.
    pub fn sketched() -> Self {
        SampleStore::with_layer(DEFAULT_MAX_SAMPLES, StoreLayer::Sketched)
    }

    fn with_layer(max_samples: usize, layer: StoreLayer) -> Self {
        SampleStore {
            inner: RwLock::new(Inner::default()),
            max_samples,
            layer,
            generation: AtomicU64::new(0),
        }
    }

    /// Whether this store answers predictions from the sketched layer.
    pub fn is_sketched(&self) -> bool {
        self.layer == StoreLayer::Sketched
    }

    /// Number of stored samples: retained samples for exact stores, lifetime
    /// observations for sketched stores.
    pub fn len(&self) -> usize {
        let guard = self.inner.read();
        match self.layer {
            StoreLayer::Exact => guard.retained,
            StoreLayer::Sketched => guard
                .parts
                .iter()
                .map(|p| usize::try_from(p.lifetime).unwrap_or(usize::MAX))
                .fold(0usize, usize::saturating_add),
        }
    }

    /// Whether the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutation counter: bumped once per [`record`](Self::record) /
    /// [`clear`](Self::clear). Two equal generations mean the store content (and
    /// hence any `StoreCounts` snapshot) is unchanged between the two reads.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Record a raw sample: exact stores append it to its partition's ring (evicting
    /// the globally oldest at the cap); sketched stores fold it into the bins.
    pub fn record(&self, sample: Sample) {
        let mut guard = self.inner.write();
        let idx = par_idx(sample.mode, sample.kind);
        match self.layer {
            StoreLayer::Exact => {
                while guard.retained >= self.max_samples {
                    guard.evict_oldest();
                }
                let seq = guard.next_seq;
                guard.next_seq += 1;
                guard.parts[idx].fifo.push_back((seq, sample));
                guard.retained += 1;
            }
            StoreLayer::Sketched => guard.parts[idx].fold(&sample),
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Record a completed job that ran pure `mode` throughout.
    pub fn record_outcome(&self, mode: SpeculationMode, outcome: &JobOutcome) {
        if let Some(sample) = Sample::from_outcome(mode, outcome) {
            self.record(sample);
        }
    }

    fn partition_count(&self, inner: &Inner, mode: SpeculationMode, kind: BoundKind) -> usize {
        let part = &inner.parts[par_idx(mode, kind)];
        match self.layer {
            StoreLayer::Exact => part.fifo.len(),
            StoreLayer::Sketched => usize::try_from(part.lifetime).unwrap_or(usize::MAX),
        }
    }

    /// Count samples available for a given mode and bound kind, O(1).
    pub fn count_for(&self, mode: SpeculationMode, kind: BoundKind) -> usize {
        let guard = self.inner.read();
        self.partition_count(&guard, mode, kind)
    }

    /// Count samples available for both modes of one bound kind under a single lock
    /// acquisition: `(GS count, RAS count)`, O(1). Used by the switching evaluation
    /// to bail out before running a candidate-point sweep that cannot produce a
    /// prediction.
    pub fn counts_for_kind(&self, kind: BoundKind) -> (usize, usize) {
        let guard = self.inner.read();
        (
            self.partition_count(&guard, SpeculationMode::Gs, kind),
            self.partition_count(&guard, SpeculationMode::Ras, kind),
        )
    }

    /// Generation-tagged snapshot of every per-(kind, mode) count, one lock
    /// acquisition. The generation is read while the lock is held, so it matches
    /// the counts exactly.
    pub fn counts_snapshot(&self) -> StoreCounts {
        let guard = self.inner.read();
        StoreCounts {
            generation: self.generation.load(Ordering::Acquire),
            deadline: (
                self.partition_count(&guard, SpeculationMode::Gs, BoundKind::Deadline),
                self.partition_count(&guard, SpeculationMode::Ras, BoundKind::Deadline),
            ),
            error: (
                self.partition_count(&guard, SpeculationMode::Gs, BoundKind::Error),
                self.partition_count(&guard, SpeculationMode::Ras, BoundKind::Error),
            ),
        }
    }

    /// Predict the task-completion rate (tasks/second) of running pure `mode` under
    /// the query context, as a similarity-weighted mean over stored samples. Returns
    /// `None` when fewer than `min_samples` relevant samples exist.
    ///
    /// Exact stores scan the one relevant partition in insertion order — the same
    /// samples, kernel and float summation order as the historical whole-store scan,
    /// so results are bit-identical. Sketched stores answer from the binned
    /// aggregates in O(bins): the result is a convex combination of the recorded
    /// rates with bin-centre kernel weights.
    pub fn predict_rate(
        &self,
        mode: SpeculationMode,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        let guard = self.inner.read();
        let part = &guard.parts[par_idx(mode, ctx.kind)];
        match self.layer {
            StoreLayer::Exact => {
                let mut weight_sum = 0.0;
                let mut weighted_rate = 0.0;
                let mut count = 0usize;
                for (_, s) in part.fifo.iter() {
                    let mut w = 1.0 / (1.0 + f64::from(s.size_bucket.distance(&ctx.size_bucket)));
                    if factors.bound {
                        let ratio = log_ratio(s.bound_value, ctx.bound_value);
                        w *= 1.0 / (1.0 + ratio);
                    }
                    if factors.utilization {
                        w *= 1.0 / (1.0 + 5.0 * (s.utilization - ctx.utilization).abs());
                    }
                    if factors.accuracy {
                        w *= 1.0 / (1.0 + 5.0 * (s.accuracy - ctx.accuracy).abs());
                    }
                    weight_sum += w;
                    weighted_rate += w * s.rate();
                    count += 1;
                }
                if count < min_samples || weight_sum <= 0.0 {
                    return None;
                }
                Some(weighted_rate / weight_sum)
            }
            StoreLayer::Sketched => {
                if usize::try_from(part.lifetime).unwrap_or(usize::MAX) < min_samples {
                    return None;
                }
                let mut weight_sum = 0.0;
                let mut weighted_rate = 0.0;
                for (key, agg) in &part.bins {
                    let q = query_weight(key, ctx, factors);
                    weight_sum += q * agg.w_sum;
                    weighted_rate += q * agg.wr_sum;
                }
                if weight_sum <= 0.0 {
                    return None;
                }
                Some(weighted_rate / weight_sum)
            }
        }
    }

    /// Predict how many input tasks a job of this context would complete if it ran
    /// pure `mode` for `seconds` seconds.
    pub fn predict_deadline_completion(
        &self,
        mode: SpeculationMode,
        seconds: f64,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        if seconds <= 0.0 {
            return Some(0.0);
        }
        let ctx = QueryContext {
            bound_value: seconds,
            ..*ctx
        };
        self.predict_rate(mode, &ctx, factors, min_samples)
            .map(|rate| rate * seconds)
    }

    /// Predict how long pure `mode` would take to complete `tasks` more tasks.
    pub fn predict_error_duration(
        &self,
        mode: SpeculationMode,
        tasks: f64,
        ctx: &QueryContext,
        factors: FactorSet,
        min_samples: usize,
    ) -> Option<f64> {
        if tasks <= 0.0 {
            return Some(0.0);
        }
        let ctx = QueryContext {
            bound_value: tasks,
            ..*ctx
        };
        let rate = self.predict_rate(mode, &ctx, factors, min_samples)?;
        if rate <= 0.0 {
            return None;
        }
        Some(tasks / rate)
    }

    /// Drop every stored sample.
    pub fn clear(&self) {
        let mut guard = self.inner.write();
        *guard = Inner::default();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Retained samples matching `(mode, kind)` in insertion order — a test /
    /// diagnostics accessor (always empty for sketched stores, which retain none).
    pub fn samples_for(&self, mode: SpeculationMode, kind: BoundKind) -> Vec<Sample> {
        self.inner.read().parts[par_idx(mode, kind)]
            .fifo
            .iter()
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Total number of occupied sketched-layer bins across all partitions — the
    /// quantity that stays bounded while job count grows without limit. Always 0 for
    /// exact stores, which keep no bins.
    pub fn sketch_bins(&self) -> usize {
        self.inner.read().parts.iter().map(|p| p.bins.len()).sum()
    }
}

/// `|log2(a / b)|`, guarded against non-positive inputs.
fn log_ratio(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        return f64::INFINITY;
    }
    (a / b).log2().abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grass::reference::ReferenceSampleStore;
    use crate::task::JobId;

    fn sample(mode: SpeculationMode, kind: BoundKind, bound: f64, perf: f64) -> Sample {
        Sample {
            mode,
            kind,
            size_bucket: SizeBucket(5),
            bound_value: bound,
            performance: perf,
            utilization: 0.5,
            accuracy: 0.75,
        }
    }

    fn ctx(kind: BoundKind, bound: f64) -> QueryContext {
        QueryContext {
            kind,
            size_bucket: SizeBucket(5),
            bound_value: bound,
            utilization: 0.5,
            accuracy: 0.75,
        }
    }

    #[test]
    fn factor_sets() {
        assert_eq!(FactorSet::all().count(), 3);
        assert_eq!(FactorSet::best_one().count(), 1);
        assert_eq!(FactorSet::best_two_utilization().count(), 2);
        assert_eq!(FactorSet::best_two_accuracy().count(), 2);
        assert_eq!(FactorSet::default(), FactorSet::all());
    }

    #[test]
    fn sample_rates() {
        // Deadline: 20 tasks in a 10s deadline => 2 tasks/s.
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0).rate(),
            2.0
        );
        // Error: 30 tasks needed, 15s duration => 2 tasks/s.
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 15.0).rate(),
            2.0
        );
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Deadline, 0.0, 20.0).rate(),
            0.0
        );
        assert_eq!(
            sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 0.0).rate(),
            0.0
        );
    }

    #[test]
    fn store_records_and_counts() {
        let store = SampleStore::new();
        assert!(store.is_empty());
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        store.record(sample(
            SpeculationMode::Ras,
            BoundKind::Deadline,
            10.0,
            25.0,
        ));
        store.record(sample(SpeculationMode::Gs, BoundKind::Error, 30.0, 15.0));
        assert_eq!(store.len(), 3);
        // The exact layer keeps only its rings: no sketched bins behind them.
        assert_eq!(store.sketch_bins(), 0);
        assert_eq!(store.count_for(SpeculationMode::Gs, BoundKind::Deadline), 1);
        assert_eq!(
            store.count_for(SpeculationMode::Ras, BoundKind::Deadline),
            1
        );
        assert_eq!(store.count_for(SpeculationMode::Ras, BoundKind::Error), 0);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn incremental_counts_stay_exact_across_eviction_and_clear() {
        let store = SampleStore::with_capacity(4);
        let mix = [
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Ras, BoundKind::Deadline),
            (SpeculationMode::Gs, BoundKind::Error),
            (SpeculationMode::Ras, BoundKind::Error),
        ];
        // 10 records into a 4-slot store: every record past the 4th evicts the
        // oldest, exercising the decrement path with mixed kinds and modes.
        for i in 0..10 {
            let (mode, kind) = mix[i % mix.len()];
            store.record(sample(mode, kind, 10.0, 20.0));
            // Ground truth by definition: count_for must always equal a full scan —
            // here recomputed from the deterministic record/evict pattern.
            for (m, k) in mix {
                let expected = (0..=i)
                    .skip(i.saturating_sub(3))
                    .filter(|j| mix[j % mix.len()] == (m, k))
                    .count();
                assert_eq!(store.count_for(m, k), expected, "after record {i}");
            }
        }
        let snapshot = store.counts_snapshot();
        assert_eq!(snapshot.for_kind(BoundKind::Deadline), (1, 1));
        assert_eq!(snapshot.for_kind(BoundKind::Error), (1, 1));
        assert_eq!(store.counts_for_kind(BoundKind::Deadline), (1, 1));
        store.clear();
        assert_eq!(store.counts_for_kind(BoundKind::Deadline), (0, 0));
        assert_eq!(store.counts_for_kind(BoundKind::Error), (0, 0));
    }

    #[test]
    fn generation_moves_on_every_mutation_and_tags_snapshots() {
        let store = SampleStore::new();
        let g0 = store.generation();
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        let g1 = store.generation();
        assert!(g1 > g0);
        let snap = store.counts_snapshot();
        assert_eq!(snap.generation, g1);
        assert_eq!(snap.deadline, (1, 0));
        // No mutation => generation (and any memo keyed on it) stays valid.
        assert_eq!(store.generation(), g1);
        store.clear();
        assert!(store.generation() > g1);
    }

    #[test]
    fn store_evicts_oldest_beyond_capacity() {
        let store = SampleStore::with_capacity(3);
        for i in 0..5 {
            store.record(sample(
                SpeculationMode::Gs,
                BoundKind::Deadline,
                10.0,
                i as f64,
            ));
        }
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn eviction_order_and_counts_match_the_frozen_reference() {
        // Satellite pin: the ring-buffer eviction must walk the same global FIFO as
        // the historical front-drain, across partitions. Drive both stores through
        // an irregular mixed-partition overflow sequence and compare retained
        // samples per partition, in order.
        let store = SampleStore::with_capacity(5);
        let oracle = ReferenceSampleStore::with_capacity(5);
        let mix = [
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Ras, BoundKind::Error),
            (SpeculationMode::Gs, BoundKind::Error),
            (SpeculationMode::Ras, BoundKind::Deadline),
            (SpeculationMode::Gs, BoundKind::Deadline),
            (SpeculationMode::Ras, BoundKind::Error),
        ];
        for i in 0..23 {
            let (mode, kind) = mix[(i * i) % mix.len()];
            let s = sample(mode, kind, 10.0 + i as f64, 20.0 + i as f64);
            store.record(s.clone());
            oracle.record(s);
            for (m, k) in [
                (SpeculationMode::Gs, BoundKind::Deadline),
                (SpeculationMode::Ras, BoundKind::Deadline),
                (SpeculationMode::Gs, BoundKind::Error),
                (SpeculationMode::Ras, BoundKind::Error),
            ] {
                assert_eq!(
                    store.samples_for(m, k),
                    oracle.samples_for(m, k),
                    "partition ({m:?}, {k:?}) diverged after record {i}"
                );
                assert_eq!(store.count_for(m, k), oracle.count_for(m, k));
            }
            assert_eq!(store.len(), oracle.len());
        }
    }

    #[test]
    fn prediction_requires_min_samples() {
        let store = SampleStore::new();
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        let c = ctx(BoundKind::Deadline, 10.0);
        assert!(store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 2)
            .is_none());
        assert!(store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .is_some());
        assert!(store
            .predict_rate(SpeculationMode::Ras, &c, FactorSet::all(), 1)
            .is_none());
    }

    #[test]
    fn prediction_is_weighted_mean_of_rates() {
        let store = SampleStore::new();
        for _ in 0..5 {
            store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0));
        }
        let c = ctx(BoundKind::Deadline, 10.0);
        let rate = store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((rate - 2.0).abs() < 1e-9);
        let completed = store
            .predict_deadline_completion(SpeculationMode::Gs, 5.0, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((completed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bound_factor_prefers_similar_bounds() {
        let store = SampleStore::new();
        // Short-deadline samples show GS completing fast, long-deadline samples slow.
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 2.0, 10.0)); // 5 tasks/s
        store.record(sample(
            SpeculationMode::Gs,
            BoundKind::Deadline,
            100.0,
            100.0,
        )); // 1 task/s
        let short = ctx(BoundKind::Deadline, 2.0);
        let long = ctx(BoundKind::Deadline, 100.0);
        let with_bound = FactorSet::best_one();
        let r_short = store
            .predict_rate(SpeculationMode::Gs, &short, with_bound, 1)
            .unwrap();
        let r_long = store
            .predict_rate(SpeculationMode::Gs, &long, with_bound, 1)
            .unwrap();
        assert!(r_short > r_long, "{r_short} should exceed {r_long}");
        // Without the bound factor both queries see the same mixture.
        let without = FactorSet {
            bound: false,
            utilization: false,
            accuracy: false,
        };
        let r1 = store
            .predict_rate(SpeculationMode::Gs, &short, without, 1)
            .unwrap();
        let r2 = store
            .predict_rate(SpeculationMode::Gs, &long, without, 1)
            .unwrap();
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn error_duration_prediction_scales_with_tasks() {
        let store = SampleStore::new();
        store.record(sample(SpeculationMode::Ras, BoundKind::Error, 30.0, 15.0)); // 2 tasks/s
        let c = ctx(BoundKind::Error, 10.0);
        let d = store
            .predict_error_duration(SpeculationMode::Ras, 10.0, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((d - 5.0).abs() < 1e-9);
        assert_eq!(
            store.predict_error_duration(SpeculationMode::Ras, 0.0, &c, FactorSet::all(), 1),
            Some(0.0)
        );
    }

    #[test]
    fn sample_from_outcome_round_trips() {
        let outcome = JobOutcome {
            job: JobId(9),
            policy: "GS".to_string(),
            bound: Bound::Deadline(40.0),
            input_tasks: 100,
            total_tasks: 100,
            dag_length: 1,
            arrival: 0.0,
            finish: 40.0,
            completed_input_tasks: 60,
            completed_tasks: 60,
            speculative_copies: 5,
            killed_copies: 2,
            slot_seconds: 500.0,
            avg_wave_width: 10.0,
            avg_cluster_utilization: 0.8,
            avg_estimation_accuracy: 0.7,
        };
        let s = Sample::from_outcome(SpeculationMode::Gs, &outcome).unwrap();
        assert_eq!(s.kind, BoundKind::Deadline);
        assert_eq!(s.bound_value, 40.0);
        assert_eq!(s.performance, 60.0);
        assert_eq!(s.size_bucket, SizeBucket::of(100));

        let error_outcome = JobOutcome {
            bound: Bound::Error(0.2),
            finish: 25.0,
            ..outcome.clone()
        };
        let s = Sample::from_outcome(SpeculationMode::Ras, &error_outcome).unwrap();
        assert_eq!(s.kind, BoundKind::Error);
        assert_eq!(s.bound_value, 80.0);
        assert_eq!(s.performance, 25.0);

        // Degenerate outcomes produce no sample.
        let zero_duration = JobOutcome {
            bound: Bound::Error(0.2),
            finish: 0.0,
            ..outcome
        };
        assert!(Sample::from_outcome(SpeculationMode::Ras, &zero_duration).is_none());
    }

    #[test]
    fn sketched_store_predicts_within_recorded_rate_range() {
        let store = SampleStore::sketched();
        assert!(store.is_sketched());
        // Rates 1.0 and 4.0 tasks/s in the same partition, different bound bins.
        store.record(sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 10.0));
        store.record(sample(
            SpeculationMode::Gs,
            BoundKind::Deadline,
            50.0,
            200.0,
        ));
        let c = ctx(BoundKind::Deadline, 10.0);
        let rate = store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .unwrap();
        // Convex combination of recorded rates.
        assert!(
            (1.0..=4.0).contains(&rate),
            "{rate} outside recorded rate range"
        );
        // min_samples gate uses lifetime counts.
        assert!(store
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 3)
            .is_none());
        assert!(store
            .predict_rate(SpeculationMode::Ras, &c, FactorSet::all(), 1)
            .is_none());
        // No raw samples are retained; counts report lifetime observations.
        assert!(store
            .samples_for(SpeculationMode::Gs, BoundKind::Deadline)
            .is_empty());
        assert_eq!(store.count_for(SpeculationMode::Gs, BoundKind::Deadline), 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn sketched_identical_samples_reproduce_the_exact_prediction() {
        // All mass in one bin => the weighted mean collapses to the common rate.
        let exact = SampleStore::new();
        let sketched = SampleStore::sketched();
        for _ in 0..7 {
            let s = sample(SpeculationMode::Gs, BoundKind::Deadline, 10.0, 20.0);
            exact.record(s.clone());
            sketched.record(s);
        }
        let c = ctx(BoundKind::Deadline, 10.0);
        let re = exact
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .unwrap();
        let rs = sketched
            .predict_rate(SpeculationMode::Gs, &c, FactorSet::all(), 1)
            .unwrap();
        assert!((re - rs).abs() < 1e-12, "exact {re} vs sketched {rs}");
        assert_eq!(sketched.sketch_bins(), 1);
    }

    #[test]
    fn sketched_memory_is_bounded_by_bins_not_samples() {
        let store = SampleStore::sketched();
        for i in 0..10_000u64 {
            store.record(sample(
                SpeculationMode::Gs,
                BoundKind::Deadline,
                10.0 + (i % 16) as f64,
                20.0 + (i % 64) as f64,
            ));
        }
        assert_eq!(store.len(), 10_000);
        // Bins are keyed by coarse factor bins: this workload spans only a handful.
        assert!(
            store.sketch_bins() <= 64,
            "bins should stay coarse, got {}",
            store.sketch_bins()
        );
    }

    #[test]
    fn floor_log2_matches_definition_on_powers_and_neighbours() {
        for e in -30..30 {
            let p = pow2(e);
            assert_eq!(floor_log2(p), e, "2^{e}");
            assert_eq!(floor_log2(p * 1.5), e, "1.5·2^{e}");
            assert_eq!(floor_log2(p * 1.999), e, "1.999·2^{e}");
        }
        assert_eq!(floor_log2(1.0), 0);
        assert_eq!(floor_log2(0.5), -1);
        assert_eq!(floor_log2(3.0), 1);
    }
}
